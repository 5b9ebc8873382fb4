#include "cpu/scheduler.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace snf::cpu
{

Scheduler::Scheduler(sim::EventQueue &evq)
    : events(evq), statGroup("sched"), ops(statGroup.counter("ops"))
{
}

void
Scheduler::addThread(ThreadContext *tc)
{
    threads.push_back(tc);
}

ThreadContext *
Scheduler::pickNext() const
{
    ThreadContext *best = nullptr;
    for (ThreadContext *t : threads) {
        if (!t->runnable())
            continue;
        if (!best || t->localTime < best->localTime)
            best = t;
    }
    return best;
}

bool
Scheduler::allFinished() const
{
    return std::all_of(threads.begin(), threads.end(),
                       [](const ThreadContext *t) {
                           return t->finished;
                       });
}

Tick
Scheduler::run(Tick stopAt)
{
    for (ThreadContext *t : threads)
        t->stopAt = stopAt;

    bool stopped = false;
    while (ThreadContext *t = pickNext()) {
        if (t->localTime >= stopAt) {
            stopped = true;
            break;
        }

        // Fire time-triggered machinery (FWB scans, monitors) that
        // precedes this thread's next step. The guard jumps straight
        // to min(next runnable thread, next event): when no event is
        // due before this thread's tick there is nothing to step
        // through, so skip the queue entirely.
        if (events.nextEventTick() <= t->localTime)
            events.runUntil(t->localTime);

        if (!t->started) {
            t->started = true;
            SNF_ASSERT(t->rootHandle, "thread %u has no coroutine",
                       t->id());
            t->resumePoint = t->rootHandle;
        } else {
            SNF_ASSERT(t->pending != nullptr,
                       "runnable thread %u without pending op",
                       t->id());
            PendingOp *op = t->pending;
            t->pending = nullptr;
            ops.inc();
            op->execute();
            // An op that parked itself again runs its next step once
            // this thread is again the earliest; the coroutine waits.
            if (t->pending)
                continue;
        }

        t->resumePoint.resume();
        if (t->rootHandle.done())
            t->finished = true;
    }

    // A run to the end fires every event due before the stop tick
    // before it executes any op at or past it, so a stopped run fires
    // them too. Every op that ran in place lies below the stop tick.
    if (stopped && events.nextEventTick() < stopAt)
        events.runUntil(stopAt - 1);

    Tick max_time = 0;
    for (const ThreadContext *t : threads)
        max_time = std::max(max_time, t->localTime);
    return max_time;
}

} // namespace snf::cpu
