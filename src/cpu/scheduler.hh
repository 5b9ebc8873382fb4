/**
 * @file
 * Conservative earliest-thread-first scheduler: repeatedly picks the
 * runnable thread with the smallest local clock, drains time-triggered
 * events (FWB scans) up to that instant, executes the thread's parked
 * memory operation, and resumes its coroutine until the next
 * operation. This yields a deterministic, causally-ordered global
 * interleaving across cores.
 *
 * An op that reads and writes only its own thread's state (a compute,
 * or the CC probe of a line the open transaction already locks) does
 * not park: it runs in place inside the coroutine, below the stop
 * tick only (ThreadContext::claimInPlace). The result is the one
 * parking would give. A parked op runs at the clock its thread parked
 * with, because only the thread's own ops move that clock, and no
 * other thread's op, event or probe reads what an in-place op
 * changes. An op reached at or past the stop tick never runs, as it
 * would not if parked.
 *
 * An op may run in steps: one that parks itself again while it runs
 * (a commit sequence at each fence, Thread::TxEndOp) is executed
 * again once its thread is again the earliest, and its coroutine
 * resumes only after the last step.
 *
 * A run stopped at a tick fires every event due before it, as a run
 * to the end does before its first op at or past that tick, so both
 * hold the same state at the stop tick (crashSnapshot).
 */

#ifndef SNF_CPU_SCHEDULER_HH
#define SNF_CPU_SCHEDULER_HH

#include <vector>

#include "cpu/thread_context.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace snf::cpu
{

/** See file comment. */
class Scheduler
{
  public:
    explicit Scheduler(sim::EventQueue &events);

    void addThread(ThreadContext *tc);

    /**
     * Run until every thread finishes or the earliest runnable thread
     * reaches @p stopAt (crash modeling).
     * @return the largest local clock among all threads.
     */
    Tick run(Tick stopAt = kTickNever);

    /** True once every added thread has completed. */
    bool allFinished() const;

    sim::StatGroup &stats() { return statGroup; }

  private:
    ThreadContext *pickNext() const;

    sim::EventQueue &events;
    std::vector<ThreadContext *> threads;
    sim::StatGroup statGroup; // must precede the counter reference

  public:
    /** Parked op steps executed (ops run in place are not
     *  counted). */
    sim::Counter &ops;
};

} // namespace snf::cpu

#endif // SNF_CPU_SCHEDULER_HH
