/**
 * @file
 * Discrete-event queue driving the simulator's time-triggered
 * activity: FWB's periodic scan (Section IV-D) and the log scrubber's
 * steps. Core/thread progress is driven by the cpu::Scheduler, which
 * interleaves with this queue on a common tick.
 *
 * One binary min-heap ordered by (tick, schedule order). A run holds
 * at most one pending event, FWB's next scan or the scrubber's next
 * step, so nothing faster pays for itself.
 */

#ifndef SNF_SIM_EVENT_QUEUE_HH
#define SNF_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.hh"

namespace snf::sim
{

/**
 * A time-ordered queue of callbacks. Events scheduled for the same tick
 * execute in scheduling order (FIFO), which keeps runs deterministic.
 */
class EventQueue
{
  public:
    using Callback = std::function<void(Tick)>;

    /** Schedule @p cb to run at absolute tick @p when. */
    void schedule(Tick when, Callback cb);

    /** Tick of the earliest pending event, or kTickNever if empty. */
    Tick
    nextEventTick() const
    {
        return heap.empty() ? kTickNever : heap.front().when;
    }

    /**
     * Execute every event with tick <= @p now, including those the
     * callbacks schedule at or before it.
     * @return the number of events executed.
     */
    std::size_t runUntil(Tick now);

    /** Lifetime counters. */
    std::uint64_t statScheduled() const { return nextSeq; }
    std::uint64_t statExecuted() const { return executed; }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
    };

    /** Heap order: the front is the least (when, seq). */
    static bool
    later(const Entry &a, const Entry &b)
    {
        return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }

    std::vector<Entry> heap;
    /** Events scheduled so far, and so the next one's seq. */
    std::uint64_t nextSeq = 0;
    std::uint64_t executed = 0;
};

} // namespace snf::sim

#endif // SNF_SIM_EVENT_QUEUE_HH
