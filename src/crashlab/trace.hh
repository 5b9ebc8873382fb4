/**
 * @file
 * CrashTrace — records the probe-event stream of one instrumented
 * reference run and turns it into (a) the harvested list of
 * interesting crash points and (b) per-tick transaction facts the
 * invariant checkers compare recovery results against.
 *
 * The harvest replaces blind tick sweeps: the NVRAM image only
 * changes when a journaled write completes, so the instants worth
 * crashing at are the completions of log-buffer drains, data
 * write-backs and WCB flushes, FWB pass boundaries, and the
 * volatile-state edges at tx-begin/tx-commit. For each event tick t
 * the harvest emits both t-1 (just before the effect lands) and t
 * (just after), which brackets every torn/partial state the event
 * could expose.
 */

#ifndef SNF_CRASHLAB_TRACE_HH
#define SNF_CRASHLAB_TRACE_HH

#include <cstdint>
#include <vector>

#include "sim/probe.hh"
#include "sim/types.hh"

namespace snf::crashlab
{

/** One candidate crash instant and the event that nominated it. */
struct CrashPoint
{
    Tick tick = 0;
    sim::ProbeEvent kind = sim::ProbeEvent::LogDrain;
    /** True for the t-1 "just before the event lands" sibling. */
    bool before = false;
};

/** See file comment. */
class CrashTrace
{
  public:
    struct Event
    {
        sim::ProbeEvent kind;
        Tick tick;
        std::uint64_t arg;
    };

    /**
     * The collector to install with System::setProbe(). Captures
     * `this`; the trace must outlive the probe.
     */
    sim::ProbeFn collector();

    /**
     * Sort the recorded stream and build the count indices. Call
     * once, after the reference run and before any query below.
     */
    void finalize();

    const std::vector<Event> &events() const { return stream; }

    /**
     * Harvested crash points with tick <= @p endTick, deduplicated
     * and sorted by tick. Requires finalize().
     */
    std::vector<CrashPoint> harvest(Tick endTick) const;

    /** Transactions begun with begin-tick <= @p t. */
    std::uint64_t begunBy(Tick t) const;

    /**
     * Transactions whose commit *initiated* by @p t. This and
     * abortedBy() leave out transactions that ended with no log
     * record (sim::ProbeEvent::ReadOnlyEnd).
     */
    std::uint64_t committedBy(Tick t) const;

    /** Transactions whose commit record was *durable* by @p t. */
    std::uint64_t durableBy(Tick t) const;

    /**
     * Transactions whose abort initiated by @p t. Under undo-capable
     * modes the rollback closes with a commit record, so these count
     * toward the commit-record upper bound.
     */
    std::uint64_t abortedBy(Tick t) const;

  private:
    std::vector<Event> stream;
    std::vector<Tick> beginTicks;   // sorted
    std::vector<Tick> commitTicks;  // sorted
    std::vector<Tick> durableTicks; // sorted
    std::vector<Tick> abortTicks;   // sorted
    bool finalized = false;
};

} // namespace snf::crashlab

#endif // SNF_CRASHLAB_TRACE_HH
