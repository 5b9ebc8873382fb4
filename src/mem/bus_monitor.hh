/**
 * @file
 * NVRAM-bus ordering monitor checking the paper's inherent ordering
 * guarantee (Section III-B): a store's log record must arrive at
 * NVRAM no later than any write-back of the line it modified
 * (invariant I3 in DESIGN.md), and no live log entry may be
 * overwritten while its working data is still volatile (I4).
 */

#ifndef SNF_MEM_BUS_MONITOR_HH
#define SNF_MEM_BUS_MONITOR_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/line_table.hh"
#include "sim/probe.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace snf::mem
{

/**
 * Passive checker fed by the log buffer (append/drain events) and the
 * memory system (data-line write-back events). Violations increment
 * counters that tests assert to be zero for persistence-guaranteeing
 * modes.
 */
class BusMonitor
{
  public:
    /**
     * Names one pending log record, from its append until the
     * write-back that drops it after its drain. The log buffer keeps
     * the handles of its open group's records and drains by them.
     */
    using Record = std::uint32_t;

    /** Write-backs of one line the monitor remembers, newest first. */
    static constexpr std::size_t kWritebackHistory = 3;

    BusMonitor();

    /** A log record covering @p dataLine was appended at @p tick. */
    Record onLogAppend(Addr dataLine, Tick tick);

    /** Record @p rec's NVRAM write completes at @p drainTick. */
    void onLogDrain(Record rec, Tick drainTick);

    /**
     * A dirty data line was written back to NVRAM, carrying data last
     * copied into the L2 under @p stamp (MemorySystem::copyStamp).
     * The memory system reports a line's write-backs in issue order,
     * which is also their completion order.
     */
    void onDataWriteback(Addr dataLine, Tick startTick, Tick doneTick,
                         std::uint64_t stamp);

    /** A live (unpersisted-data) log entry was overwritten. */
    void onLogOverwriteHazard();

    /**
     * Completion tick of the most recent NVRAM write-back of
     * @p dataLine; 0 if it was never written back.
     */
    Tick lastWritebackOf(Addr dataLine) const;

    /**
     * Did the newest remembered write-back of @p dataLine that
     * completed by @p now carry data copied into the L2 after
     * @p stamp? Older write-backs carry older stamps, so it stands
     * for every completed one. False when none has completed.
     */
    bool carriedSince(Addr dataLine, std::uint64_t stamp, Tick now) const;

    /**
     * Crash-tooling probe: emits DataWriteback at every NVRAM
     * write-back completion this monitor observes.
     */
    void setProbe(sim::ProbeFn p) { probe = std::move(p); }

    sim::StatGroup &stats() { return statGroup; }

    std::uint64_t orderViolations() const { return orderViol.value(); }

    std::uint64_t overwriteHazards() const { return overwrite.value(); }

  private:
    static constexpr Record kNil = ~Record{0};

    /** One pending log record: a node of its line's list. */
    struct PendingLog
    {
        Tick append;
        Tick drain;
        Record next; ///< next record of the line, append order
    };

    /** One NVRAM write-back of a line; done == 0 marks no entry. */
    struct Writeback
    {
        Tick done = 0;
        std::uint64_t stamp = 0;
    };

    /** Per-line state: recent write-backs and pending-record list. */
    struct Line
    {
        /** The newest kWritebackHistory write-backs, newest first. */
        std::array<Writeback, kWritebackHistory> wbs{};
        Record head = kNil;
        Record tail = kNil;
    };

    sim::StatGroup statGroup;
    sim::Counter &orderViol;
    sim::Counter &overwrite;
    sim::Counter &checkedWritebacks;
    sim::LineTable<Line> lines;
    /** Node pool of every line's pending records; freed nodes are
     *  chained through `next` from freeList. */
    std::vector<PendingLog> records;
    Record freeList = kNil;
    sim::ProbeFn probe;
};

} // namespace snf::mem

#endif // SNF_MEM_BUS_MONITOR_HH
