/**
 * @file
 * The optional volatile log buffer in the memory controller (paper
 * Section IV-C): a small FIFO that receives HWL log records, coalesces
 * records that fall into the same NVRAM line (consecutive slots), and
 * drains them to the circular log region in order.
 *
 * With N entries, a record takes roughly N cycles to reach the NVRAM
 * bus, so N is bounded by the minimum time a data store needs to
 * traverse the cache hierarchy — this preserves the inherent
 * log-before-data ordering guarantee (Section III-B).
 */

#ifndef SNF_PERSIST_LOG_BUFFER_HH
#define SNF_PERSIST_LOG_BUFFER_HH

#include <deque>
#include <vector>

#include "mem/bus_monitor.hh"
#include "persist/log_record.hh"
#include "persist/log_region.hh"
#include "sim/probe.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace snf::mem
{
class MemDevice;
} // namespace snf::mem

namespace snf::persist
{

/** See file comment. */
class LogBuffer
{
  public:
    /**
     * @param entries FIFO capacity; 0 models "no log buffer": every
     *        record is forced onto the NVRAM bus immediately and the
     *        store stalls until the bus accepts it.
     * @param tornTestMode land each drained record as payload, then
     *        header, at distinct ticks inside the drain's window, so
     *        crash tests can observe torn records; timing unchanged.
     */
    LogBuffer(LogRegion &region, mem::MemDevice &nvram,
              mem::BusMonitor *monitor, std::uint32_t entries,
              std::uint32_t nvramLineBytes, bool tornTestMode = false);

    /**
     * Append one record.
     * @return the tick at which the triggering store may proceed
     *         (== @p now unless the buffer exerts back-pressure).
     */
    Tick append(const LogRecord &rec, Tick now);

    /** Reservation slot of the most recent append (for tx binding). */
    std::uint64_t lastSlot() const { return lastReservedSlot; }

    /** The region this buffer drains into. */
    LogRegion &logRegion() { return region; }

    /** Flush everything; returns the last drain-completion tick. */
    Tick drainAll(Tick now);

    /** Drop buffered, un-drained records (crash model). */
    void dropAll();

    /** Records currently buffered or in flight at @p now. */
    std::size_t occupancy(Tick now) const;

    /**
     * Crash-tooling probe: emits LogDrain at each group's NVRAM
     * completion and CommitDurable for every commit record the group
     * carried (src/crashlab harvests these as crash points).
     */
    void setProbe(sim::ProbeFn p) { probe = std::move(p); }

    sim::StatGroup &stats() { return statGroup; }

  private:
    struct Group
    {
        Addr lineAddr; ///< NVRAM line the group's slots fall in
        Addr base;     ///< first byte address of the group
        std::vector<std::uint8_t> bytes;
        /** Bus-monitor handles of the group's update records. */
        std::vector<mem::BusMonitor::Record> covered;
        /** Commit records in the group (txids), for the probe. */
        std::vector<TxId> commits;
        std::uint32_t records = 0;

        /** Empty the group, keeping the vectors' capacity. */
        void
        clear()
        {
            bytes.clear();
            covered.clear();
            commits.clear();
            records = 0;
        }
    };

    /** Issue the open group to the NVRAM bus; returns completion. */
    Tick flushGroup(Tick now);

    LogRegion &region;
    mem::MemDevice &nvram;
    mem::BusMonitor *monitor;
    std::uint32_t capacity;
    std::uint32_t lineBytes;
    bool tornTest;

    Group open;
    bool hasOpen = false;
    Tick lastDrainDone = 0;
    std::uint64_t lastReservedSlot = 0;
    /** (recordCount, doneTick) of issued groups still in flight. */
    mutable std::deque<std::pair<std::uint32_t, Tick>> inflight;
    sim::ProbeFn probe;

    sim::StatGroup statGroup;

  public:
    sim::Counter &recordsAppended;
    sim::Counter &groupsDrained;
    sim::Counter &bytesDrained;
    sim::Counter &stalls;
    sim::Counter &stallCycles;
};

} // namespace snf::persist

#endif // SNF_PERSIST_LOG_BUFFER_HH
