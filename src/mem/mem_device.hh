/**
 * @file
 * Timing and energy model of a memory DIMM (DRAM or NVRAM/PCM) with
 * banks, row buffers, and a shared channel, over a byte-accurate
 * BackingStore (paper Table II, PCM parameters from [44]).
 */

#ifndef SNF_MEM_MEM_DEVICE_HH
#define SNF_MEM_MEM_DEVICE_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/system_config.hh"
#include "mem/backing_store.hh"
#include "mem/fault_model.hh"
#include "mem/remap_table.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace snf::mem
{

/**
 * One memory device on the processor-memory bus. Reads and log writes
 * reserve their channel and a bank, posted data writes only their
 * bank; row-buffer hits are cheap, conflicts pay the full array
 * latency. Writes also charge PCM array-write energy.
 */
class MemDevice
{
  public:
    struct Result
    {
        Tick done;   ///< completion tick of the access
        bool rowHit; ///< whether the access hit an open row
    };

    MemDevice(std::string name, const MemDeviceConfig &config,
              Addr base);

    /**
     * Perform an access of @p size bytes at @p addr.
     * For writes, @p wdata supplies the bytes (journaled with the
     * completion tick); for reads, @p rdata receives them (may be
     * nullptr for timing-only probes).
     * @p priorityWrite marks ordering-critical log writes, which the
     * controller services ahead of queued data write-backs.
     * @p origin tags who issued the write; journaled together with
     * the issue tick (@p now) so crash tooling can reconstruct the
     * in-flight persist set and its hardware-enforced ordering edges.
     * @p issueHint overrides the journaled issue tick (kTickNever =
     * use @p now); the injectSkipWbBarrier self-test passes the
     * pre-barrier tick here so the write appears pending across the
     * barrier wait without changing any timing.
     */
    Result access(bool write, Addr addr, std::uint64_t size,
                  const void *wdata, void *rdata, Tick now,
                  bool priorityWrite = false,
                  PersistOrigin origin = PersistOrigin::Data,
                  Tick issueHint = kTickNever);

    /**
     * Land @p size bytes of a write that access() timed without data,
     * completing at @p done and journaled with @p issue. Splitting one
     * timed write into ordered pieces at distinct ticks inside its
     * window lets a crash land between them without changing the
     * write's timing or counters.
     */
    void
    landPiece(Addr addr, std::uint64_t size, const void *data,
              Tick done, Tick issue, PersistOrigin origin)
    {
        mediaWrite(addr, size, data, done, issue, origin);
    }

    /** Functional, zero-time read (recovery / verification). */
    void functionalRead(Addr addr, std::uint64_t size, void *out) const;

    /** Functional, zero-time write (recovery). */
    void functionalWrite(Addr addr, std::uint64_t size, const void *in);

    /** True when this device carries a bad-line remap region. */
    bool remapActive() const { return cfg.remapSize != 0; }

    RemapTable *remap() { return remapTable.get(); }
    const RemapTable *remap() const { return remapTable.get(); }

    /**
     * Line-granularity address translation through the remap table:
     * a promoted line's traffic is served at its spare. Identity when
     * nothing is promoted (the common case, and the whole tier-1
     * surface).
     */
    Addr translate(Addr addr) const;

    /**
     * Promote @p lineAddr into the remap table: copy its current
     * bytes to the assigned spare and durably publish the new table
     * (both through timed priority writes at @p now), then switch
     * translation over. Returns false when the table is full, the
     * line is already promoted, or no remap region exists.
     */
    bool remapLine(Addr lineAddr, Tick now);

    /**
     * Re-read the remap table from the backing store and rebuild the
     * translation map — used after the lifecycle driver adopts a
     * recovered NVRAM image.
     */
    RemapTable::LoadResult reloadRemap();

    /**
     * Durably record the lifecycle superblock (persistent-heap bump
     * cursor and generation number) carried in the remap-table
     * header, via functional (tick-0, journaled) writes.
     */
    void updateSuperblock(std::uint64_t heapCursor,
                          std::uint64_t generation);

    BackingStore &store() { return backing; }
    const BackingStore &store() const { return backing; }

    /**
     * Declare [base, base+size) the durable log region. Timed writes
     * that land there must arrive on the serialized priority channel
     * with a log/metadata origin — the single write path that both
     * logging backends share and that the fault injector instruments
     * — so neither backend can grow a log write path that bypasses
     * fault injection or the FIFO ordering (fault parity by
     * construction).
     */
    void
    setLogRegion(Addr base, std::uint64_t size)
    {
        logRegionBase = base;
        logRegionSize = size;
    }

    /**
     * Declare the log region split into @p shards equal slices
     * (shardlab). The parity assert then additionally requires every
     * timed log write to lie entirely within one shard's slice — a
     * log-origin write straddling shard regions means some backend
     * routed a record to the wrong shard, and fails loudly instead of
     * corrupting the neighbor shard's slot array.
     */
    void
    setLogShards(std::uint32_t shards)
    {
        logShardCount = shards > 0 ? shards : 1;
    }

    /**
     * Sustained write service time per access of @p size bytes,
     * assuming sequential (row-hit) traffic. Used to derive the FWB
     * frequency from NVRAM write bandwidth (Section IV-D).
     */
    Tick sequentialWriteCycles(std::uint64_t size) const;

    /** Endurance / lifetime accounting (paper Section III-F). */
    struct WearReport
    {
        std::uint64_t totalWrites = 0;
        std::uint64_t rowsTouched = 0;
        std::uint64_t hottestRowWrites = 0;
        double meanWritesPerTouchedRow = 0.0;
        /**
         * Projected time (in simulated seconds) until the hottest
         * cell wears out at the observed write rate, assuming the
         * given cell endurance and NO wear leveling; the paper's
         * argument is that this horizon is long enough for standard
         * wear-leveling (Start-Gap etc.) to engage.
         */
        double hottestRowLifetimeSeconds(std::uint64_t endurance,
                                         Tick elapsed,
                                         double clockGhz) const;
    };

    WearReport wearReport() const;

    Addr base() const { return baseAddr; }

    const MemDeviceConfig &config() const { return cfg; }

    sim::StatGroup &stats() { return statGroup; }

  private:
    /**
     * Read-priority bank model: demand reads never queue behind
     * posted writes (evictions, log drains, forced write-backs).
     * Reads share one channel burst after another, and so do log
     * writes on their streaming lane. Posted data writes are served
     * per bank: one waits for its bank's earlier data writes, log
     * writes and reads only, so a write stuck on a busy bank holds
     * back no other bank's writes, and data bursts are not
     * serialized against each other. No controller queue depth is
     * modelled (Table II's 64/64-entry read/write queues are not).
     */
    struct Bank
    {
        std::int64_t openRow = -1;
        Tick readBusyUntil = 0;
        Tick logWriteBusyUntil = 0;
        Tick dataWriteBusyUntil = 0;
    };

    std::string devName;
    MemDeviceConfig cfg;
    Addr baseAddr;
    BackingStore backing;
    FaultInjector faults;
    /** Bad-line remap table (lifelab); null without a remap region. */
    std::unique_ptr<RemapTable> remapTable;
    /** orig line -> spare line mirror of the table, for O(1) lookup. */
    std::unordered_map<Addr, Addr> lineMap;
    std::vector<Bank> banks;
    std::unordered_map<std::uint64_t, std::uint64_t> rowWrites;
    /** Last-written row bucket: sequential write streams hit the same
     *  row repeatedly, so cache the map slot (node-stable across
     *  rehash) instead of re-hashing per write. */
    std::uint64_t cachedRow = 0;
    std::uint64_t *cachedRowCount = nullptr;
    /** True when bytes can go straight to the backing store: no
     *  promoted lines and no fault injection. Maintained by the ctor
     *  and rebuildLineMap() — the only places either input changes. */
    bool fastMedia = true;
    Tick readChannelBusy = 0;
    Tick logChannelBusy = 0;
    /** Durable log region for the write-path parity assert; 0 = off. */
    Addr logRegionBase = 0;
    std::uint64_t logRegionSize = 0;
    /** Shard slices of the log region (shard-straddle assert). */
    std::uint32_t logShardCount = 1;
    sim::StatGroup statGroup; // must precede the counter references

  public:
    // Aggregate counters (public for the energy model and benches).
    sim::Counter &reads;
    sim::Counter &writes;
    sim::Counter &readBytes;
    sim::Counter &writeBytes;
    sim::Counter &rowHits;
    sim::Counter &rowConflicts;
    sim::Scalar &readEnergyPj;
    sim::Scalar &writeEnergyPj;
    /** Posted data writes, and the cycles they waited from issue to
     *  service start. */
    sim::Counter &dataWrites;
    sim::Counter &dataQueueCycles;
    /** Longest such wait of a single posted data write. */
    sim::Counter &dataQueueMax;
    /** Posted data writes that found their row open (rowHits also
     *  counts every streaming log write as a hit). */
    sim::Counter &dataRowHits;
    // Injected media faults (faultlab); all zero unless enabled.
    sim::Counter &faultBitFlips;
    sim::Counter &faultMultiBit;
    sim::Counter &faultTornLines;
    sim::Counter &faultDroppedWrites;
    sim::Counter &faultStuckWords;
    /** Bytes the enabled fault injector examined in scope. */
    sim::Counter &faultExaminedBytes;
    /** Lines promoted into the remap table on this device. */
    sim::Counter &remappedLines;

    const FaultInjector &faultInjector() const { return faults; }

  private:
    std::uint64_t rowOf(Addr addr) const;
    std::uint32_t bankOf(std::uint64_t row) const;
    void rebuildLineMap();
    /** Backing-store data movement with remap translation. Timing is
     *  charged on logical addresses by access(); only the bytes move
     *  to the spare. */
    void mediaRead(Addr addr, std::uint64_t size, void *out) const;
    void mediaWrite(Addr addr, std::uint64_t size, const void *in,
                    Tick done, Tick issue, PersistOrigin origin);
};

} // namespace snf::mem

#endif // SNF_MEM_MEM_DEVICE_HH
