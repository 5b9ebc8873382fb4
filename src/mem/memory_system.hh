/**
 * @file
 * The memory-system protocol layer: per-core write-back write-allocate
 * L1 caches, a shared inclusive L2/LLC, DRAM and NVRAM devices, and the
 * uncacheable write-combining path. The sharer directory lives in the
 * L2 lines themselves (CacheLine::sharers): under inclusion every line
 * an L1 holds is in the L2, so the L2 line is the directory entry.
 *
 * All fill/write-back/coherence/clwb logic is concentrated here; the
 * Cache objects themselves are passive arrays. The persistence layer
 * hooks stores through PersistentStoreHook (HWL, Section III-B) and
 * drives FWB scans through fwbScanAll (Section IV-D).
 */

#ifndef SNF_MEM_MEMORY_SYSTEM_HH
#define SNF_MEM_MEMORY_SYSTEM_HH

#include <functional>
#include <memory>
#include <vector>

#include "core/system_config.hh"
#include "mem/bus_monitor.hh"
#include "mem/cache.hh"
#include "mem/mem_device.hh"
#include "mem/write_combine_buffer.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace snf::mem
{

/**
 * Interface the hardware-logging engine implements to observe every
 * persistent store at the L1 (old value from the write-allocated
 * line, new value from the in-flight store).
 */
class PersistentStoreHook
{
  public:
    virtual ~PersistentStoreHook() = default;

    /**
     * Called for each persistent store inside a transaction.
     * @return a tick the store must additionally wait for (log-buffer
     *         back-pressure), or @p now if none.
     */
    virtual Tick onPersistentStore(CoreId core, std::uint64_t txSeq,
                                   Addr addr, std::uint32_t size,
                                   std::uint64_t oldVal,
                                   std::uint64_t newVal, Tick now) = 0;
};

/** Which level serviced an access. */
enum class HitLevel
{
    L1 = 1,
    L2 = 2,
    Memory = 3,
};

/** Outcome of a cacheable access. */
struct AccessResult
{
    Tick done;
    HitLevel level;
};

/** Aggregate outcome of one FWB scan pass. */
struct FwbScanResult
{
    std::uint64_t linesScanned = 0;
    std::uint64_t linesFlagged = 0;
    std::uint64_t linesWrittenBack = 0;
    Tick lastWritebackDone = 0;
};

/** See file comment. */
class MemorySystem
{
  public:
    /** Line entries of the write-combining buffer that software log
     *  stores go through. */
    static constexpr std::uint32_t kWcbEntries = 6;

    explicit MemorySystem(const SystemConfig &config);

    MemorySystem(const MemorySystem &) = delete;
    MemorySystem &operator=(const MemorySystem &) = delete;

    /**
     * Cacheable load of @p size <= 8 bytes (single line).
     */
    AccessResult load(CoreId core, Addr addr, std::uint32_t size,
                      void *out, Tick now);

    /** Transactional context of a store, for the HWL hook. */
    struct StoreCtx
    {
        bool persistent = false;
        std::uint64_t txSeq = 0;
    };

    /**
     * Cacheable store of @p size <= 8 bytes (single line), write-back
     * write-allocate. Triggers the persistent-store hook when
     * @p ctx.persistent and the address is in NVRAM.
     */
    AccessResult store(CoreId core, Addr addr, std::uint32_t size,
                       const void *in, Tick now, const StoreCtx &ctx);

    /** Non-transactional store (no HWL hook). */
    AccessResult
    store(CoreId core, Addr addr, std::uint32_t size, const void *in,
          Tick now)
    {
        return store(core, addr, size, in, now, StoreCtx{});
    }

    /**
     * Uncacheable store (software log write) through the WCB.
     * @return tick at which the issuing core may proceed.
     */
    Tick uncacheableWrite(Addr addr, std::uint32_t size, const void *in,
                          Tick now);

    /** Drain the WCB (memory barrier); returns last completion tick. */
    Tick drainWcb(Tick now);

    /**
     * clwb: force the line containing @p addr back to memory if dirty
     * anywhere. The line stays valid (clean).
     * @return the persist-completion tick the next fence must await:
     *         never before the line's last write-back completes, which
     *         may carry this core's stores although another core
     *         issued it (BusMonitor::lastWritebackOf).
     */
    Tick clwb(CoreId core, Addr addr, Tick now);

    /**
     * One FWB scan pass over every cache level: FLAG newly-dirty
     * lines, force-write-back lines flagged on the previous pass
     * (paper Figure 5). Only NVRAM-backed lines participate.
     * Charges @p costPerLine cycles of port busy time per line of
     * each cache, though only its dirty lines are visited. The L2
     * write-backs leave after the walk, in line-address order.
     */
    FwbScanResult fwbScanAll(Tick now, double costPerLine);

    /** Port busy time one fwbScanAll charges its largest cache. */
    Tick fwbScanCharge(double costPerLine) const;

    /** Write back every dirty line (graceful shutdown). */
    Tick flushAllDirty(Tick now);

    /**
     * Fold the caches' batched demand hit/miss accumulators into
     * their named counters. Must run before any consumer reads or
     * dumps cache statistics (System::collectStats / dumpStats do).
     */
    void syncStats();

    /** Drop all cached state and the WCB (crash model). */
    void invalidateAllCaches();

    /** True if any cache holds a dirty copy of @p lineAddr's line. */
    bool isLineDirtyAnywhere(Addr addr) const;

    void setStoreHook(PersistentStoreHook *h) { hook = h; }

    /**
     * The host-order copy clock. Every L1-to-L2 data copy (eviction,
     * clwb, FWB's L1 pass, the shutdown flush, a cache-to-cache pull,
     * an L1 recall) bumps it, and the L2 line keeps the new value
     * (CacheLine::copyStamp) for the bus monitor at its next
     * write-back. Read right after a store has written its L1 line,
     * it stamps the store: a write-back carries the store iff its
     * stamp is greater.
     */
    std::uint64_t copyStamp() const { return copyClock; }

    /**
     * Barrier invoked before any NVRAM data write-back is put on the
     * memory bus. The hardware-logging configurations bind this to
     * the log buffer's drain so log records issued earlier reach
     * NVRAM first (the MC serializes its FIFO ahead of data writes,
     * Section III-E step 5). Returns the tick the write may start.
     */
    using DataWbBarrier = std::function<Tick(Tick)>;

    void setDataWbBarrier(DataWbBarrier b) { dataWbBarrier = std::move(b); }

    std::uint32_t lineBytes() const { return cfg.l1.lineBytes; }

    Addr
    lineOf(Addr a) const
    {
        return a & ~static_cast<Addr>(cfg.l1.lineBytes - 1);
    }

    MemDevice &nvram() { return nvramDev; }
    const MemDevice &nvram() const { return nvramDev; }
    MemDevice &dram() { return dramDev; }
    const MemDevice &dram() const { return dramDev; }
    Cache &l1(CoreId c) { return *l1s[c]; }
    const Cache &l1(CoreId c) const { return *l1s[c]; }
    Cache &l2Cache() { return l2; }
    const Cache &l2Cache() const { return l2; }
    WriteCombineBuffer &wcb() { return wcbuf; }
    BusMonitor &monitor() { return busMonitor; }

    sim::StatGroup &stats() { return statGroup; }

    const SystemConfig &config() const { return cfg; }

  private:
    struct FillResult
    {
        CacheLine *line;
        Tick done;
        bool hit;
    };

    MemDevice &deviceFor(Addr addr);

    /** Bring a line into L2, evicting as needed. */
    FillResult fillL2(Addr lineAddr, Tick now);

    /** Evict a valid L2 line: recall L1 copies, write back if dirty. */
    void evictL2Line(CacheLine *slot, Tick now);

    /** Evict a valid L1 line of @p core into the (inclusive) L2. */
    void evictL1Line(CoreId core, CacheLine *victim);

    /** The L2 copy of @p core's L1 @p line (inclusion asserts it). */
    CacheLine *l2ParentOf(CoreId core, const CacheLine *line);

    /** Copy @p src's data into its L2 @p parent, mark the parent
     *  dirty and stamp it with the next copy-clock value. */
    void copyToL2(CacheLine *parent, const CacheLine *src);

    /** Write a dirty L1 line's data into its L2 @p parent without
     *  invalidating it. */
    void writebackL1ToL2(CoreId core, CacheLine *line,
                         CacheLine *parent);

    /**
     * Write the dirty L2 @p line back to its device and mark it
     * clean: the one data write-back path, shared by eviction, clwb,
     * FWB and the shutdown flush. The write issues at @p issue and
     * starts once the log-drain barrier, taken at @p barrierAt (no
     * later than @p issue), lets it. The bus monitor checks it
     * against the log records appended up to that start, or up to
     * @p checkFrom when one is given.
     * @return the write's completion tick.
     */
    Tick writebackL2(CacheLine &line, Tick issue, Tick barrierAt,
                     Tick checkFrom = kTickNever);

    /**
     * Get the line into core's L1 ready for a load or (exclusive)
     * store.
     */
    FillResult ensureInL1(CoreId core, Addr lineAddr, Tick now,
                          bool for_store, HitLevel &level);

    SystemConfig cfg;
    sim::StatGroup statGroup;
    std::vector<std::unique_ptr<Cache>> l1s;
    Cache l2;
    MemDevice nvramDev;
    MemDevice dramDev;
    WriteCombineBuffer wcbuf;
    BusMonitor busMonitor;
    PersistentStoreHook *hook = nullptr;
    DataWbBarrier dataWbBarrier;
    /** One FWB scan's L2 lines to write back, reused across scans. */
    std::vector<CacheLine *> fwbBatch;
    /** See copyStamp(). */
    std::uint64_t copyClock = 0;

    sim::Counter &coherenceInvalidations;
    sim::Counter &cacheToCacheTransfers;
    /** Sum over data write-backs of start - issue: the wait at the
     *  log-drain barrier (setDataWbBarrier). */
    sim::Counter &wbBarrierWaitCycles;
};

} // namespace snf::mem

#endif // SNF_MEM_MEMORY_SYSTEM_HH
