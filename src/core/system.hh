/**
 * @file
 * snf::System — the top-level facade binding the simulated machine
 * together: cores/threads, cache hierarchy, memory devices, the
 * circular NVRAM log, and the persistence machinery selected by
 * PersistMode (HWL, FWB, or the software-logging baselines).
 *
 * Typical use:
 * @code
 *   snf::System sys(snf::SystemConfig::scaled(), snf::PersistMode::Fwb);
 *   snf::Addr counter = sys.heap().alloc(8);
 *   sys.spawn(0, [&](snf::Thread &t) -> snf::sim::Co<void> {
 *       co_await t.txBegin();
 *       co_await t.store64(counter, 42);
 *       co_await t.txCommit();
 *   });
 *   snf::Tick end = sys.run();
 *   snf::RunStats stats = sys.collectStats(end);
 * @endcode
 */

#ifndef SNF_CORE_SYSTEM_HH
#define SNF_CORE_SYSTEM_HH

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/pheap.hh"
#include "core/system_config.hh"
#include "core/thread_api.hh"
#include "cpu/scheduler.hh"
#include "energy/energy_model.hh"
#include "mem/memory_system.hh"
#include "persist/fwb_engine.hh"
#include "persist/hwl_engine.hh"
#include "persist/log_buffer.hh"
#include "persist/log_region.hh"
#include "persist/log_router.hh"
#include "persist/log_scrubber.hh"
#include "persist/recovery.hh"
#include "persist/sw_logging.hh"
#include "persist/txn_tracker.hh"
#include "sim/coro.hh"
#include "sim/event_queue.hh"
#include "sim/probe.hh"

namespace snf
{

/** Aggregated result statistics of one simulated run. */
struct RunStats
{
    Tick cycles = 0;
    std::uint64_t committedTx = 0;
    std::uint64_t abortedTx = 0;
    cpu::InstructionCounts instr;
    double ipc = 0.0;
    double txPerMcycle = 0.0;

    std::uint64_t nvramReads = 0;
    std::uint64_t nvramWrites = 0;
    std::uint64_t nvramReadBytes = 0;
    std::uint64_t nvramWriteBytes = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;

    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;

    std::uint64_t logRecords = 0;
    std::uint64_t logWraps = 0;
    std::uint64_t logBufferStalls = 0;
    std::uint64_t fwbScans = 0;
    std::uint64_t fwbWritebacks = 0;

    std::uint64_t orderViolations = 0;
    std::uint64_t overwriteHazards = 0;

    // Log-full activity: reclaims that forced the oldest slot's
    // guarded line back to NVRAM.
    std::uint64_t forcedWritebacks = 0;
    /** Cycles appends waited for those forced write-backs
     *  (log.reclaim_wait_cycles summed over every region). */
    std::uint64_t reclaimWaitCycles = 0;
    /** Always 0: kept only for snfbench/, until ROADMAP item 7. */
    std::uint64_t logFullStalls = 0;
    /** Always 0: kept only for snfbench/, until ROADMAP item 7. */
    std::uint64_t logFullEscalations = 0;

    // Concurrency-control layer (zero unless PersistConfig::ccMode).
    std::uint64_t ccLockWaits = 0;
    std::uint64_t ccDeadlockAborts = 0;
    std::uint64_t ccValidationFailures = 0;

    // NVRAM media faults injected by the fault model (zero unless
    // MemDeviceConfig::faults is enabled).
    std::uint64_t faultsInjected = 0;
    /** Bytes the enabled injector examined inside its scope — a
     *  write path that bypasses it examines nothing, so parity tests
     *  can assert coverage structurally. */
    std::uint64_t faultExaminedBytes = 0;

    // Online log scrubber (lifelab; zero unless PersistConfig::scrub).
    std::uint64_t scrubSlotsScanned = 0;
    std::uint64_t scrubReadBytes = 0;
    std::uint64_t scrubWriteBytes = 0;
    std::uint64_t scrubRepairs = 0;
    std::uint64_t scrubPromotions = 0;
    /** Lines promoted into the persistent bad-line remap table. */
    std::uint64_t remappedLines = 0;

    // Simulator internals (speedlab): host-side hot-path activity of
    // the run. Deterministic for a given spec, so the perf bench
    // gates on these instead of wall-clock.
    std::uint64_t eventsScheduled = 0;
    std::uint64_t eventsExecuted = 0;
    /** Always 0: kept only for snfbench/, until ROADMAP item 7. */
    std::uint64_t eventHeapSpills = 0;
    /** Always 0: kept only for snfbench/, until ROADMAP item 7. */
    std::uint64_t callbackHeapAllocs = 0;
    /** Crash-journal entries accumulated (0 unless crashJournal). */
    std::uint64_t journalEntries = 0;

    energy::EnergyBreakdown energy;
};

/** See file comment. */
class System
{
  public:
    System(const SystemConfig &config, PersistMode mode);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    PersistMode mode() const { return persistMode; }

    const SystemConfig &config() const { return cfg; }

    mem::MemorySystem &mem() { return *memory; }

    const mem::MemorySystem &mem() const { return *memory; }

    PersistentHeap &heap() { return *pheap; }

    BumpAllocator &dramHeap() { return *dheap; }

    /** Log regions: AddressMap::logShards of config().map, as
     *  resolved from PersistConfig::logShards for this mode (1 unless
     *  the log is split per core or per address). */
    std::size_t logPartitionCount() const { return logRegions.size(); }

    persist::LogRegion &logPartition(std::size_t i)
    {
        return *logRegions[i];
    }

    persist::TxnTracker &txns() { return txnTracker; }

    sim::EventQueue &events() { return eventQueue; }

    cpu::Scheduler &scheduler() { return threadScheduler; }

    Thread &thread(CoreId id) { return *threads[id]; }

    std::uint32_t numCores() const { return cfg.numCores; }

    /** Bind a workload coroutine to core @p id. */
    void spawn(CoreId id,
               const std::function<sim::Co<void>(Thread &)> &fn);

    /**
     * Run to completion of all spawned threads, or to @p stopAt
     * (crash instant). @return the final simulated tick.
     */
    Tick run(Tick stopAt = kTickNever);

    /** Write back all volatile state (graceful shutdown). */
    Tick flushAll(Tick now);

    /**
     * Snapshot the NVRAM image as of @p at (requires
     * PersistConfig::crashJournal).
     */
    mem::BackingStore crashSnapshot(Tick at) const;

    /**
     * Adopt @p image as this system's NVRAM contents (lifelab resume
     * path): the backing store takes the recovered image, the remap
     * table is reloaded from it, and every log region re-installs a
     * pristine header matching its (empty) volatile state. Caches and
     * the crash journal restart cold, so the adopted image is the
     * tick-0 state of the new generation.
     */
    void adoptNvramImage(const mem::BackingStore &image);

    /**
     * Install a crash-tooling probe across every event source: the
     * log buffers (LogDrain, CommitDurable), the bus monitor
     * (DataWriteback), the WCB (WcbFlush), the FWB engine (FwbScan)
     * and the thread API (TxBegin, TxCommit, CommitDurable for the
     * clwb+fence software modes). Pass an empty function to detach.
     */
    void setProbe(sim::ProbeFn p);

    /** The installed probe (empty unless setProbe was called). */
    const sim::ProbeFn &probe() const { return probeFn; }

    /** Aggregate statistics as of tick @p cycles. */
    RunStats collectStats(Tick cycles) const;

    /** Dump every component's statistics. */
    void dumpStats(std::ostream &os);

    // --- internal accessors for Thread ---------------------------

    /**
     * Drain every volatile log staging structure (hardware log-buffer
     * FIFOs, software WCB) so all appended records are readable from
     * NVRAM. Used by tx_abort before collecting undo values.
     */
    Tick drainLogs(Tick now);

    /** Undo entries of @p txSeq across all log partitions, newest
     *  first (see LogRegion::collectUndo). */
    std::vector<persist::LogRegion::UndoEntry>
    collectUndo(std::uint64_t txSeq) const;

    persist::HwlEngine *hwl() { return hwlEngine.get(); }

    persist::SwLogging *swlog() { return swLogging.get(); }

    persist::FwbEngine *fwb() { return fwbEngine.get(); }

    persist::LogScrubber *scrub() { return scrubber.get(); }

    /** Log buffer of region @p index (null under software and
     *  non-logging modes, which have none). */
    persist::LogBuffer *logBuffer(std::size_t index = 0)
    {
        return index < logBufs.size() ? logBufs[index].get() : nullptr;
    }

  private:
    SystemConfig cfg;
    PersistMode persistMode;
    sim::EventQueue eventQueue;
    std::unique_ptr<mem::MemorySystem> memory;
    std::unique_ptr<PersistentHeap> pheap;
    std::unique_ptr<BumpAllocator> dheap;
    persist::TxnTracker txnTracker;
    std::vector<std::unique_ptr<persist::LogRegion>> logRegions;
    std::vector<std::unique_ptr<persist::LogBuffer>> logBufs;
    std::unique_ptr<persist::HwlEngine> hwlEngine;
    std::unique_ptr<persist::SwLogging> swLogging;
    std::unique_ptr<persist::FwbEngine> fwbEngine;
    std::unique_ptr<persist::LogScrubber> scrubber;
    cpu::Scheduler threadScheduler;
    std::vector<std::unique_ptr<Thread>> threads;
    std::vector<sim::Co<void>> rootCoros;
    sim::ProbeFn probeFn;
};

} // namespace snf

#endif // SNF_CORE_SYSTEM_HH
