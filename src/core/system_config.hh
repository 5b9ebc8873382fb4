/**
 * @file
 * System configuration structures and the paper's Table II presets.
 *
 * All timing is expressed in core clock cycles at 2.5 GHz (0.4 ns per
 * cycle, kClockGhz), matching the paper's processor configuration.
 */

#ifndef SNF_CORE_SYSTEM_CONFIG_HH
#define SNF_CORE_SYSTEM_CONFIG_HH

#include <cstddef>
#include <cstdint>

#include "sim/types.hh"

namespace snf
{

/** Core clock of every simulated machine (paper Table II). */
inline constexpr double kClockGhz = 2.5;

/** The persistence scheme a run executes under (paper Section VI). */
enum class PersistMode
{
    NonPers,    ///< no persistence, no logging (ideal bound)
    UnsafeRedo, ///< software redo logging, no clwb (no guarantee)
    UnsafeUndo, ///< software undo logging, no clwb (no guarantee)
    RedoClwb,   ///< software redo logging + clwb + fences
    UndoClwb,   ///< software undo logging + clwb at commit
    HwRlog,     ///< hardware redo-only logging, no persistence guarantee
    HwUlog,     ///< hardware undo-only logging, no persistence guarantee
    Hwl,        ///< hardware undo+redo logging + software clwb at commit
    Fwb,        ///< full design: HWL + hardware force write-back
};

/** Human-readable short name, matching the paper's legend. */
const char *persistModeName(PersistMode mode);

/** All modes in paper presentation order. */
inline constexpr PersistMode kAllModes[] = {
    PersistMode::NonPers,   PersistMode::UnsafeRedo,
    PersistMode::UnsafeUndo, PersistMode::RedoClwb,
    PersistMode::UndoClwb,  PersistMode::HwRlog,
    PersistMode::HwUlog,    PersistMode::Hwl,
    PersistMode::Fwb,
};

/** True for modes whose logging runs in hardware (HWL paths). */
bool isHardwareLogging(PersistMode mode);

/** True for modes that inject software logging instructions. */
bool isSoftwareLogging(PersistMode mode);

/**
 * True for modes whose log carries undo values, i.e. the only modes
 * where tx_abort() can roll stolen data back (Section II-B: redo-only
 * logging cannot tolerate steal). Workloads with aborting
 * transactions must skip them under the other modes.
 */
bool supportsAbort(PersistMode mode);

/** Geometry and latency of one cache level. */
struct CacheConfig
{
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t ways = 8;
    std::uint32_t lineBytes = 64;
    std::uint32_t latency = 4; ///< access latency in cycles

    std::uint32_t numLines() const { return sizeBytes / lineBytes; }

    std::uint32_t numSets() const { return numLines() / ways; }
};

/**
 * Deterministic NVRAM media-fault model (faultlab). All decisions are
 * pure hashes of (seed, line address, tick), so a run is bit-exact
 * reproducible per seed. Faults apply to the accepted-write path of a
 * device: the timing/energy model still charges the access, but the
 * bytes that land in the backing store may be damaged. Probabilities
 * are per 64-byte line written.
 */
struct FaultModelConfig
{
    std::uint64_t seed = 0;
    double bitFlipProb = 0.0;   ///< flip one bit in a written line
    double multiBitProb = 0.0;  ///< flip two distinct bits in a line
    double stuckRowProb = 0.0;  ///< row sticks: one word wedged per row
    double dropWriteProb = 0.0; ///< accepted write silently dropped
    double tornLineProb = 0.0;  ///< only the first 32 B of a line land
    /** Restrict injection to [regionBase, regionBase+regionSize). */
    Addr regionBase = 0;
    std::uint64_t regionSize = 0; ///< 0 = whole device

    bool
    enabled() const
    {
        return bitFlipProb > 0.0 || multiBitProb > 0.0 ||
               stuckRowProb > 0.0 || dropWriteProb > 0.0 ||
               tornLineProb > 0.0;
    }

    /** No injected faults (the default). */
    static FaultModelConfig none() { return FaultModelConfig{}; }

    /** Rare single-bit upsets, the common PCM field-failure mode. */
    static FaultModelConfig
    light(std::uint64_t seed)
    {
        FaultModelConfig f;
        f.seed = seed;
        f.bitFlipProb = 1e-4;
        return f;
    }

    /** Aggressive mixed-mode damage for stress testing recovery. */
    static FaultModelConfig
    heavy(std::uint64_t seed)
    {
        FaultModelConfig f;
        f.seed = seed;
        f.bitFlipProb = 1e-3;
        f.multiBitProb = 2e-4;
        f.dropWriteProb = 2e-4;
        f.tornLineProb = 2e-4;
        return f;
    }
};

/** Timing/energy model of a memory device (DRAM or NVRAM DIMM). */
struct MemDeviceConfig
{
    std::uint64_t sizeBytes = 8ULL << 30;
    std::uint32_t banks = 8;
    std::uint32_t rowBytes = 2048;
    std::uint32_t rowHitLat = 90;        ///< 36 ns row-buffer hit
    std::uint32_t readConflictLat = 250; ///< 100 ns read conflict
    std::uint32_t writeConflictLat = 750;///< 300 ns write conflict
    std::uint32_t burstCycles = 8;       ///< channel occupancy / 64B

    // Energy coefficients, pJ per bit (paper Table II, PCM [44]).
    double rowReadPjBit = 0.93;
    double rowWritePjBit = 1.02;
    double arrayReadPjBit = 2.47;
    double arrayWritePjBit = 16.82;

    /** Media-fault injection (faultlab); disabled by default. */
    FaultModelConfig faults;

    /**
     * Bad-line remapping (lifelab): geometry of the persistent remap
     * table and its spare-line area on this device. Zero sizes (the
     * default) disable remapping entirely. Populated by the System
     * from AddressMap::remapBase()/spareBase() for the NVRAM device.
     */
    Addr remapBase = 0;
    std::uint64_t remapSize = 0;
    Addr spareBase = 0;
    std::uint64_t spareSize = 0;
};

/**
 * Concurrency control over shared transactional data (the tx_load64 /
 * tx_store64 thread API). The paper's evaluation keeps transaction
 * footprints thread-disjoint, so the seed workloads ran without any
 * CC; workloads that contend on cache lines must pick a scheme, since
 * in-place updates with steal mean two writers to one line would
 * corrupt each other's undo values.
 */
enum class CcMode
{
    /**
     * No concurrency control: tx_store64/tx_load64 degenerate to the
     * plain ops. Only sound for thread-disjoint footprints.
     */
    None,
    /**
     * Strict two-phase locking at cache-line granularity: reads and
     * writes take the line's exclusive lock at encounter time and
     * hold it to commit/abort. A lock wait that would close a cycle
     * in the waits-for graph aborts the requester (deadlock
     * avoidance with guaranteed progress).
     */
    TwoPhase,
    /**
     * TL2-style optimistic reads: writes still take encounter-time
     * exclusive line locks (steal makes that mandatory), but reads
     * only record the line's commit version and revalidate at
     * commit, diverting to tx_abort() on conflict.
     */
    Tl2,
};

/** Printable name of a CcMode. */
const char *ccModeName(CcMode mode);

/** Persistence machinery parameters (Sections III and IV). */
struct PersistConfig
{
    std::uint32_t logBufferEntries = 15;  ///< volatile FIFO in the MC
    /**
     * FWB scan period in cycles; 0 selects the automatic derivation
     * from log size and NVRAM write bandwidth (Section IV-D).
     */
    Tick fwbPeriod = 0;
    /** Record write journal in NVRAM for crash snapshots. */
    bool crashJournal = false;
    /**
     * Ablation only: drop the memory controller's FIFO ordering of
     * log writes ahead of data write-backs. Violates the inherent
     * log-before-data guarantee (bench/ablation_ordering).
     */
    bool disableWbBarrier = false;
    /**
     * Crash-tooling self-test only: keep the write-back barrier's
     * timing (the run is cycle-identical) but journal each NVRAM data
     * write-back as issued *before* the barrier wait — modeling a
     * controller that posts the write-back into the ADR domain
     * without waiting for log-drain acceptance. Completion order
     * still happens to be log-first, so the linear-prefix crash sweep
     * sees nothing; only the persist-ordering adversary (reorderlab),
     * which explores legal completion orders of concurrently pending
     * writes, can catch the skipped ordering edge.
     */
    bool injectSkipWbBarrier = false;
    /**
     * The log layout (shardlab; paper Section III-F): the log area is
     * split into equal circular regions, and a record picks its region
     * by data-line address or by core. persist::resolveLogLayout()
     * turns this value and the persistence mode into the region count
     * (AddressMap::logShards) and the routing; nothing else reads it.
     *
     * 1 (the default) is the single central log, byte-identical to
     * the pre-shard layout. 2-64 are address shards, each modeling
     * one memory controller's slice of the line-address space: every
     * update record for a data line lands in the shard owning that
     * line (shard = (line >> 6) mod logShards), so per-address record
     * order is preserved within one shard, and a transaction touching
     * more than one shard commits through a two-phase protocol
     * (prepare records in every other participant shard, then one
     * commit record in the lowest carrying the participation mask).
     *
     * kPerCoreLogs is the distributed per-thread logs: one region per
     * core, each with its own log buffer, records routed by core.
     * Only hardware-logging modes split the log that way; the
     * software baselines keep one central log. Persistent data
     * written by transactions must then be thread-private (the
     * paper's one-transaction-stream-per-thread model, Figure 4):
     * committed writes to shared addresses from different regions
     * have no recovery-time order without a global LSN. runWorkload
     * enforces it through Workload::threadPrivate().
     */
    std::uint32_t logShards = 1;
    /** logShards value selecting one log region per core. */
    static constexpr std::uint32_t kPerCoreLogs = 0xffffffffu;
    /**
     * Crash-tooling self-test only: the owner-shard commit record of
     * a cross-shard transaction is written with a participation mask
     * naming only the owner shard (cycle timing unchanged). Recovery
     * then redoes the owner shard's updates but treats every other
     * participant's prepared generation as unresolved and undoes it —
     * a mixed half-committed image the sharded crash sweep and the
     * conformlab differential must catch.
     */
    bool injectSkipShardMask = false;

    /** Concurrency control for the tx_load64/tx_store64 API. */
    CcMode ccMode = CcMode::None;

    /**
     * Online log scrubber (lifelab): piggybacks on the FWB cadence
     * (or an equivalent self-scheduled period under non-FWB modes) to
     * CRC-walk a chunk of the log window in the background, rewriting
     * correctable slots, retiring uncorrectable dead ones, and
     * promoting repeat-offender lines into the bad-line remap table.
     */
    bool scrub = false;
};

/** Physical address map of the simulated machine. */
struct AddressMap
{
    Addr dramBase = 0;
    std::uint64_t dramSize = 1ULL << 30;
    Addr nvramBase = 0x100000000ULL; ///< 4 GB boundary
    std::uint64_t nvramSize = 8ULL << 30;
    /** Size of the circular log (paper: 4 MB), which lives at the
     *  bottom of NVRAM; the one log-size setting. */
    std::uint64_t logSize = 4ULL << 20;
    /**
     * Number of equal circular log regions the log area is split into
     * (1 = centralized). System sets it at construction from
     * persist::resolveLogLayout(): per-core regions or address
     * shards. Recovery, faultlab and the invariant checkers iterate
     * regions through it and treat both layouts alike.
     */
    std::uint32_t logShards = 1;
    /**
     * Bad-line remap table region (lifelab), directly above the log:
     * two CRC-protected banks of mapping entries. 0 (the default)
     * disables remapping and keeps the pre-lifelab address map.
     */
    std::uint64_t remapSize = 0;
    /** Spare-line area the remap table hands lines out of. */
    std::uint64_t spareSize = 0;

    bool
    isNvram(Addr a) const
    {
        return a >= nvramBase && a < nvramBase + nvramSize;
    }

    bool
    isDram(Addr a) const
    {
        return a >= dramBase && a < dramBase + dramSize;
    }

    Addr logBase() const { return nvramBase; }

    /** Bytes of each of the logShards log regions. */
    std::uint64_t
    logRegionBytes() const
    {
        return logSize / (logShards > 0 ? logShards : 1);
    }

    /** First byte of log region @p s (its header). */
    Addr
    logRegionBase(std::uint32_t s) const
    {
        return logBase() + s * logRegionBytes();
    }

    /** Remap-table region: NVRAM after the log. */
    Addr remapBase() const { return nvramBase + logSize; }

    /** Spare-line area: after the remap table. */
    Addr spareBase() const { return remapBase() + remapSize; }

    /** First heap address: NVRAM after log + remap + spares. */
    Addr heapBase() const { return spareBase() + spareSize; }
};

/** Complete configuration of one simulated system. */
struct SystemConfig
{
    std::uint32_t numCores = 4;

    CacheConfig l1;
    CacheConfig l2;
    MemDeviceConfig nvram;
    MemDeviceConfig dram;
    PersistConfig persist;
    AddressMap map;

    /** Paper Table II configuration (4 cores, 32 KB L1, 8 MB L2). */
    static SystemConfig paper(std::uint32_t cores = 4);

    /**
     * Proportionally scaled-down configuration for fast tests and
     * sweeps: smaller caches and log, same ratios and latencies.
     */
    static SystemConfig scaled(std::uint32_t cores = 4);

    /** Validate internal consistency; fatal() on bad values. */
    void validate() const;
};

} // namespace snf

#endif // SNF_CORE_SYSTEM_CONFIG_HH
