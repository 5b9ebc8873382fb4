/**
 * @file
 * The crash-point sweep: run one workload cell once with probe
 * instrumentation and the NVRAM write journal enabled, harvest the
 * interesting crash instants from the probe trace, then evaluate
 * every harvested point in parallel — snapshot the NVRAM image at
 * that tick, recover it, and run the invariant checker library
 * (crashlab/invariants.hh). Failing points are minimized to the
 * earliest failing tick by bisection.
 *
 * Key property making this cheap: BackingStore::snapshotAt(t) over
 * the single journaled reference run reproduces exactly the image a
 * run stopped at tick t would leave, so one simulation supports an
 * arbitrary number of crash points, and evaluation parallelizes over
 * a const System.
 */

#ifndef SNF_CRASHLAB_SWEEP_HH
#define SNF_CRASHLAB_SWEEP_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "crashlab/faultlab.hh"
#include "crashlab/invariants.hh"
#include "crashlab/reorder.hh"
#include "crashlab/trace.hh"
#include "workloads/driver.hh"

namespace snf::crashlab
{

/** One sweep cell: a RunSpec plus sweep-specific knobs. */
struct SweepConfig
{
    /**
     * The workload cell to sweep, run once through
     * workloads::LiveCell. crashAt is ignored (the sweep picks its
     * own crash points); crashJournal and verifyAtEnd are forced on.
     */
    workloads::RunSpec run;
    /** Worker threads evaluating crash points; 0 = one per core. */
    std::size_t jobs = 0;
    /** Cap on evaluated points; 0 = all harvested. */
    std::size_t maxPoints = 0;
    /** Seed of the deterministic down-sampling of crash points. */
    std::uint64_t sampleSeed = 1;
    /** Recovery knobs, including snfcrash's fault injection. */
    persist::RecoveryOptions recovery;
    /** Bisect the earliest failing tick when a point fails. */
    bool minimizeFailures = true;
    /**
     * Media-fault injection into each evaluated crash snapshot
     * (faultlab). When enabled() the sweep evaluates the faulted
     * checker set (salvage idempotence, quarantine soundness, the
     * undamaged-set oracle) instead of the clean-image set.
     */
    ImageFaultConfig imageFaults;
    /**
     * Crash-during-recovery coverage (lifelab, extends I8): when
     * nonzero, every evaluated crash point additionally proves that
     * recovery is re-entrant — the pass is interrupted at every NVRAM
     * line-write budget that is a multiple of this stride, re-run,
     * and required to converge byte-for-byte with an uninterrupted
     * pass (1 = every interior write; see checkRecoveryReentrancy).
     */
    std::uint64_t recoverySweepStride = 0;
    /**
     * Persist-ordering adversary (reorderlab): when enabled, every
     * evaluated crash point additionally tests each legal
     * subset/linearization image of the pending persist set (plus
     * torn-line variants) through the same checker pipeline. Off by
     * default — reorder-off sweeps are bit-identical to the plain
     * prefix model.
     */
    ReorderConfig reorder;
};

/** Outcome of one evaluated crash point (kept for failures only). */
struct PointOutcome
{
    CrashPoint point;
    std::vector<Violation> violations;
    persist::RecoveryReport report;
    /** What the faulted evaluation damaged (empty when clean). */
    ImageFaultPlan plan;
    /**
     * The failing pending-persist ordering (ReorderImage::describe),
     * empty when the plain prefix image failed or reorder is off.
     */
    std::string reorderDetail;
};

/**
 * Per-phase wall-clock and engine counters of one sweep.
 * refRun/harvest/index/minimize/total are wall-clock; snapshot,
 * recover and check are summed across the evaluation workers (worker
 * CPU seconds), so with J jobs their sum can exceed totalSec.
 */
struct SweepPerf
{
    double refRunSec = 0;   ///< instrumented reference simulation
    double harvestSec = 0;  ///< trace finalize + harvest + sampling
    double indexSec = 0;    ///< journal sort
    double snapshotSec = 0; ///< crash-image reconstruction (workers)
    double recoverSec = 0;  ///< recovery passes inside checkers
    /** Recovery::run calls behind recoverSec (workers, and the
     *  re-entrancy probes' pool threads). */
    std::uint64_t recoverCalls = 0;
    double checkSec = 0;    ///< checker work minus recovery
    double verifySec = 0;   ///< the workload oracle, part of checkSec
    double minimizeSec = 0; ///< bisection of the earliest failure
    double totalSec = 0;    ///< whole runCrashSweep call
    /** Journaled NVRAM writes of the reference run. */
    std::uint64_t journalEntries = 0;
    /** Journal entries replayed across every snapshot taken. */
    std::uint64_t entriesReplayed = 0;
    /** Pages cloned by copy-on-write across the sweep. */
    std::uint64_t pagesCloned = 0;
    /** Worker threads actually used (after resolveJobs). */
    std::size_t jobsUsed = 0;
};

/** Everything one sweep produced. */
struct SweepResult
{
    Tick endTick = 0;
    std::size_t pointsHarvested = 0;
    std::size_t pointsTested = 0;
    std::size_t pointsFailed = 0;
    /** Failing points, in tick order. */
    std::vector<PointOutcome> failures;
    /** Reference (no-crash) run result. */
    bool refVerified = true;
    std::string refVerifyMessage;
    std::uint64_t refCommittedTx = 0;
    std::uint64_t refLogWraps = 0;
    /** Earliest failing tick found by the minimizer. */
    std::optional<Tick> minimizedTick;
    /** Violations + recovery report + log window at minimizedTick. */
    std::string minimizedDetail;
    /** Faulted sweeps: totals across every evaluated point. */
    std::uint64_t totalSalvaged = 0;
    std::uint64_t totalQuarantined = 0;
    std::uint64_t totalSlotsFaulted = 0;
    /** Sharded sweeps (logShards > 1): per-shard salvage totals
     *  across every evaluated point; empty otherwise. */
    struct ShardTotals
    {
        std::uint32_t shard = 0;
        std::uint64_t validRecords = 0;
        std::uint64_t salvagedTxns = 0;
        std::uint64_t quarantinedTxns = 0;
        std::uint64_t abortedDeadShard = 0;
        /** Evaluated points at which this shard was dead. */
        std::uint64_t deadPoints = 0;
    };
    std::vector<ShardTotals> shardTotals;
    /** Transactions aborted across all points because a dead shard
     *  intersected their participation mask. */
    std::uint64_t totalDeadShardAborted = 0;
    /** Reorder sweeps: adversary coverage accounting. */
    bool reorderEnabled = false;
    /** Reorder images evaluated across every crash point. */
    std::uint64_t reorderImagesTested = 0;
    /** Crash points with at least one pending persist. */
    std::uint64_t reorderPointsWithPending = 0;
    /** Largest pending set seen at any evaluated point. */
    std::uint64_t reorderMaxPending = 0;

    /** Phase timing and snapshot-engine counters. */
    SweepPerf perf;

    bool passed() const { return pointsFailed == 0 && refVerified; }
};

/**
 * Resolve a requested worker count: 0 means one per hardware thread
 * (std::thread::hardware_concurrency(), at least 1). Tools print the
 * resolved value in their report headers.
 */
std::size_t resolveJobs(std::size_t requested);

/** Run one sweep cell. fatal() on misconfiguration. */
SweepResult runCrashSweep(const SweepConfig &cfg);

} // namespace snf::crashlab

#endif // SNF_CRASHLAB_SWEEP_HH
