/**
 * @file
 * snfcrash — systematic crash-point sweep and failure-atomicity
 * checker. Runs each (workload, mode, seed) cell once with full
 * instrumentation, harvests every interesting crash instant
 * (log-buffer drains, cache/WCB write-backs, FWB pass boundaries,
 * transaction commits), then recovers and verifies the NVRAM image
 * at each of them in parallel. Failures are minimized to the
 * earliest failing tick.
 *
 * Each --inject-* switch breaks one piece of the machine or of
 * recovery on purpose, as a self-test the sweep must catch. The
 * skipped write-back barrier keeps cycle timing identical, so only
 * --reorder (legal orders of concurrently pending writes) sees it.
 * `snfcrash --help` lists every flag. Exit status: 0 when every cell
 * passed, 1 otherwise (CI gates on it).
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/flags.hh"
#include "crashlab/report.hh"
#include "crashlab/sweep.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "workloads/driver.hh"

using namespace snf;
using namespace snf::crashlab;
using namespace snf::workloads;

int
main(int argc, char **argv)
{
    std::vector<std::string> workloadNames{"sps"};
    std::vector<PersistMode> modes{PersistMode::Fwb};
    std::vector<std::uint64_t> seeds{1};
    WorkloadParams params;
    params.threads = 2;
    params.txPerThread = 50;
    SweepConfig base;
    PersistConfig &persist = base.run.sys.persist;
    std::string jsonPath;
    std::string benchJsonPath;
    bool list = false;

    FlagSet::Choices<PersistMode> modeChoices = persistModeChoices();
    for (PersistMode m : kAllModes)
        if (guaranteesFailureAtomicity(m))
            modeChoices.emplace_back("all", m);

    FlagSet flags("snfcrash");
    flags.addChoiceList("--workload W[,W...]", &workloadNames,
                        nameChoices(allWorkloadNames()),
                        "workloads (default sps)");
    flags.addChoiceList("--mode M[,M...]", &modes, modeChoices,
                        "modes; all = every failure-atomic one (fwb)");
    flags.addCountList("--seed N[,N...]", &seeds,
                       "workload RNG seeds (default 1)");
    flags.addCount("--threads N", &params.threads,
                   "workload threads (default 2)", 1, 64);
    flags.addCount("--tx N", &params.txPerThread,
                   "transactions per thread (default 50)", 1);
    flags.addCount("--footprint N", &params.footprint,
                   "elements in the initial structure", 1);
    flags.addCount("--warehouses N", &params.warehouses,
                   "oltp-tpcc warehouse count", 1);
    flags.addReal("--zipf-theta X", &params.zipfTheta,
                  "oltp-ycsb Zipf skew", 0.0, 1.0);
    flags.addProbability("--conflict-rate R", &params.conflictRate,
                         "prog: shared-region op share (2PL by default)");
    flags.addChoice("--cc 2pl|tl2|none", &persist.ccMode,
                    ccModeChoices(), "concurrency control");
    flags.addCount("--jobs N", &base.jobs,
                   "crash-point workers; 0 = one per hardware thread");
    flags.addCount("--max-points N", &base.maxPoints,
                   "sample N crash points per cell (0 = all)");
    flags.addCount("--sample-seed N", &base.sampleSeed,
                   "seed of the crash-point sampling");
    flags.addString("--json FILE", &jsonPath,
                    "write the JSON report (- = stdout)");
    flags.addString("--bench-json FILE", &benchJsonPath,
                    "write the perf trajectory, print perf summaries");
    flags.addSwitch("--no-minimize", &base.minimizeFailures,
                    "skip bisection of failing points", false);
    addImageFaultFlags(flags, &base.imageFaults);
    // lifelab (extends I8): interrupt recovery at every N-th interior
    // NVRAM write, re-run it, and require byte-for-byte convergence.
    flags.addCount("--sweep-recovery N", &base.recoverySweepStride,
                   "also crash recovery every N-th write (0 = off)");
    // reorderlab: every legal completion order of the in-flight
    // persist set — exhaustive order ideals while the pending set is
    // small, seeded random linearization cuts otherwise.
    flags.addSwitch("--reorder", &base.reorder.enabled,
                    "also test legal orders of in-flight persists");
    flags.addCount("--reorder-samples N", &base.reorder.samples,
                   "sampled orders above the bound (default 32)");
    flags.addCount(
        "--reorder-bound N", &base.reorder.exhaustiveBound,
        "exhaustive up to N pending (default 6, max " +
            std::to_string(crashlab::ReorderConfig::kMaxExhaustiveBound) +
            ")",
        0, crashlab::ReorderConfig::kMaxExhaustiveBound);
    flags.addCount("--reorder-seed N", &base.reorder.seed,
                   "seed of the sampled orders");
    flags.addChoice("--torn-lines 0|1", &base.reorder.tornLines,
                    {{"0", false}, {"1", true}},
                    "also tear each image's last pending line (1)");
    flags.addSwitch("--inject-skip-wb-barrier",
                    &persist.injectSkipWbBarrier,
                    "self-test: write-backs skip the drain barrier");
    flags.addSwitch("--inject-skip-undo", &base.recovery.faultSkipUndo,
                    "self-test: recovery skips the undo phase");
    flags.addSwitch("--inject-skip-redo", &base.recovery.faultSkipRedo,
                    "self-test: recovery skips the redo phase");
    flags.addSwitch("--inject-ignore-crc",
                    &base.recovery.faultIgnoreCrc,
                    "self-test: recovery trusts slots unchecked");
    flags.addCount("--log-shards N", &persist.logShards,
                   "shardlab: N address-interleaved log shards", 1, 64);
    flags.addCount("--fault-kill-shard N", &base.imageFaults.killShard,
                   "wipe shard N's log in every snapshot", 0, 63);
    // Cross-shard commit records name only their owner shard, so
    // recovery mixes redone and rolled-back slices.
    flags.addSwitch("--inject-skip-shard-mask",
                    &persist.injectSkipShardMask,
                    "self-test: drop the commit participation mask");
    flags.addSwitch("--list", &list, "list workloads and modes, exit");
    flags.parse(argc, argv);

    if (list) {
        std::printf("workloads:");
        for (const auto &w : allWorkloadNames())
            std::printf(" %s", w.c_str());
        std::printf("\nmodes:");
        for (PersistMode m : kAllModes)
            std::printf(" %s%s", persistModeName(m),
                        guaranteesFailureAtomicity(m) ? "*" : "");
        std::printf("\n(* = failure-atomic, covered by "
                    "--mode all)\n");
        return 0;
    }
    // Contended programs need a CC scheme to serialize; an explicit
    // --cc wins in either flag order.
    if (flags.given("--conflict-rate") && !flags.given("--cc"))
        persist.ccMode = CcMode::TwoPhase;
    if (persist.injectSkipShardMask && persist.logShards < 2)
        fatal("--inject-skip-shard-mask needs --log-shards > 1");
    if (base.imageFaults.killShard >= 0 &&
        static_cast<std::uint32_t>(base.imageFaults.killShard) >=
            persist.logShards)
        fatal("--fault-kill-shard %d needs --log-shards > %d",
              base.imageFaults.killShard, base.imageFaults.killShard);

    std::printf("snfcrash: jobs=%zu%s\n", resolveJobs(base.jobs),
                base.jobs == 0 ? " (auto: one per hardware thread)"
                               : "");

    std::vector<CellResult> cells;
    for (const auto &wl : workloadNames) {
        for (PersistMode mode : modes) {
            for (std::uint64_t seed : seeds) {
                SweepConfig cfg = base;
                cfg.run.workload = wl;
                cfg.run.mode = mode;
                cfg.run.params = params;
                cfg.run.params.seed = seed;

                CellResult cell;
                cell.workload = wl;
                cell.mode = mode;
                cell.seed = seed;
                cell.threads = params.threads;
                cell.txPerThread = params.txPerThread;
                cell.sweep = runCrashSweep(cfg);
                writeTextSummary(std::cout, cell);
                if (!benchJsonPath.empty())
                    writePerfSummary(std::cout, cell);
                cells.push_back(std::move(cell));
            }
        }
    }

    if (!jsonPath.empty())
        writeReport(jsonPath, [&cells](std::ostream &os) {
            writeJsonReport(os, cells);
        });
    if (!benchJsonPath.empty())
        writeReport(benchJsonPath, [&cells](std::ostream &os) {
            writeBenchJson(os, "snfcrash", cells);
        });

    std::size_t failed = 0;
    for (const auto &c : cells)
        if (!c.sweep.passed())
            ++failed;
    std::printf("%zu/%zu cells passed\n", cells.size() - failed,
                cells.size());
    return failed == 0 ? 0 : 1;
}
