/**
 * @file
 * snfsoak — multi-generation crash → recover → resume soak driver
 * (lifelab). Each generation runs a resumable workload on the image
 * the previous generation's recovery left behind, crashes it at a
 * deterministically chosen instant, optionally damages the snapshot
 * (faultlab image faults), recovers with bad-line promotion, and
 * re-checks I1–I8 plus the lifecycle invariants: recovery
 * re-entrancy, recovered-durability (I9), remap-table validity and
 * superblock continuity.
 *
 * `snfsoak --help` lists every flag. Exit status: 0 when every
 * generation passed every invariant, 1 otherwise (CI gates on it).
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/flags.hh"
#include "crashlab/lifecycle.hh"
#include "crashlab/report.hh"
#include "sim/json.hh"
#include "workloads/driver.hh"

using namespace snf;
using namespace snf::crashlab;
using namespace snf::workloads;

int
main(int argc, char **argv)
{
    LifecycleConfig cfg;
    cfg.run.workload = "sps";
    cfg.run.mode = PersistMode::Fwb;
    cfg.run.params.threads = 2;
    cfg.run.params.txPerThread = 300;
    PersistConfig persist; // the presets leave it at its defaults
    persist.scrub = true;
    bool list = false;
    std::string benchJsonPath;

    FlagSet flags("snfsoak");
    flags.addChoice("--workload W", &cfg.run.workload,
                    nameChoices(allWorkloadNames()),
                    "resumable workload (default sps)");
    flags.addChoice("--mode M", &cfg.run.mode, persistModeChoices(),
                    "persistence mode (default fwb)");
    flags.addCount("--threads N", &cfg.run.params.threads,
                   "workload threads (default 2)", 1, 64);
    flags.addCount("--tx N", &cfg.run.params.txPerThread,
                   "transactions per thread per generation (300)", 1);
    flags.addCount("--footprint N", &cfg.run.params.footprint,
                   "elements in the initial structure", 1);
    flags.addCount("--seed N", &cfg.seed,
                   "base seed of the workload and the crash choice");
    flags.addCount("--generations N", &cfg.generations,
                   "generations to run (default 5)", 1);
    flags.addCount("--jobs N", &cfg.jobs,
                   "re-entrancy probe workers; 0 = one per hw thread");
    flags.addCount("--log-shards N", &persist.logShards,
                   "log shards, cross-shard commit (default 1)", 1, 64);
    flags.addString("--bench-json FILE", &benchJsonPath,
                    "write the perf trajectory (snfcrash's schema)");
    // Image damage per generation; damaged lines persist across
    // generations through the remap table.
    addImageFaultFlags(flags, &cfg.imageFaults);
    flags.addCount("--sabotage-remap G", &cfg.sabotageGeneration,
                   "self-test: corrupt both remap banks at gen G");
    flags.addSwitch("--no-reentrancy", &cfg.checkReentrancy,
                    "skip the interrupted-recovery check", false);
    flags.addCount("--reentrancy-budgets N", &cfg.reentrancyBudgets,
                   "interior write budgets probed (default 4)");
    flags.addSwitch("--no-scrub", &persist.scrub,
                    "disable the online log scrubber", false);
    flags.addSwitch("--list", &list, "list workloads and modes, exit");
    flags.parse(argc, argv);

    if (list) {
        std::printf("workloads:");
        for (const auto &w : allWorkloadNames())
            std::printf(" %s", w.c_str());
        std::printf("\nmodes:");
        for (PersistMode m : kAllModes)
            std::printf(" %s", persistModeName(m));
        std::printf("\n");
        return 0;
    }

    std::uint32_t threads = cfg.run.params.threads;
    cfg.run.params.seed = cfg.seed;
    cfg.run.sys = SystemConfig::scaled(threads);
    cfg.run.sys.persist = persist;

    std::printf("snfsoak: workload=%s mode=%s threads=%u tx/gen=%llu "
                "generations=%u jobs=%zu%s%s%s\n",
                cfg.run.workload.c_str(),
                persistModeName(cfg.run.mode), threads,
                static_cast<unsigned long long>(
                    cfg.run.params.txPerThread * threads),
                cfg.generations, resolveJobs(cfg.jobs),
                cfg.jobs == 0 ? " (auto)" : "",
                cfg.imageFaults.enabled() ? " (image faults)" : "",
                cfg.sabotageGeneration != LifecycleConfig::kNoSabotage
                    ? " (SABOTAGE self-test)"
                    : "");

    LifecycleResult res = runLifecycle(cfg);

    for (const GenerationResult &g : res.generations) {
        std::printf(
            "gen %u: crash@%llu/%llu committed=%llu wraps=%llu "
            "faulted=%llu salvaged=%llu quarantined=%llu "
            "remap=%llu scrub-repairs=%llu violations=%zu\n",
            g.generation,
            static_cast<unsigned long long>(g.crashTick),
            static_cast<unsigned long long>(g.endTick),
            static_cast<unsigned long long>(g.committedTx),
            static_cast<unsigned long long>(g.logWraps),
            static_cast<unsigned long long>(g.slotsFaulted),
            static_cast<unsigned long long>(g.recovery.salvagedTxns),
            static_cast<unsigned long long>(
                g.recovery.quarantinedTxns),
            static_cast<unsigned long long>(g.remapEntries),
            static_cast<unsigned long long>(g.scrubRepairs),
            g.violations.size());
        for (const Violation &v : g.violations)
            std::printf("  VIOLATION %s: %s\n", v.invariant.c_str(),
                        v.detail.c_str());
    }

    if (!benchJsonPath.empty()) {
        // Same BENCH_sweep.json schema as snfcrash: one cell whose
        // perf block is the soak's whole-lifecycle totals.
        CellResult cell;
        cell.workload = cfg.run.workload;
        cell.mode = cfg.run.mode;
        cell.seed = cfg.seed;
        cell.threads = threads;
        cell.txPerThread = cfg.run.params.txPerThread;
        cell.sweep.pointsTested = res.generations.size();
        cell.sweep.perf = res.perf;
        std::vector<CellResult> cells;
        cells.push_back(std::move(cell));
        writePerfSummary(std::cout, cells.front());
        writeReport(benchJsonPath, [&cells](std::ostream &os) {
            writeBenchJson(os, "snfsoak", cells);
        });
    }

    std::printf("snfsoak: %zu generation(s), %llu violation(s)%s\n",
                res.generations.size(),
                static_cast<unsigned long long>(res.totalViolations()),
                res.aborted ? " — ABORTED (untrusted remap table)"
                            : "");
    return res.passed() ? 0 : 1;
}
