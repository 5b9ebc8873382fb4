/**
 * @file
 * snfsim — command-line front end to the simulator: run any bundled
 * workload under any persistence mode and print the full statistics,
 * optionally crashing mid-run and recovering. `--bench-json FILE`
 * ("-" = stdout) instead runs the reference workload×mode matrix at
 * the given --threads/--tx/--seed and writes the snf-bench-sim-v2
 * report (BENCH_sim.json); `--bench-repeats N` keeps each cell's best
 * wall time and aborts if any counter differs between repeats.
 * `snfsim --help` lists every flag.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/flags.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "workloads/driver.hh"

using namespace snf;
using namespace snf::workloads;

namespace
{

/** The deterministic counters block of a bench cell, in report
 *  order; every repeat must reproduce all of it. */
std::vector<std::pair<const char *, std::uint64_t>>
benchCounters(const RunStats &s)
{
    return {{"cycles", s.cycles},
            {"committed_tx", s.committedTx},
            {"instructions", s.instr.total},
            {"events_scheduled", s.eventsScheduled},
            {"events_executed", s.eventsExecuted},
            {"journal_entries", s.journalEntries}};
}

/**
 * Perf-bench mode: run the reference workload×mode matrix on @p
 * base's machine and parameters and write a snf-bench-sim-v2 report.
 * The counters block must repeat exactly (the simulator is
 * deterministic); wall-clock rates live in a separate "perf" block so
 * CI strips them before diffing.
 */
int
runBenchMatrix(const RunSpec &base, std::uint64_t repeats,
               const std::string &path)
{
    static const char *kWorkloads[] = {"sps", "hash", "btree",
                                       "oltp-ycsb", "oltp-tpcc"};
    static const PersistMode kModes[] = {
        PersistMode::Fwb, PersistMode::UndoClwb, PersistMode::RedoClwb,
        PersistMode::NonPers};

    std::ostringstream out;
    JsonWriter json(out);
    json.beginObject();
    json.field("schema", "snf-bench-sim-v2");
    json.field("tool", "snfsim");
    json.field("threads", base.params.threads);
    json.field("tx_per_thread", base.params.txPerThread);
    json.field("seed", base.params.seed);
    json.key("cells").beginArray();
    for (const char *w : kWorkloads) {
        for (PersistMode m : kModes) {
            RunSpec spec = base;
            spec.workload = w;
            spec.mode = m;
            // Journal NVRAM writes like a crash sweep would, so the
            // journal-entries counter is live and gateable.
            spec.sys.persist.crashJournal = true;

            RunStats s;
            bool verified = false;
            double bestSec = 0.0;
            for (std::uint64_t r = 0; r < repeats; ++r) {
                auto t0 = std::chrono::steady_clock::now();
                auto o = runWorkload(spec);
                auto t1 = std::chrono::steady_clock::now();
                double sec =
                    std::chrono::duration<double>(t1 - t0).count();
                if (r == 0) {
                    s = o.stats;
                    verified = o.verified;
                    bestSec = sec;
                } else {
                    bestSec = std::min(bestSec, sec);
                    if (benchCounters(o.stats) != benchCounters(s))
                        fatal("bench cell %s/%s not deterministic "
                              "across repeats",
                              w, persistModeName(m));
                }
            }
            if (!verified)
                fatal("bench cell %s/%s failed verification", w,
                      persistModeName(m));

            json.beginObject();
            json.field("workload", w);
            json.field("mode", persistModeName(m));
            json.key("counters").beginObject();
            for (const auto &[name, value] : benchCounters(s))
                json.field(name, value);
            json.end();
            json.key("perf").beginObject();
            json.field("wall_sec", bestSec);
            json.field("sim_tx_per_sec",
                       bestSec > 0.0
                           ? static_cast<double>(s.committedTx) / bestSec
                           : 0.0);
            json.field("events_per_sec",
                       bestSec > 0.0
                           ? static_cast<double>(s.eventsExecuted) /
                                 bestSec
                           : 0.0);
            json.end();
            json.end();
        }
    }
    json.end();
    json.end();

    writeReport(path, [&out](std::ostream &os) { os << out.str(); });
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    RunSpec spec;
    spec.workload = "sps";
    spec.mode = PersistMode::Fwb;
    spec.params.threads = 2;
    spec.params.txPerThread = 1000;
    bool dump = false;
    bool paper = false;
    bool perCoreLogs = false;
    bool list = false;
    Tick crashAt = 0;
    PersistConfig persist; // the presets leave it at its defaults
    FaultModelConfig faults;
    faults.seed = 1;
    std::string benchJsonPath;
    std::uint64_t benchRepeats = 1;

    FlagSet flags("snfsim");
    flags.addChoice("--workload NAME", &spec.workload,
                    nameChoices(allWorkloadNames()),
                    "workload (default sps)");
    flags.addChoice("--mode M", &spec.mode, persistModeChoices(),
                    "persistence mode (default fwb)");
    flags.addCount("--threads N", &spec.params.threads,
                   "workload threads (default 2)", 1, 64);
    flags.addCount("--tx N", &spec.params.txPerThread,
                   "transactions per thread (default 1000)", 1);
    flags.addCount("--footprint N", &spec.params.footprint,
                   "elements in the initial structure", 1);
    flags.addCount("--warehouses N", &spec.params.warehouses,
                   "oltp-tpcc warehouse count", 1);
    flags.addReal("--zipf-theta X", &spec.params.zipfTheta,
                  "oltp-ycsb Zipf skew", 0.0, 1.0);
    flags.addChoice("--cc 2pl|tl2|none", &persist.ccMode, ccModeChoices(),
                    "concurrency control (when OLTP threads share rows)");
    flags.addCount("--seed N", &spec.params.seed, "workload RNG seed");
    flags.addSwitch("--strings", &spec.params.stringValues,
                    "string (multi-word) values");
    flags.addSwitch("--distributed-log", &perCoreLogs,
                    "per-thread log partitions");
    flags.addSwitch("--paper", &paper, "paper-sized caches and log");
    flags.addCount("--crash-at TICK", &crashAt,
                   "crash at TICK, recover and verify");
    flags.addCount("--log-shards N", &persist.logShards,
                   "log shards, cross-shard commit (default 1)", 1, 64);
    // faultlab: live media faults on the accepted-write path, each a
    // probability per 64-byte line written.
    flags.addRate("--fault-bitflip P", &faults.bitFlipProb,
                  "single-bit flips per line written");
    flags.addRate("--fault-multibit P", &faults.multiBitProb,
                  "double-bit flips per line written");
    flags.addRate("--fault-drop P", &faults.dropWriteProb,
                  "dropped writes per line written");
    flags.addRate("--fault-torn P", &faults.tornLineProb,
                  "torn lines per line written");
    flags.addRate("--fault-stuck P", &faults.stuckRowProb,
                  "stuck rows per line written");
    flags.addCount("--fault-seed N", &faults.seed,
                   "fault-model seed (default 1)");
    FaultModelConfig light = FaultModelConfig::light(0);
    FaultModelConfig heavy = FaultModelConfig::heavy(0);
    flags.addPresetFlag("--fault-preset light|heavy",
                        {{"light", {{&faults.bitFlipProb, light.bitFlipProb}}},
                         {"heavy",
                          {{&faults.bitFlipProb, heavy.bitFlipProb},
                           {&faults.multiBitProb, heavy.multiBitProb},
                           {&faults.dropWriteProb, heavy.dropWriteProb},
                           {&faults.tornLineProb, heavy.tornLineProb}}}},
                        "canned mix, before any --fault-* rate");
    flags.addSwitch("--scrub", &persist.scrub,
                    "lifelab: line remapping and the log scrubber");
    flags.addSwitch("--dump-stats", &dump,
                    "dump every component counter");
    flags.addSwitch("--list", &list, "list workloads and exit");
    flags.addString("--bench-json FILE", &benchJsonPath,
                    "write the workload x mode bench matrix report");
    flags.addCount("--bench-repeats N", &benchRepeats,
                   "bench repeats per cell (default 1)", 1);
    flags.parse(argc, argv);

    if (list) {
        for (const auto &w : allWorkloadNames())
            std::printf("%s\n", w.c_str());
        return 0;
    }
    if (perCoreLogs) {
        // Per-core regions and address shards are two values of one
        // layout setting, so the pair cannot both apply.
        if (persist.logShards > 1)
            fatal("--distributed-log and --log-shards %u are mutually "
                  "exclusive (per-core vs per-address log regions)",
                  persist.logShards);
        persist.logShards = PersistConfig::kPerCoreLogs;
    }

    spec.sys = paper ? SystemConfig::paper(spec.params.threads)
                     : SystemConfig::scaled(spec.params.threads);
    spec.sys.persist = persist;
    spec.sys.nvram.faults = faults;
    if (persist.scrub && spec.sys.map.remapSize == 0) {
        spec.sys.map.remapSize = 16 * 1024;
        spec.sys.map.spareSize = 32 * 1024;
    }
    if (flags.given("--crash-at")) {
        spec.sys.persist.crashJournal = true;
        spec.crashAt = crashAt;
    }

    if (!benchJsonPath.empty()) {
        // BENCH_sim.json's matrix: every workload and mode, run to
        // completion without a scrubber, media faults or a stats
        // dump. A flag that would change or skip that is an error.
        for (const char *ignored :
             {"--workload", "--mode", "--crash-at", "--scrub",
              "--dump-stats", "--fault-bitflip", "--fault-multibit",
              "--fault-drop", "--fault-torn", "--fault-stuck",
              "--fault-seed", "--fault-preset"})
            if (flags.given(ignored))
                fatal("%s does not apply to --bench-json", ignored);
        return runBenchMatrix(spec, benchRepeats, benchJsonPath);
    }

    // The dump is taken from this very run when the simulation stops
    // and printed after the report.
    std::ostringstream statsDump;
    auto o = runWorkload(spec, dump ? &statsDump : nullptr);
    const RunStats &s = o.stats;
    std::printf("workload=%s mode=%s threads=%u tx/thread=%llu%s\n",
                spec.workload.c_str(), persistModeName(spec.mode),
                spec.params.threads,
                static_cast<unsigned long long>(
                    spec.params.txPerThread),
                o.crashed ? " (CRASHED + RECOVERED)" : "");
    std::printf("  cycles          %llu\n",
                static_cast<unsigned long long>(s.cycles));
    std::printf("  committed tx    %llu  (%.1f tx/Mcycle)\n",
                static_cast<unsigned long long>(s.committedTx),
                s.txPerMcycle);
    if (s.abortedTx != 0)
        std::printf("  aborted tx      %llu\n",
                    static_cast<unsigned long long>(s.abortedTx));
    std::printf("  instructions    %llu  (ipc/core %.3f)\n",
                static_cast<unsigned long long>(s.instr.total),
                s.ipc);
    std::printf("    loads=%llu stores=%llu log-stores=%llu "
                "log-loads=%llu clwb=%llu fences=%llu\n",
                static_cast<unsigned long long>(s.instr.loads),
                static_cast<unsigned long long>(s.instr.stores),
                static_cast<unsigned long long>(s.instr.logStores),
                static_cast<unsigned long long>(s.instr.logLoads),
                static_cast<unsigned long long>(s.instr.clwbs),
                static_cast<unsigned long long>(s.instr.fences));
    std::printf("  NVRAM           %llu reads / %llu writes "
                "(%llu / %llu bytes)\n",
                static_cast<unsigned long long>(s.nvramReads),
                static_cast<unsigned long long>(s.nvramWrites),
                static_cast<unsigned long long>(s.nvramReadBytes),
                static_cast<unsigned long long>(s.nvramWriteBytes));
    std::printf("  log             %llu records, %llu wraps, "
                "%llu buffer stalls\n",
                static_cast<unsigned long long>(s.logRecords),
                static_cast<unsigned long long>(s.logWraps),
                static_cast<unsigned long long>(s.logBufferStalls));
    std::printf("  fwb             %llu scans, %llu forced "
                "write-backs\n",
                static_cast<unsigned long long>(s.fwbScans),
                static_cast<unsigned long long>(s.fwbWritebacks));
    if (s.forcedWritebacks != 0)
        std::printf("  log-full        %llu forced write-backs, %llu "
                    "reclaim-wait cycles\n",
                    static_cast<unsigned long long>(
                        s.forcedWritebacks),
                    static_cast<unsigned long long>(
                        s.reclaimWaitCycles));
    if (s.faultsInjected != 0)
        std::printf("  media faults    %llu injected (seed %llu)\n",
                    static_cast<unsigned long long>(s.faultsInjected),
                    static_cast<unsigned long long>(faults.seed));
    if (persist.scrub) {
        std::uint64_t traffic = s.nvramReadBytes + s.nvramWriteBytes;
        double overhead =
            traffic == 0
                ? 0.0
                : 100.0 *
                      static_cast<double>(s.scrubReadBytes +
                                          s.scrubWriteBytes) /
                      static_cast<double>(traffic);
        std::printf("  scrub           %llu slots scanned, %llu "
                    "repaired, %llu lines promoted\n",
                    static_cast<unsigned long long>(
                        s.scrubSlotsScanned),
                    static_cast<unsigned long long>(s.scrubRepairs),
                    static_cast<unsigned long long>(
                        s.scrubPromotions));
        std::printf("  scrub traffic   %llu read / %llu written bytes "
                    "(%.2f%% of NVRAM traffic), %llu lines "
                    "remapped\n",
                    static_cast<unsigned long long>(s.scrubReadBytes),
                    static_cast<unsigned long long>(s.scrubWriteBytes),
                    overhead,
                    static_cast<unsigned long long>(s.remappedLines));
    }
    std::printf("  invariants      %llu order violations, %llu "
                "overwrite hazards\n",
                static_cast<unsigned long long>(s.orderViolations),
                static_cast<unsigned long long>(s.overwriteHazards));
    std::printf("  energy          %.1f nJ memory dynamic, %.1f nJ "
                "processor dynamic\n",
                s.energy.memoryDynamicPj() / 1e3,
                s.energy.processorDynamicPj() / 1e3);
    if (o.crashed) {
        std::printf("  recovery        %llu records, %llu redone, "
                    "%llu rolled back\n",
                    static_cast<unsigned long long>(
                        o.recovery.validRecords),
                    static_cast<unsigned long long>(
                        o.recovery.committedTxns),
                    static_cast<unsigned long long>(
                        o.recovery.uncommittedTxns));
        if (o.recovery.damagedSlots() != 0 ||
            o.recovery.quarantinedTxns != 0)
            std::printf("  salvage         %llu salvaged, %llu "
                        "quarantined; %llu torn / %llu crc-fail / "
                        "%llu stale slots\n",
                        static_cast<unsigned long long>(
                            o.recovery.salvagedTxns),
                        static_cast<unsigned long long>(
                            o.recovery.quarantinedTxns),
                        static_cast<unsigned long long>(
                            o.recovery.tornSlots),
                        static_cast<unsigned long long>(
                            o.recovery.crcFailSlots),
                        static_cast<unsigned long long>(
                            o.recovery.stalePassSlots));
    }
    std::printf("  verified        %s%s%s\n",
                o.verified ? "yes" : "NO",
                o.verifyMessage.empty() ? "" : " - ",
                o.verifyMessage.c_str());

    if (dump) {
        std::printf("\n(component statistics)\n");
        std::cout << statsDump.str();
    }
    return o.verified ? 0 : 1;
}
