/**
 * @file
 * snfsim — command-line front end to the simulator: run any bundled
 * workload under any persistence mode and print the full statistics,
 * optionally crashing mid-run and recovering.
 *
 * Usage:
 *   snfsim [options]
 *     --workload NAME    (default sps; see --list)
 *     --mode NAME        (default fwb: non-pers, unsafe-redo,
 *                         unsafe-undo, redo-clwb, undo-clwb,
 *                         hw-rlog, hw-ulog, hwl, fwb)
 *     --threads N        (default 2)
 *     --tx N             transactions per thread (default 1000)
 *     --footprint N      elements in the initial structure (>= 1)
 *     --warehouses N     oltp-tpcc warehouse count (>= 1)
 *     --zipf-theta X     oltp-ycsb Zipf skew, strictly in (0,1)
 *     --cc 2pl|tl2|none  concurrency control for shared-data
 *                        workloads (default none; oltp-tpcc needs one)
 *     --seed N           workload RNG seed
 *     --strings          string (multi-word) values
 *     --distributed-log  per-thread log partitions
 *     --paper            paper-sized caches (default: scaled)
 *     --crash-at TICK    crash, recover, verify
 *     --log-full P       log-full policy: reclaim (default), stall,
 *                        abort-retry
 *     --log-shards N     slice the log NVRAM across N shards with
 *                        the cross-shard commit protocol (default 1)
 *     --fault-bitflip P  faultlab: live NVRAM media faults on the
 *     --fault-multibit P accepted-write path, probability per
 *     --fault-drop P     64-byte line written (single/double bit
 *     --fault-torn P     flips, dropped writes, torn lines, stuck
 *     --fault-stuck P    rows)
 *     --fault-seed N     fault-model seed (default 1)
 *     --fault-preset X   light | heavy (canned fault mixes; must
 *                        precede explicit --fault-* rates, which may
 *                        then tune but not zero its fields)
 *     --scrub            lifelab: enable bad-line remapping and the
 *                        online log scrubber (prints the scrub
 *                        traffic stats)
 *     --dump-stats       dump every component counter
 *     --list             list workloads and exit
 *     --bench-json FILE  perf-bench mode: run the reference
 *                        workload×mode matrix with the current
 *                        --threads/--tx/--seed and write a
 *                        snf-bench-sim-v1 JSON report (simulated
 *                        tx/sec, events/sec, allocations/event, plus
 *                        the deterministic counters CI gates on);
 *                        "-" writes to stdout
 *     --bench-repeats N  repeat each bench cell N times: wall-clock
 *                        is the minimum, counters must be identical
 *                        across repeats (default 1)
 *
 * Every value flag also accepts --flag=value.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/fault_flags.hh"
#include "sim/logging.hh"
#include "workloads/driver.hh"

using namespace snf;
using namespace snf::workloads;

namespace
{

PersistMode
parseMode(const char *name)
{
    for (PersistMode m : kAllModes)
        if (std::strcmp(persistModeName(m), name) == 0)
            return m;
    fatal("unknown mode '%s'", name);
}

void
usage()
{
    std::printf("usage: snfsim [--workload W] [--mode M] "
                "[--threads N] [--tx N] [--footprint N]\n"
                "              [--warehouses N] [--zipf-theta X] "
                "[--cc 2pl|tl2|none]\n"
                "              [--seed N] [--strings] "
                "[--distributed-log] [--paper]\n"
                "              [--crash-at TICK] "
                "[--log-full reclaim|stall|abort-retry]\n"
                "              [--log-shards N]\n"
                "              [--fault-bitflip P] [--fault-multibit "
                "P] [--fault-drop P]\n"
                "              [--fault-torn P] [--fault-stuck P] "
                "[--fault-seed N]\n"
                "              [--fault-preset light|heavy] "
                "[--scrub] [--dump-stats] [--list]\n"
                "              [--bench-json FILE] "
                "[--bench-repeats N]\n");
}

LogFullPolicy
parseLogFullPolicy(const char *name)
{
    for (LogFullPolicy p : {LogFullPolicy::Reclaim,
                            LogFullPolicy::Stall,
                            LogFullPolicy::AbortRetry})
        if (std::strcmp(logFullPolicyName(p), name) == 0)
            return p;
    fatal("unknown log-full policy '%s'", name);
}

/**
 * Perf-bench mode: run the reference workload×mode matrix and write a
 * snf-bench-sim-v1 report. The counters block must repeat exactly
 * (the simulator is deterministic); wall-clock rates live in a
 * separate "perf" block so CI strips them before diffing.
 */
int
runBenchMatrix(const RunSpec &base, bool paper, std::uint64_t repeats,
               const std::string &path)
{
    static const char *kWorkloads[] = {"sps", "hash", "btree", "ycsb",
                                       "tpcc"};
    static const PersistMode kModes[] = {
        PersistMode::Fwb, PersistMode::UndoClwb, PersistMode::RedoClwb,
        PersistMode::NonPers};

    std::ostringstream out;
    out << "{\n";
    out << "  \"schema\": \"snf-bench-sim-v1\",\n";
    out << "  \"tool\": \"snfsim\",\n";
    out << "  \"threads\": " << base.params.threads << ",\n";
    out << "  \"tx_per_thread\": " << base.params.txPerThread << ",\n";
    out << "  \"seed\": " << base.params.seed << ",\n";
    out << "  \"cells\": [";
    bool firstCell = true;
    for (const char *w : kWorkloads) {
        for (PersistMode m : kModes) {
            RunSpec spec = base;
            spec.workload = w;
            spec.mode = m;
            // Journal NVRAM writes like a crash sweep would, so the
            // journal-entries counter is live and gateable.
            spec.sys = paper
                           ? SystemConfig::paper(spec.params.threads)
                           : SystemConfig::scaled(spec.params.threads);
            spec.sys.persist.distributedLogs =
                base.sys.persist.distributedLogs;
            spec.sys.persist.logFullPolicy =
                base.sys.persist.logFullPolicy;
            spec.sys.persist.logShards = base.sys.persist.logShards;
            spec.sys.persist.ccMode = base.sys.persist.ccMode;
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
                    if (o.stats.cycles != s.cycles ||
                        o.stats.eventsScheduled != s.eventsScheduled ||
                        o.stats.eventsExecuted != s.eventsExecuted ||
                        o.stats.callbackHeapAllocs !=
                            s.callbackHeapAllocs ||
                        o.stats.journalEntries != s.journalEntries)
                        fatal("bench cell %s/%s not deterministic "
                              "across repeats",
                              w, persistModeName(m));
                }
            }
            if (!verified)
                fatal("bench cell %s/%s failed verification", w,
                      persistModeName(m));

            double allocsPerEvent =
                s.eventsScheduled == 0
                    ? 0.0
                    : static_cast<double>(s.callbackHeapAllocs) /
                          static_cast<double>(s.eventsScheduled);
            out << (firstCell ? "\n" : ",\n");
            firstCell = false;
            out << "    {\n";
            out << "      \"workload\": \"" << w << "\",\n";
            out << "      \"mode\": \"" << persistModeName(m)
                << "\",\n";
            out << "      \"counters\": {\n";
            out << "        \"cycles\": " << s.cycles << ",\n";
            out << "        \"committed_tx\": " << s.committedTx
                << ",\n";
            out << "        \"instructions\": " << s.instr.total
                << ",\n";
            out << "        \"events_scheduled\": "
                << s.eventsScheduled << ",\n";
            out << "        \"events_executed\": " << s.eventsExecuted
                << ",\n";
            out << "        \"event_heap_spills\": "
                << s.eventHeapSpills << ",\n";
            out << "        \"callback_heap_allocs\": "
                << s.callbackHeapAllocs << ",\n";
            out << "        \"journal_entries\": " << s.journalEntries
                << "\n";
            out << "      },\n";
            out << "      \"perf\": {\n";
            out << "        \"wall_sec\": " << bestSec << ",\n";
            out << "        \"sim_tx_per_sec\": "
                << (bestSec > 0.0
                        ? static_cast<double>(s.committedTx) / bestSec
                        : 0.0)
                << ",\n";
            out << "        \"events_per_sec\": "
                << (bestSec > 0.0
                        ? static_cast<double>(s.eventsExecuted) /
                              bestSec
                        : 0.0)
                << ",\n";
            out << "        \"allocs_per_event\": " << allocsPerEvent
                << "\n";
            out << "      }\n";
            out << "    }";
        }
    }
    out << "\n  ]\n";
    out << "}\n";

    if (path == "-") {
        std::cout << out.str();
    } else {
        std::ofstream f(path);
        if (!f)
            fatal("cannot write '%s'", path.c_str());
        f << out.str();
    }
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
    std::uint32_t threads = 2;
    std::optional<Tick> crash_at;
    bool distributed = false;
    FaultModelConfig faults;
    faults.seed = 1;
    LogFullPolicy logFull = LogFullPolicy::Reclaim;
    std::uint32_t logShards = 1;
    CcMode cc = CcMode::None;
    bool scrub = false;
    std::string benchJsonPath;
    std::uint64_t benchRepeats = 1;

    // The live-fault flag family shares its ordering rules (and the
    // contradiction diagnostics) with snfcrash/snfsoak.
    FaultFlagSet faultFlags;
    faultFlags.addRate("--fault-bitflip", &faults.bitFlipProb);
    faultFlags.addRate("--fault-multibit", &faults.multiBitProb);
    faultFlags.addRate("--fault-drop", &faults.dropWriteProb);
    faultFlags.addRate("--fault-torn", &faults.tornLineProb);
    faultFlags.addRate("--fault-stuck", &faults.stuckRowProb);
    faultFlags.addSeed("--fault-seed", &faults.seed);
    faultFlags.setPresetFlag("--fault-preset");
    faultFlags.addPreset("light", {{&faults.bitFlipProb, 1e-4}});
    faultFlags.addPreset("heavy", {{&faults.bitFlipProb, 1e-3},
                                   {&faults.multiBitProb, 2e-4},
                                   {&faults.dropWriteProb, 2e-4},
                                   {&faults.tornLineProb, 2e-4}});

    std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        std::string err;
        switch (faultFlags.consume(args, i, &err)) {
          case FlagParse::Ok:
            continue;
          case FlagParse::Error:
            fatal("%s", err.c_str());
          case FlagParse::NotMine:
            break;
        }
        auto arg = [&](const char *flag) -> const char * {
            std::size_t n = std::strlen(flag);
            if (std::strncmp(args[i].c_str(), flag, n) == 0 &&
                args[i][n] == '=')
                return args[i].c_str() + n + 1;
            if (args[i] != flag)
                return nullptr;
            if (i + 1 >= args.size())
                fatal("%s needs a value", flag);
            return args[++i].c_str();
        };
        if (const char *v = arg("--workload")) {
            spec.workload = v;
        } else if (const char *v = arg("--mode")) {
            spec.mode = parseMode(v);
        } else if (const char *v = arg("--threads")) {
            threads = static_cast<std::uint32_t>(
                parsePositiveCountFlag("--threads", v));
        } else if (const char *v = arg("--tx")) {
            spec.params.txPerThread = parseCountFlag("--tx", v);
        } else if (const char *v = arg("--footprint")) {
            // Strictly positive: a 0 (e.g. from a typo'd value) used
            // to fall through to each workload's built-in default,
            // silently ignoring what the user asked for.
            spec.params.footprint =
                parsePositiveCountFlag("--footprint", v);
        } else if (const char *v = arg("--warehouses")) {
            spec.params.warehouses =
                parsePositiveCountFlag("--warehouses", v);
        } else if (const char *v = arg("--zipf-theta")) {
            spec.params.zipfTheta =
                parseOpenUnitFlag("--zipf-theta", v);
        } else if (const char *v = arg("--cc")) {
            cc = parseCcFlag("--cc", v);
        } else if (const char *v = arg("--seed")) {
            spec.params.seed = parseCountFlag("--seed", v);
        } else if (const char *v = arg("--crash-at")) {
            crash_at = static_cast<Tick>(
                parseCountFlag("--crash-at", v));
        } else if (const char *v = arg("--bench-json")) {
            benchJsonPath = v;
        } else if (const char *v = arg("--bench-repeats")) {
            benchRepeats = parsePositiveCountFlag("--bench-repeats", v);
        } else if (const char *v = arg("--log-full")) {
            logFull = parseLogFullPolicy(v);
        } else if (const char *v = arg("--log-shards")) {
            logShards = parseLogShardsFlag("--log-shards", v);
        } else if (args[i] == "--strings") {
            spec.params.stringValues = true;
        } else if (args[i] == "--distributed-log") {
            distributed = true;
        } else if (args[i] == "--paper") {
            paper = true;
        } else if (args[i] == "--scrub") {
            scrub = true;
        } else if (args[i] == "--dump-stats") {
            dump = true;
        } else if (args[i] == "--list") {
            for (const auto &w : allWorkloadNames())
                std::printf("%s\n", w.c_str());
            return 0;
        } else {
            usage();
            return args[i] == "--help" ? 0 : 1;
        }
    }

    if (threads == 0 || threads > 64)
        fatal("bad thread count");
    spec.params.threads = threads;
    spec.sys = paper ? SystemConfig::paper(threads)
                     : SystemConfig::scaled(threads);
    spec.sys.persist.distributedLogs = distributed;
    spec.sys.persist.logFullPolicy = logFull;
    spec.sys.persist.logShards = logShards;
    spec.sys.persist.ccMode = cc;
    spec.sys.nvram.faults = faults;
    if (scrub) {
        spec.sys.persist.scrub = true;
        if (spec.sys.map.remapSize == 0) {
            spec.sys.map.remapSize = 16 * 1024;
            spec.sys.map.spareSize = 32 * 1024;
        }
    }
    if (crash_at) {
        spec.sys.persist.crashJournal = true;
        spec.crashAt = crash_at;
    }

    if (!benchJsonPath.empty())
        return runBenchMatrix(spec, paper, benchRepeats,
                              benchJsonPath);

    auto o = runWorkload(spec);
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
    if (s.logFullStalls != 0 || s.forcedWritebacks != 0 ||
        s.logFullEscalations != 0)
        std::printf("  log-full        %llu stalls, %llu forced "
                    "write-backs, %llu abort escalations (%s)\n",
                    static_cast<unsigned long long>(s.logFullStalls),
                    static_cast<unsigned long long>(
                        s.forcedWritebacks),
                    static_cast<unsigned long long>(
                        s.logFullEscalations),
                    logFullPolicyName(logFull));
    if (s.faultsInjected != 0)
        std::printf("  media faults    %llu injected (seed %llu)\n",
                    static_cast<unsigned long long>(s.faultsInjected),
                    static_cast<unsigned long long>(faults.seed));
    if (scrub) {
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
        // Re-run the same spec with a live System so every component
        // counter can be dumped (the driver tears its System down).
        System sys(spec.sys, spec.mode);
        auto wl = makeWorkload(spec.workload);
        wl->setup(sys, spec.params);
        for (CoreId c = 0; c < spec.params.threads; ++c) {
            sys.spawn(c, [&](Thread &t) {
                return wl->thread(sys, t, spec.params);
            });
        }
        sys.run(spec.crashAt ? *spec.crashAt : kTickNever);
        std::printf("\n(component statistics)\n");
        sys.dumpStats(std::cout);
    }
    return o.verified ? 0 : 1;
}
