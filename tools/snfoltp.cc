/**
 * @file
 * snfoltp — production-scale OLTP driver (DESIGN §8): runs the
 * multi-warehouse TPC-C and Zipf-skewed YCSB engines across the
 * {fwb, undo-clwb, redo-clwb} × {2pl, tl2} matrix and reports
 * throughput, commit-latency quantiles (p50/p99/p999), abort/retry
 * rates, and log-buffer / WCB occupancy per mode.
 *
 * `snfoltp --help` lists every flag; every count is strict, so a
 * malformed or out-of-range value is a hard error, never a silent
 * default.
 */

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/flags.hh"
#include "crashlab/sweep.hh"
#include "oltp/bench.hh"
#include "sim/json.hh"

using namespace snf;
using namespace snf::oltp;

namespace
{

void
printTable(const std::vector<OltpCellResult> &results)
{
    std::printf("%-9s %-9s %-4s %9s %9s %8s %8s %9s %7s %7s\n",
                "workload", "mode", "cc", "commits", "tx/Mcyc",
                "aborts", "retries", "log-recs", "logocc", "wcbocc");
    for (const OltpCellResult &r : results) {
        double logOccAvg =
            r.occSamples == 0
                ? 0.0
                : static_cast<double>(r.logOccSum) /
                      static_cast<double>(r.occSamples);
        double wcbOccAvg =
            r.occSamples == 0
                ? 0.0
                : static_cast<double>(r.wcbOccSum) /
                      static_cast<double>(r.occSamples);
        std::printf(
            "%-9s %-9s %-4s %9llu %9.1f %8llu %8llu %9llu %7.1f "
            "%7.1f\n",
            r.spec.engine.c_str(), persistModeName(r.spec.mode),
            ccModeName(r.spec.cc),
            static_cast<unsigned long long>(r.stats.committedTx),
            r.stats.txPerMcycle,
            static_cast<unsigned long long>(r.stats.abortedTx),
            static_cast<unsigned long long>(r.retries),
            static_cast<unsigned long long>(r.stats.logRecords), logOccAvg,
            wcbOccAvg);
        for (const OltpTypeCounters &t : r.types)
            std::printf("    %-12s commits=%-7llu p50=%-6llu "
                        "p99=%-6llu p999=%-6llu max=%llu\n",
                        t.type.c_str(),
                        static_cast<unsigned long long>(t.committed),
                        static_cast<unsigned long long>(t.latP50),
                        static_cast<unsigned long long>(t.latP99),
                        static_cast<unsigned long long>(t.latP999),
                        static_cast<unsigned long long>(t.latMax));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    OltpMatrixConfig cfg;
    std::string benchJsonPath;

    FlagSet flags("snfoltp");
    flags.addCount("--threads N", &cfg.threads,
                   "simulated cores (default 4)", 1, 64);
    flags.addCount("--tx N", &cfg.txPerThread,
                   "transactions per thread (default 50)", 1);
    flags.addCount("--seed N", &cfg.seed,
                   "workload RNG seed (default 11)");
    flags.addCount("--warehouses N", &cfg.warehouses,
                   "TPC-C warehouses (default 2)", 1);
    flags.addCount("--customers N", &cfg.customers,
                   "TPC-C customers per district (default 64)", 1);
    flags.addCount("--keys N", &cfg.keys,
                   "YCSB keyspace size (default 8192)", 1);
    flags.addReal("--zipf-theta X", &cfg.zipfTheta,
                  "YCSB Zipf skew (default 0.9)", 0.0, 1.0);
    flags.addCount("--log-shards N", &cfg.logShards,
                   "log shards (default 1)", 1, 64);
    // After --bench-repeats, keep re-running each cell (re-checking
    // its counters) until S seconds of measured time accumulate.
    flags.addReal("--oltp-seconds S", &cfg.secondsPerCell,
                  "wall-clock budget per cell", 0.0,
                  std::numeric_limits<double>::infinity());
    flags.addCount("--bench-repeats N", &cfg.minRepeats,
                   "min repeats per cell, counters identical (1)", 1);
    flags.addCount("--jobs N", &cfg.jobs,
                   "host threads; 0 = one per hardware thread (1)");
    flags.addString("--bench-json FILE", &benchJsonPath,
                    "write the snf-bench-oltp-v2 report, not the table");
    flags.parse(argc, argv);
    cfg.jobs = static_cast<unsigned>(crashlab::resolveJobs(cfg.jobs));

    std::vector<OltpCellSpec> cells = oltpReferenceCells();
    std::vector<OltpCellResult> results = runOltpMatrix(cells, cfg);

    if (!benchJsonPath.empty()) {
        writeReport(benchJsonPath, [&](std::ostream &os) {
            writeOltpBenchJson(os, cfg, results);
        });
        return 0;
    }

    printTable(results);
    return 0;
}
