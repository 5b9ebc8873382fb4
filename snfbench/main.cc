/**
 * @file
 * snfbench: the snf benchmark program.
 *
 *   snfbench --workload tpcc-fwb|ycsb-undo|crash-tpcc|all --seed N
 *            --seconds S --trace 0|1 [--trace-json FILE]
 *
 * Prints one line per metric (name, value, unit, context), then as the
 * last line one JSON object: {"correct", "attempted", "failed",
 * "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
 * --trace 1 they are the per-layer ones of a traced run, whose spans go
 * to --trace-json in Chrome trace-event format. Exits 1 when any check
 * fails, 2 on a bad command line.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "workloads.hh"

using namespace snfbench;

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "snfbench: %s\n"
                 "usage: snfbench --workload tpcc-fwb|ycsb-undo|crash-tpcc|"
                 "all --seed N --seconds S --trace 0|1 "
                 "[--trace-json FILE]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const std::string &v)
{
    std::size_t used = 0;
    unsigned long long n = 0;
    try {
        n = std::stoull(v, &used, 10);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used == 0 || used != v.size() || v[0] == '-')
        usage(flag + " wants a non-negative integer, got '" + v + "'");
    return n;
}

std::string
jsonNumber(double v)
{
    std::ostringstream o;
    o.precision(std::numeric_limits<double>::max_digits10);
    o << v;
    return o.str();
}

void
printResult(const WorkloadResult &r)
{
    std::printf("== %s ==\n", r.workload.c_str());
    auto line = [](const Metric &m) {
        std::printf("  %-34s %16.6g %-11s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    };
    for (const Metric &m : r.metrics)
        line(m);
    for (const Metric &m : r.extra)
        line(m);
    std::printf("  attempted %llu, failed %llu, %s\n",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                r.correct ? "all checks passed" : "CHECKS FAILED");
    for (const std::string &p : r.problems)
        std::printf("  FAIL: %s\n", p.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, traceJson;
    RunOptions opts;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string v = argv[++i];
        if (flag == "--workload") {
            workload = v;
        } else if (flag == "--seed") {
            opts.seed = parseCount(flag, v);
            haveSeed = true;
        } else if (flag == "--seconds") {
            opts.seconds = static_cast<double>(parseCount(flag, v));
            haveSeconds = true;
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace wants 0 or 1, got '" + v + "'");
            opts.traced = v == "1";
            haveTrace = true;
        } else if (flag == "--trace-json") {
            traceJson = v;
        } else {
            usage("unknown flag '" + flag + "'");
        }
    }
    if (workload.empty() || !haveSeed || !haveSeconds || !haveTrace)
        usage("--workload, --seed, --seconds and --trace are required");

    std::vector<std::string> names;
    if (workload == "all") {
        names = workloadNames();
    } else {
        for (const std::string &n : workloadNames())
            if (n == workload)
                names.push_back(n);
        if (names.empty())
            usage("unknown workload '" + workload + "'");
    }

    Tracer tracer;
    std::vector<WorkloadResult> results;
    for (const std::string &name : names) {
        resetPeakRss();
        results.push_back(runWorkload(name, opts, tracer));
        printResult(results.back());
    }

    if (opts.traced && !traceJson.empty()) {
        std::ofstream out(traceJson);
        tracer.writeChromeJson(out);
        if (!out.flush()) {
            std::fprintf(stderr, "snfbench: cannot write %s\n",
                         traceJson.c_str());
            return 1;
        }
    }

    bool correct = true;
    std::uint64_t attempted = 0, failed = 0;
    std::ostringstream metrics;
    bool firstMetric = true;
    for (const WorkloadResult &r : results) {
        correct = correct && r.correct;
        attempted += r.attempted;
        failed += r.failed;
        for (const Metric &m : r.metrics) {
            std::string key =
                results.size() > 1 ? r.workload + "/" + m.name : m.name;
            metrics << (firstMetric ? "" : ", ") << "\"" << key
                    << "\": {\"value\": " << jsonNumber(m.value)
                    << ", \"unit\": \"" << m.unit << "\"}";
            firstMetric = false;
        }
    }
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {"
              << metrics.str() << "}}" << std::endl;
    return correct && failed == 0 ? 0 : 1;
}
