/**
 * @file
 * The benchmark's three workloads and the measurement of one run of
 * each. A run measures for a host-time budget, checks every output,
 * and yields named metrics: end-to-end ones with tracing off, per-layer
 * ones from a traced run that also installs the commit probe.
 */

#ifndef SNFBENCH_WORKLOADS_HH
#define SNFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hh"

namespace snfbench
{

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    /** Human-readable context (sample counts, what was timed). */
    std::string note;
};

/** What one workload run produced. */
struct WorkloadResult
{
    std::string workload;
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Failed checks, one line each. */
    std::vector<std::string> problems;
    std::vector<Metric> metrics;
    /** Metrics printed for people only (not in the JSON result). */
    std::vector<Metric> extra;
};

/** Knobs of one run, from the command line. */
struct RunOptions
{
    std::uint64_t seed = 1;
    double seconds = 10;
    bool traced = false;
};

/** Workload names in the order `all` runs them. */
const std::vector<std::string> &workloadNames();

/** The OLTP cell a workload runs for @p seed (crash-tpcc: the swept
 *  reference cell). Throws on an unknown name. */
OltpCell workloadCell(const std::string &workload, std::uint64_t seed);

/** Measure one workload; @p tracer is used only when opts.traced. */
WorkloadResult runWorkload(const std::string &workload,
                           const RunOptions &opts, Tracer &tracer);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank quantile @p q in [0,1] of @p v (0 when empty). */
double quantile(std::vector<double> v, double q);

} // namespace snfbench

#endif // SNFBENCH_WORKLOADS_HH
