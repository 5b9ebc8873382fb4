/**
 * @file
 * Sweep reporting: a human-readable per-cell summary and a JSON
 * report of the full workload × mode × seed matrix, written by
 * tools/snfcrash. The JSON carries everything needed to reproduce a
 * failure: the cell parameters, every violated invariant with its
 * crash tick, and the minimized earliest-failing tick (feed it back
 * through `snfsim --crash-at TICK` or a focused sweep).
 */

#ifndef SNF_CRASHLAB_REPORT_HH
#define SNF_CRASHLAB_REPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "crashlab/sweep.hh"

namespace snf::crashlab
{

/** One matrix cell: its configuration and its sweep result. */
struct CellResult
{
    std::string workload;
    PersistMode mode = PersistMode::NonPers;
    std::uint64_t seed = 0;
    std::uint32_t threads = 0;
    std::uint64_t txPerThread = 0;
    SweepResult sweep;
};

/** One-paragraph human summary of a cell. */
void writeTextSummary(std::ostream &os, const CellResult &cell);

/** Per-phase timing + snapshot-engine counter lines of a cell. */
void writePerfSummary(std::ostream &os, const CellResult &cell);

/** The whole matrix as a JSON document. */
void writeJsonReport(std::ostream &os,
                     const std::vector<CellResult> &cells);

/**
 * The perf trajectory document (BENCH_sweep.json, --bench-json): one
 * record per cell with the phase wall-clocks and snapshot-engine
 * counters of its sweep, schema-stable so CI can archive and diff it
 * across commits.
 */
void writeBenchJson(std::ostream &os, const std::string &tool,
                    const std::vector<CellResult> &cells);

} // namespace snf::crashlab

#endif // SNF_CRASHLAB_REPORT_HH
