/**
 * @file
 * Shared helpers for the benchmark harnesses that regenerate the
 * paper's tables and figures: the run spec every figure builds on,
 * cell runners, the unsafe-base baseline, and the Table II header.
 *
 * Every bench honours SNF_BENCH_SCALE (default 1.0; any positive
 * finite number, anything else is rejected): transaction counts are
 * multiplied by it, so `SNF_BENCH_SCALE=0.1 fig6to9_microbench` gives
 * a fast approximate run and larger values tighten the numbers.
 */

#ifndef SNF_BENCH_COMMON_HH
#define SNF_BENCH_COMMON_HH

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/logging.hh"
#include "workloads/driver.hh"

namespace snf::bench
{

inline double
benchScale()
{
    const char *s = std::getenv("SNF_BENCH_SCALE");
    if (!s)
        return 1.0;
    char *end = nullptr;
    double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || !std::isfinite(v) || v <= 0)
        fatal("SNF_BENCH_SCALE needs a positive number, got '%s'", s);
    return v;
}

/**
 * The run every figure and ablation starts from: the scaled preset,
 * the base transaction count per thread times SNF_BENCH_SCALE (at
 * least 1), and no end-of-run check (timing cells; correctness is
 * tested). The preset keeps the paper's latency/bandwidth numbers and
 * shrinks caches and log 16x, so the bench footprints exceed the LLC
 * as the paper's 256 MB-1 GB footprints exceed its 8 MB LLC. Callers
 * set only the config field they sweep.
 */
inline workloads::RunSpec
benchSpec(const std::string &workload, PersistMode mode,
          std::uint32_t threads, std::uint64_t txPerThreadBase,
          std::uint64_t footprint)
{
    workloads::RunSpec spec;
    spec.workload = workload;
    spec.mode = mode;
    spec.params.threads = threads;
    spec.params.txPerThread = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               static_cast<double>(txPerThreadBase) * benchScale()));
    spec.params.footprint = footprint;
    spec.sys = SystemConfig::scaled(threads);
    spec.verifyAtEnd = false;
    return spec;
}

/** Run one (workload, mode, threads) cell of Figures 6-10. */
inline RunStats
runCell(const std::string &workload, PersistMode mode,
        std::uint32_t threads)
{
    return workloads::runWorkload(
               benchSpec(workload, mode, threads, 400, 131072))
        .stats;
}

/**
 * The unsafe-base baseline of the paper's figures: the better of
 * redo and undo software logging without forced write-backs.
 */
inline RunStats
unsafeBase(const std::string &workload, std::uint32_t threads)
{
    RunStats redo = runCell(workload, PersistMode::UnsafeRedo, threads);
    RunStats undo = runCell(workload, PersistMode::UnsafeUndo, threads);
    return redo.txPerMcycle >= undo.txPerMcycle ? redo : undo;
}

inline void
printTableII()
{
    std::printf("# Configuration (paper Table II, scaled preset):\n");
    SystemConfig c = SystemConfig::scaled(4);
    std::printf("#   cores=%u @%.1fGHz, L1 %uKB/%uw, L2 %uKB/%uw, "
                "line %uB\n",
                c.numCores, kClockGhz, c.l1.sizeBytes / 1024,
                c.l1.ways, c.l2.sizeBytes / 1024, c.l2.ways,
                c.l1.lineBytes);
    std::printf("#   NVRAM: row-hit %u cyc, read/write conflict "
                "%u/%u cyc, %u banks\n",
                c.nvram.rowHitLat, c.nvram.readConflictLat,
                c.nvram.writeConflictLat, c.nvram.banks);
    std::printf("#   log %lluKB, log buffer %u entries, WCB %u\n",
                static_cast<unsigned long long>(
                    c.map.logSize / 1024),
                c.persist.logBufferEntries, mem::MemorySystem::kWcbEntries);
    std::printf("#   SNF_BENCH_SCALE=%.2f\n\n", benchScale());
}

} // namespace snf::bench

#endif // SNF_BENCH_COMMON_HH
