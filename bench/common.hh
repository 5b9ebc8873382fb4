/**
 * @file
 * Shared helpers for the benchmark harnesses that regenerate the
 * paper's tables and figures: cell runners, normalization against the
 * unsafe-base baseline, and table printers.
 *
 * Every bench honours SNF_BENCH_SCALE (default 1.0): transaction
 * counts are multiplied by it, so `SNF_BENCH_SCALE=0.1 fig6_...`
 * gives a fast approximate run and larger values tighten the numbers.
 */

#ifndef SNF_BENCH_COMMON_HH
#define SNF_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "workloads/driver.hh"

namespace snf::bench
{

inline double
benchScale()
{
    const char *s = std::getenv("SNF_BENCH_SCALE");
    if (!s)
        return 1.0;
    double v = std::atof(s);
    return v > 0 ? v : 1.0;
}

/** Benchmark-grade system config: paper latencies, scaled caches. */
inline SystemConfig
benchConfig(std::uint32_t threads)
{
    // The scaled preset keeps the paper's latency/bandwidth numbers
    // and shrinks caches and log 16x, so the bench footprints below
    // exceed the LLC as the paper's 256 MB-1 GB footprints exceed
    // its 8 MB LLC.
    return SystemConfig::scaled(threads);
}

struct Cell
{
    workloads::RunOutcome outcome;

    double throughput() const { return outcome.stats.txPerMcycle; }

    double ipc() const { return outcome.stats.ipc; }

    double instructions() const
    {
        return static_cast<double>(outcome.stats.instr.total);
    }

    double
    nvramWriteBytes() const
    {
        return static_cast<double>(outcome.stats.nvramWriteBytes);
    }

    double
    memDynEnergy() const
    {
        return outcome.stats.energy.memoryDynamicPj();
    }
};

/** Run one (workload, mode, threads) cell with bench-sized inputs. */
inline Cell
runCell(const std::string &workload, PersistMode mode,
        std::uint32_t threads, bool stringValues = false,
        std::uint64_t txPerThreadBase = 400,
        std::uint64_t footprint = 131072)
{
    workloads::RunSpec spec;
    spec.workload = workload;
    spec.mode = mode;
    spec.params.threads = threads;
    spec.params.txPerThread = static_cast<std::uint64_t>(
        static_cast<double>(txPerThreadBase) * benchScale());
    if (spec.params.txPerThread == 0)
        spec.params.txPerThread = 1;
    spec.params.footprint = footprint;
    spec.params.stringValues = stringValues;
    spec.sys = benchConfig(threads);
    spec.verifyAtEnd = false; // timing cells; correctness is tested
    Cell c;
    c.outcome = workloads::runWorkload(spec);
    return c;
}

/**
 * The unsafe-base baseline of the paper's figures: the better of
 * redo and undo software logging without forced write-backs.
 */
inline Cell
unsafeBase(const std::string &workload, std::uint32_t threads,
           bool stringValues = false,
           std::uint64_t txPerThreadBase = 400,
           std::uint64_t footprint = 131072)
{
    Cell redo = runCell(workload, PersistMode::UnsafeRedo, threads,
                        stringValues, txPerThreadBase, footprint);
    Cell undo = runCell(workload, PersistMode::UnsafeUndo, threads,
                        stringValues, txPerThreadBase, footprint);
    return redo.throughput() >= undo.throughput() ? redo : undo;
}

inline void
printTableII()
{
    std::printf("# Configuration (paper Table II, scaled preset):\n");
    SystemConfig c = benchConfig(4);
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
