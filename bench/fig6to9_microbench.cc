/**
 * @file
 * Figures 6-9: the five microbenchmarks at 1, 2, 4 and 8 threads
 * under every persistence scheme, normalized to unsafe-base (the
 * better of software redo/undo logging without forced write-backs):
 * transaction throughput (Fig 6), IPC and instruction count (Fig 7),
 * memory dynamic energy (Fig 8) and NVRAM write traffic (Fig 9).
 * Each cell is simulated once; every table is a view of the same runs.
 */

#include <array>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "bench/common.hh"

using namespace snf;
using namespace snf::bench;

namespace
{

const PersistMode kModes[] = {
    PersistMode::NonPers,  PersistMode::RedoClwb,
    PersistMode::UndoClwb, PersistMode::HwRlog,
    PersistMode::HwUlog,   PersistMode::Hwl,
    PersistMode::Fwb,
};

/** One (benchmark, threads) row: its baseline and each mode's run. */
struct Row
{
    RunStats base;
    std::array<RunStats, std::size(kModes)> modes;
};

using Matrix = std::map<std::pair<std::uint32_t, std::string>, Row>;

/** One table: a value per mode against its row's unsafe-base. */
struct View
{
    const char *title;
    std::vector<std::uint32_t> threads;
    /** NaN where the run has no value; printed as `-`. */
    double (*value)(const RunStats &run, const RunStats &base);
    /** The paper's shape, printed under the table; may be null. */
    const char *expected;
};

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return static_cast<double>(num) / static_cast<double>(den);
}

const View kViews[] = {
    {"Figure 6: transaction throughput speedup (normalized to "
     "unsafe-base)",
     {1, 2, 4, 8},
     [](const RunStats &s, const RunStats &b) {
         return s.txPerMcycle / b.txPerMcycle;
     },
     "redo/undo-clwb < 1, hwl > 1, fwb highest persistent mode\n"
     "(paper: fwb ~1.86x best sw logging at 1 thread, ~1.75x at 8 "
     "threads)"},
    {"Figure 7: IPC speedup (normalized to unsafe-base)",
     {1, 4},
     [](const RunStats &s, const RunStats &b) { return s.ipc / b.ipc; },
     nullptr},
    {"Figure 7: instruction count (normalized to unsafe-base)",
     {1, 4},
     [](const RunStats &s, const RunStats &b) {
         return ratio(s.instr.total, b.instr.total);
     },
     "sw logging up to 2.5x non-pers instructions; fwb ~1.3x "
     "non-pers;\nhw modes' IPC well above sw logging."},
    {"Figure 8: memory dynamic energy reduction (unsafe-base / mode; "
     "higher is better)",
     {1, 2, 4, 8},
     [](const RunStats &s, const RunStats &b) {
         return b.energy.memoryDynamicPj() / s.energy.memoryDynamicPj();
     },
     "clwb-based sw logging imposes up to 62% memory energy overhead "
     "vs\nnon-pers; fwb recovers most of it (~20% dynamic memory "
     "energy overhead)."},
    {"Figure 9: memory write traffic reduction (unsafe-base bytes / "
     "mode bytes)",
     {1, 8},
     [](const RunStats &s, const RunStats &b) {
         // non-pers may write nothing at all.
         return s.nvramWriteBytes > 0
                    ? ratio(b.nvramWriteBytes, s.nvramWriteBytes)
                    : std::nan("");
     },
     "fwb substantially reduces NVRAM writes vs clwb-based sw "
     "logging\n(cache-coalesced FWB write-backs replace per-commit "
     "forced write-backs)."},
};

void
print(const View &v, const Matrix &rows)
{
    std::printf("== %s ==\n%-12s", v.title, "benchmark");
    for (PersistMode m : kModes)
        std::printf(" %10s", persistModeName(m));
    std::printf("\n");
    for (std::uint32_t threads : v.threads) {
        for (const auto &wl : workloads::microbenchNames()) {
            const Row &r = rows.at({threads, wl});
            std::printf("%-9s-%ut", wl.c_str(), threads);
            for (const RunStats &s : r.modes) {
                double x = v.value(s, r.base);
                if (std::isnan(x))
                    std::printf(" %10s", "-");
                else
                    std::printf(" %10.2f", x);
            }
            std::printf("\n");
        }
    }
    if (v.expected)
        std::printf("\nExpected shape (paper): %s\n", v.expected);
    std::printf("\n");
}

} // namespace

int
main()
{
    setQuiet(true);
    Matrix rows;
    for (std::uint32_t threads : {1u, 2u, 4u, 8u}) {
        for (const auto &wl : workloads::microbenchNames()) {
            Row &r = rows[{threads, wl}];
            r.base = unsafeBase(wl, threads);
            for (std::size_t i = 0; i < std::size(kModes); ++i)
                r.modes[i] = runCell(wl, kModes[i], threads);
        }
    }

    printTableII();
    for (const View &v : kViews)
        print(v, rows);
    return 0;
}
