/**
 * @file
 * Figure 10: WHISPER-style real-workload results — IPC, dynamic
 * memory energy consumption, transaction throughput, and NVRAM write
 * traffic, normalized to unsafe-base, for the full design (fwb) with
 * hwl and non-pers as references. WHISPER's tpcc and ycsb are the
 * OLTP engines, run after the four WHISPER-like workloads.
 */

#include <vector>

#include "bench/common.hh"

using namespace snf;
using namespace snf::bench;

int
main()
{
    setQuiet(true);
    std::printf("== Figure 10: WHISPER workloads (normalized to "
                "unsafe-base; 4 threads) ==\n");
    printTableII();

    std::printf("%-10s %7s | %8s %8s %8s %8s | %8s %8s | %8s\n",
                "workload", "mode", "IPC", "energyRd", "thrpt",
                "trafRd", "bestClwb", "fwb/clwb", "fwb/nonp");

    const std::uint32_t threads = 4;
    std::vector<std::string> names = workloads::whisperNames();
    const auto &oltp = workloads::oltpNames();
    names.insert(names.end(), oltp.begin(), oltp.end());
    for (const auto &wl : names) {
        RunStats base = unsafeBase(wl, threads);
        RunStats nonp = runCell(wl, PersistMode::NonPers, threads);
        RunStats redo = runCell(wl, PersistMode::RedoClwb, threads);
        RunStats undo = runCell(wl, PersistMode::UndoClwb, threads);
        const RunStats &clwb =
            redo.txPerMcycle >= undo.txPerMcycle ? redo : undo;

        for (PersistMode m : {PersistMode::Hwl, PersistMode::Fwb}) {
            RunStats c = runCell(wl, m, threads);
            std::printf(
                "%-10s %7s | %8.2f %8.2f %8.2f %8.2f | %8.2f "
                "%8.2f | %8.2f\n",
                wl.c_str(), persistModeName(m), c.ipc / base.ipc,
                base.energy.memoryDynamicPj() /
                    c.energy.memoryDynamicPj(),
                c.txPerMcycle / base.txPerMcycle,
                c.nvramWriteBytes > 0
                    ? static_cast<double>(base.nvramWriteBytes) /
                          static_cast<double>(c.nvramWriteBytes)
                    : 0.0,
                clwb.txPerMcycle / base.txPerMcycle,
                c.txPerMcycle / clwb.txPerMcycle,
                c.txPerMcycle / nonp.txPerMcycle);
            std::fflush(stdout);
        }
    }

    std::printf("\nExpected shape (paper): fwb up to 2.7x the "
                "throughput of the best clwb-based sw logging,\n"
                "within ~73%% of non-pers; up to 2.43x dynamic "
                "memory energy reduction.\n");
    return 0;
}
