/**
 * @file
 * Ablation: the inherent log-before-data ordering guarantee
 * (Section III-B) depends on the memory controller issuing log-buffer
 * entries to the NVRAM bus ahead of data write-backs. This ablation
 * removes that FIFO ordering and measures how many ordering
 * violations (a data line reaching NVRAM before its log record)
 * appear, and what the ordering costs in throughput.
 */

#include "bench/common.hh"

using namespace snf;
using namespace snf::bench;

namespace
{

RunStats
run(PersistMode mode, bool barrier, std::uint32_t logEntries)
{
    workloads::RunSpec spec = benchSpec("hash", mode, 4, 600, 65536);
    spec.sys.persist.disableWbBarrier = !barrier;
    spec.sys.persist.logBufferEntries = logEntries;
    return workloads::runWorkload(spec).stats;
}

} // namespace

int
main()
{
    setQuiet(true);
    std::printf("== Ablation: MC FIFO ordering of log writes vs "
                "data write-backs (hash, 4 threads) ==\n");
    printTableII();

    std::printf("%-6s %8s %10s %12s %14s\n", "mode", "barrier",
                "logbuf", "tx/Mcycle", "order-violations");
    for (PersistMode m : {PersistMode::Hwl, PersistMode::Fwb}) {
        for (std::uint32_t entries : {15u, 64u, 256u}) {
            for (bool barrier : {true, false}) {
                auto o = run(m, barrier, entries);
                std::printf("%-6s %8s %10u %12.2f %14llu\n",
                            persistModeName(m),
                            barrier ? "on" : "off", entries,
                            o.txPerMcycle,
                            static_cast<unsigned long long>(
                                o.orderViolations));
                std::fflush(stdout);
            }
        }
    }

    std::printf("\nExpected: with the barrier on, violations are "
                "zero at every buffer size; with it off,\n"
                "violations appear (and grow with the buffer, whose "
                "drain lags further behind commits),\n"
                "at only a small throughput difference — ordering at "
                "the MC is nearly free, which is\n"
                "the paper's core argument for hardware logging.\n");
    return 0;
}
