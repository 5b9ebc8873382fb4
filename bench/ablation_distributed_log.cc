/**
 * @file
 * Ablation (paper Section III-F, "Types of Logging"): centralized vs
 * distributed per-thread logs under the full design (fwb), across
 * thread counts, on workloads with thread-private persistent data.
 * Distributed logs remove the single log-tail serialization point;
 * the benefit grows with thread count and write intensity.
 */

#include "bench/common.hh"

using namespace snf;
using namespace snf::bench;

namespace
{

RunStats
run(const std::string &wl, std::uint32_t threads, bool distributed)
{
    workloads::RunSpec spec =
        benchSpec(wl, PersistMode::Fwb, threads, 500, 65536);
    if (distributed)
        spec.sys.persist.logShards = PersistConfig::kPerCoreLogs;
    return workloads::runWorkload(spec).stats;
}

} // namespace

int
main()
{
    setQuiet(true);
    std::printf("== Ablation: centralized vs distributed per-thread "
                "logs (fwb) ==\n");
    printTableII();

    std::printf("%-10s %8s %14s %14s %8s %10s %10s\n", "workload",
                "threads", "central tx/Mc", "distrib tx/Mc",
                "speedup", "c-stalls", "d-stalls");
    for (const auto &wl : {"sps", "hash", "echo", "oltp-tpcc"}) {
        for (std::uint32_t threads : {1u, 2u, 4u, 8u}) {
            auto c = run(wl, threads, false);
            auto d = run(wl, threads, true);
            std::printf("%-10s %8u %14.1f %14.1f %7.2fx %10llu "
                        "%10llu\n",
                        wl, threads, c.txPerMcycle, d.txPerMcycle,
                        d.txPerMcycle / c.txPerMcycle,
                        static_cast<unsigned long long>(c.logBufferStalls),
                        static_cast<unsigned long long>(d.logBufferStalls));
            std::fflush(stdout);
        }
    }

    // Every claim below holds at SNF_BENCH_SCALE 0.05, 0.25 and 1.
    std::printf("\nExpected: per-thread FIFOs drain in parallel, so the "
                "distributed logs stall less\n"
                "wherever the centralized log stalls; at one thread the "
                "two are identical. Fewer\n"
                "stalls rarely buy throughput, as smaller partitions "
                "shorten the FWB scan period:\n"
                "4- and 8-thread oltp-tpcc lose although their "
                "centralized log stalls most, and\n"
                "only 4- and 8-thread echo gain over 1%%, at "
                "SNF_BENCH_SCALE 0.25 and 1, not 0.05.\n"
                "Constraint: requires thread-private persistent data "
                "(see Workload::threadPrivate).\n");
    return 0;
}
