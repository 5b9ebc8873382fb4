/**
 * @file
 * Figure 11(a): system throughput sensitivity to the log buffer size
 * (hash microbenchmark), across 0/8/15/16/32/64/128/256 entries, with
 * hw-rlog and hw-ulog as reference points. The paper's persistence
 * bound for its configuration is 15 entries; larger buffers keep
 * improving throughput until NVRAM write bandwidth saturates.
 */

#include "bench/common.hh"

using namespace snf;
using namespace snf::bench;

namespace
{

RunStats
runHash(PersistMode mode, std::uint32_t entries)
{
    workloads::RunSpec spec = benchSpec("hash", mode, 4, 600, 65536);
    spec.sys.persist.logBufferEntries = entries;
    return workloads::runWorkload(spec).stats;
}

} // namespace

int
main()
{
    setQuiet(true);
    std::printf("== Figure 11(a): throughput vs log buffer size "
                "(hash, 4 threads, fwb) ==\n");
    printTableII();

    double base = runHash(PersistMode::Fwb, 0).txPerMcycle;
    std::printf("%8s %12s %10s %8s\n", "entries", "tx/Mcycle",
                "vs 0-entry", "stalls");
    for (std::uint32_t entries : {0u, 8u, 15u, 16u, 32u, 64u, 128u,
                                  256u}) {
        auto o = runHash(PersistMode::Fwb, entries);
        std::printf("%8u %12.2f %10.2f %8llu\n", entries,
                    o.txPerMcycle, o.txPerMcycle / base,
                    static_cast<unsigned long long>(o.logBufferStalls));
        std::fflush(stdout);
    }
    for (PersistMode m : {PersistMode::HwRlog, PersistMode::HwUlog}) {
        auto o = runHash(m, 15);
        std::printf("%8s %12.2f %10.2f   (reference)\n",
                    persistModeName(m), o.txPerMcycle, o.txPerMcycle / base);
    }

    std::printf("\nExpected shape (paper): ~+10%% at 8 entries, "
                "~+18%% at 15; saturating towards 64+ entries\n"
                "(NVRAM write bandwidth limit).\n");
    return 0;
}
