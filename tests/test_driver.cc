/**
 * @file
 * Tests for the experiment driver and the workload registry: spec
 * validation (death on misconfiguration), crash-run plumbing, string
 * variants across modes, and run-to-run reproducibility of results.
 */

#include <gtest/gtest.h>

#include "workloads/driver.hh"

using namespace snf;
using namespace snf::workloads;

TEST(WorkloadRegistry, AllNamesConstruct)
{
    for (const auto &name : allWorkloadNames()) {
        auto wl = makeWorkload(name);
        ASSERT_NE(wl, nullptr);
        EXPECT_EQ(wl->name(), name);
    }
    EXPECT_EQ(microbenchNames().size(), 5u);
    EXPECT_EQ(whisperNames().size(), 4u);
    EXPECT_EQ(oltpNames().size(), 2u);
}

TEST(WorkloadRegistryDeath, UnknownWorkloadIsFatal)
{
    EXPECT_EXIT(makeWorkload("no-such-workload"),
                ::testing::ExitedWithCode(1), "unknown workload");
}

TEST(DriverDeath, TooManyThreadsIsFatal)
{
    RunSpec spec;
    spec.workload = "sps";
    spec.params.threads = 8;
    spec.sys = SystemConfig::scaled(2);
    EXPECT_EXIT(runWorkload(spec), ::testing::ExitedWithCode(1),
                "threads but only");
}

TEST(DriverDeath, CrashWithoutJournalIsFatal)
{
    RunSpec spec;
    spec.workload = "sps";
    spec.params.threads = 1;
    spec.sys = SystemConfig::scaled(1);
    spec.crashAt = 1000;
    EXPECT_EXIT(runWorkload(spec), ::testing::ExitedWithCode(1),
                "crashJournal");
}

TEST(Driver, CrashAfterCompletionIsGraceful)
{
    RunSpec spec;
    spec.workload = "sps";
    spec.mode = PersistMode::Fwb;
    spec.params.threads = 1;
    spec.params.txPerThread = 5;
    spec.params.footprint = 128;
    spec.sys = SystemConfig::scaled(1);
    spec.sys.persist.crashJournal = true;
    spec.crashAt = kTickNever - 1; // far beyond the run
    auto outcome = runWorkload(spec);
    EXPECT_FALSE(outcome.crashed);
    EXPECT_TRUE(outcome.verified);
    EXPECT_EQ(outcome.stats.committedTx, 5u);
}

TEST(Driver, ResultsAreReproducible)
{
    auto run = [] {
        RunSpec spec;
        spec.workload = "hash";
        spec.mode = PersistMode::UndoClwb;
        spec.params.threads = 2;
        spec.params.txPerThread = 100;
        spec.params.footprint = 256;
        spec.params.seed = 99;
        spec.sys = SystemConfig::scaled(2);
        return runWorkload(spec);
    };
    auto a = run();
    auto b = run();
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.instr.total, b.stats.instr.total);
    EXPECT_EQ(a.stats.nvramWriteBytes, b.stats.nvramWriteBytes);
    EXPECT_EQ(a.endTick, b.endTick);
}

TEST(Driver, SeedChangesExecution)
{
    auto run = [](std::uint64_t seed) {
        RunSpec spec;
        spec.workload = "hash";
        spec.mode = PersistMode::Fwb;
        spec.params.threads = 1;
        spec.params.txPerThread = 200;
        spec.params.footprint = 256;
        spec.params.seed = seed;
        spec.sys = SystemConfig::scaled(1);
        return runWorkload(spec);
    };
    EXPECT_NE(run(1).stats.cycles, run(2).stats.cycles);
}

TEST(Driver, StatsExcludeFinalFlush)
{
    RunSpec spec;
    spec.workload = "sps";
    spec.mode = PersistMode::NonPers;
    spec.params.threads = 1;
    spec.params.txPerThread = 200;
    spec.params.footprint = 1024;
    spec.sys = SystemConfig::scaled(1);

    // A run that does not verify flushes nothing; one that does
    // flushes after its statistics are taken.
    spec.verifyAtEnd = false;
    auto without = runWorkload(spec);
    spec.verifyAtEnd = true;
    auto with = runWorkload(spec);
    // Cycles and traffic are identical: the flush serves
    // verification only.
    EXPECT_EQ(without.stats.cycles, with.stats.cycles);
    EXPECT_EQ(without.stats.nvramWrites, with.stats.nvramWrites);
}

TEST(Driver, FlushesOnlyWhenItVerifies)
{
    // The figure programs do not verify, so their cells must not pay
    // for writing back caches nobody reads.
    RunSpec spec;
    spec.workload = "sps";
    spec.mode = PersistMode::Fwb;
    spec.params.threads = 1;
    spec.params.txPerThread = 200;
    spec.params.footprint = 1024;
    spec.sys = SystemConfig::scaled(1);
    for (bool verify : {false, true}) {
        spec.verifyAtEnd = verify;
        LiveCell cell(spec);
        cell.run();
        const auto &nvram = cell.system().mem().nvram();
        const std::uint64_t before = nvram.writes.value();
        EXPECT_TRUE(cell.finish().verified);
        if (verify)
            EXPECT_GT(nvram.writes.value(), before);
        else
            EXPECT_EQ(nvram.writes.value(), before);
    }
}

TEST(Driver, VerificationCatchesCorruption)
{
    // Run sps gracefully, then corrupt the NVRAM image by hand and
    // re-verify through the workload's checker.
    SystemConfig cfg = SystemConfig::scaled(1);
    System sys(cfg, PersistMode::Fwb);
    auto wl = makeWorkload("sps");
    WorkloadParams params;
    params.threads = 1;
    params.txPerThread = 10;
    params.footprint = 128;
    wl->setup(sys, params);
    sys.spawn(0, [&](Thread &t) {
        return wl->thread(sys, t, params);
    });
    Tick end = sys.run();
    sys.flushAll(end);
    std::string why;
    ASSERT_TRUE(wl->verify(sys.mem().nvram().store(), &why)) << why;
    // Corrupt one element: the sum/xor invariant must now fail.
    sys.mem().nvram().functionalWrite(
        cfg.map.heapBase(), 8, "\xff\xff\xff\xff\xff\xff\xff\xff");
    EXPECT_FALSE(wl->verify(sys.mem().nvram().store(), &why));
    EXPECT_FALSE(why.empty());
}
