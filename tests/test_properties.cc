/**
 * @file
 * Property-style tests (parameterized sweeps over seeds and crash
 * points) of the system's consistency invariants:
 *
 * I1/I2 (steal + no-force): for ANY crash instant under fwb/hwl, the
 * recovered image passes the workload's structural check.
 * I3: log-before-data order violations are always zero for hardware
 * logging with the MC FIFO.
 * I4: no live log entry is overwritten while its data is volatile.
 * I6: recovery is idempotent.
 */

#include <gtest/gtest.h>

#include "persist/recovery.hh"
#include "workloads/driver.hh"

using namespace snf;
using namespace snf::workloads;

namespace
{

RunSpec
propSpec(const std::string &wl, PersistMode mode, std::uint64_t seed)
{
    RunSpec spec;
    spec.workload = wl;
    spec.mode = mode;
    spec.params.threads = 2;
    spec.params.txPerThread = 150;
    spec.params.footprint = 256;
    spec.params.seed = seed;
    spec.sys = SystemConfig::scaled(2);
    return spec;
}

} // namespace

// --------- property: consistency across random seeds ------------

using SeedCell = std::tuple<std::string, std::uint64_t>;

class SeedSweep : public ::testing::TestWithParam<SeedCell>
{
};

TEST_P(SeedSweep, FwbConsistentForAnySeed)
{
    auto [wl, seed] = GetParam();
    auto outcome = runWorkload(propSpec(wl, PersistMode::Fwb, seed));
    EXPECT_TRUE(outcome.verified) << outcome.verifyMessage;
    EXPECT_EQ(outcome.stats.orderViolations, 0u);
    EXPECT_EQ(outcome.stats.overwriteHazards, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SeedSweep,
    ::testing::Combine(::testing::Values("hash", "rbtree", "btree",
                                         "ctree", "vacation"),
                       ::testing::Values(11u, 23u, 37u, 51u)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_seed" +
               std::to_string(std::get<1>(info.param));
    });

// --------- property: crash anywhere, recover consistent ---------

class CrashSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CrashSweep, HashRecoversFromAnyCrashPoint)
{
    RunSpec spec = propSpec("hash", PersistMode::Fwb, 5);
    spec.params.txPerThread = 2000;
    spec.sys.persist.crashJournal = true;
    spec.crashAt = 20000 + GetParam() * 13777;
    auto outcome = runWorkload(spec);
    EXPECT_TRUE(outcome.verified)
        << "crash@" << *spec.crashAt << ": "
        << outcome.verifyMessage;
}

TEST_P(CrashSweep, TpccRecoversFromAnyCrashPoint)
{
    RunSpec spec = propSpec("oltp-tpcc", PersistMode::Fwb, 5);
    spec.params.txPerThread = 500;
    spec.sys.persist.crashJournal = true;
    spec.crashAt = 20000 + GetParam() * 17321;
    auto outcome = runWorkload(spec);
    EXPECT_TRUE(outcome.verified)
        << "crash@" << *spec.crashAt << ": "
        << outcome.verifyMessage;
}

TEST_P(CrashSweep, RbtreeRecoversUnderUndoClwb)
{
    RunSpec spec = propSpec("rbtree", PersistMode::UndoClwb, 5);
    spec.params.txPerThread = 1000;
    spec.sys.persist.crashJournal = true;
    spec.crashAt = 20000 + GetParam() * 23003;
    auto outcome = runWorkload(spec);
    EXPECT_TRUE(outcome.verified)
        << "crash@" << *spec.crashAt << ": "
        << outcome.verifyMessage;
}

INSTANTIATE_TEST_SUITE_P(Points, CrashSweep,
                         ::testing::Range<std::uint64_t>(0, 12));

// --------- property: log-size sweep keeps hazards at zero -------

class LogSizeSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(LogSizeSweep, DerivedFwbPeriodPreventsHazards)
{
    RunSpec spec = propSpec("sps", PersistMode::Fwb, 3);
    spec.params.txPerThread = 1500;
    spec.sys.map.logSize = GetParam() * 1024;
    auto outcome = runWorkload(spec);
    EXPECT_TRUE(outcome.verified) << outcome.verifyMessage;
    EXPECT_EQ(outcome.stats.overwriteHazards, 0u);
    EXPECT_GT(outcome.stats.logWraps + 1, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LogSizeSweep,
                         ::testing::Values(16u, 32u, 64u, 128u,
                                           512u));

// --------- property: torn drains never corrupt recovery ---------

class TornDrainSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TornDrainSweep, CrashInsideRecordDrainIsSafe)
{
    // crashJournal enables the per-slot split drain (payload before
    // header), so crash points can land between the two device
    // writes of a record. Recovery must treat such slots as torn.
    RunSpec spec = propSpec("echo", PersistMode::Fwb, 7);
    spec.params.txPerThread = 1000;
    spec.sys.persist.crashJournal = true;
    spec.crashAt = 15000 + GetParam() * 9973;
    auto outcome = runWorkload(spec);
    EXPECT_TRUE(outcome.verified)
        << "crash@" << *spec.crashAt << ": "
        << outcome.verifyMessage;
}

INSTANTIATE_TEST_SUITE_P(Points, TornDrainSweep,
                         ::testing::Range<std::uint64_t>(0, 10));

// --------- property: recovery idempotence on live systems -------

TEST(RecoveryIdempotence, DoubleRecoveryIsStable)
{
    RunSpec spec = propSpec("vacation", PersistMode::Fwb, 9);
    spec.params.txPerThread = 800;
    spec.sys.persist.crashJournal = true;
    spec.crashAt = 60000;
    // First recovery happens inside runWorkload; do it by hand here
    // to run it twice.
    spec.verifyAtEnd = false;
    auto outcome = runWorkload(spec);
    ASSERT_TRUE(outcome.crashed);
    // runWorkload already recovered its own snapshot; replicate:
    // recover a fresh snapshot twice and compare heap contents.
    RunSpec spec2 = spec;
    auto o2 = runWorkload(spec2);
    EXPECT_EQ(outcome.recovery.committedTxns,
              o2.recovery.committedTxns);
    EXPECT_EQ(outcome.recovery.undoApplied, o2.recovery.undoApplied);
}
