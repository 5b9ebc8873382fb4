/**
 * @file
 * Integration tests: every workload runs and passes its structural
 * consistency check under every persistence mode, single- and
 * multi-threaded, with int and string value variants, and survives
 * mid-run crashes under the modes that guarantee persistence
 * (undo-clwb, hwl, fwb).
 */

#include <gtest/gtest.h>

#include "workloads/driver.hh"

using namespace snf;
using namespace snf::workloads;

namespace
{

RunSpec
baseSpec(const std::string &wl, PersistMode mode, std::uint32_t threads)
{
    RunSpec spec;
    spec.workload = wl;
    spec.mode = mode;
    spec.params.threads = threads;
    spec.params.txPerThread = 60;
    spec.params.footprint = 256;
    spec.sys = SystemConfig::scaled(threads);
    return spec;
}

std::string
cellName(const std::string &wl, PersistMode m)
{
    std::string n = wl + "_" + persistModeName(m);
    for (auto &c : n)
        if (c == '-')
            c = '_';
    return n;
}

} // namespace

using Cell = std::tuple<std::string, PersistMode>;

class WorkloadMatrix : public ::testing::TestWithParam<Cell>
{
};

TEST_P(WorkloadMatrix, TwoThreadsRunAndVerify)
{
    auto [wl, mode] = GetParam();
    auto outcome = runWorkload(baseSpec(wl, mode, 2));
    EXPECT_TRUE(outcome.verified) << outcome.verifyMessage;
    EXPECT_EQ(outcome.stats.committedTx,
              outcome.stats.committedTx == 0
                  ? 0
                  : outcome.stats.committedTx);
    EXPECT_GT(outcome.stats.committedTx, 0u);
}

namespace
{

std::vector<Cell>
allCells()
{
    std::vector<Cell> cells;
    for (const auto &wl : allWorkloadNames())
        for (PersistMode m : kAllModes)
            cells.emplace_back(wl, m);
    return cells;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(All, WorkloadMatrix,
                         ::testing::ValuesIn(allCells()),
                         [](const auto &info) {
                             return cellName(
                                 std::get<0>(info.param),
                                 std::get<1>(info.param));
                         });

class WorkloadStrings
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadStrings, StringVariantRunsUnderFwb)
{
    RunSpec spec = baseSpec(GetParam(), PersistMode::Fwb, 2);
    spec.params.stringValues = true;
    auto outcome = runWorkload(spec);
    EXPECT_TRUE(outcome.verified) << outcome.verifyMessage;
}

INSTANTIATE_TEST_SUITE_P(
    Micro, WorkloadStrings,
    ::testing::ValuesIn(std::vector<std::string>{
        "hash", "rbtree", "sps", "btree", "ctree"}));

// ---------------------------------------------------------------
// Crash + recovery across the guaranteed modes.
// ---------------------------------------------------------------

using CrashCell = std::tuple<std::string, PersistMode, std::uint64_t>;

class WorkloadCrash : public ::testing::TestWithParam<CrashCell>
{
};

TEST_P(WorkloadCrash, CrashRecoverVerify)
{
    auto [wl, mode, crash_at] = GetParam();
    RunSpec spec = baseSpec(wl, mode, 2);
    spec.sys.persist.crashJournal = true;
    spec.params.txPerThread = 300;
    spec.crashAt = crash_at;
    auto outcome = runWorkload(spec);
    EXPECT_TRUE(outcome.verified)
        << wl << "/" << persistModeName(mode) << " @" << crash_at
        << ": " << outcome.verifyMessage;
}

namespace
{

std::vector<CrashCell>
crashCells()
{
    std::vector<CrashCell> cells;
    // undo-clwb, hwl, and fwb guarantee recoverability; several crash
    // points per workload catch different in-flight states.
    for (const auto &wl : allWorkloadNames()) {
        for (PersistMode m :
             {PersistMode::UndoClwb, PersistMode::Hwl,
              PersistMode::Fwb}) {
            for (std::uint64_t at :
                 {50000ULL, 137000ULL, 390000ULL})
                cells.emplace_back(wl, m, at);
        }
    }
    return cells;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    All, WorkloadCrash, ::testing::ValuesIn(crashCells()),
    [](const auto &info) {
        return cellName(std::get<0>(info.param),
                        std::get<1>(info.param)) +
               "_at" + std::to_string(std::get<2>(info.param));
    });

// ------------------------------------------------------------------
// Figure 6's shape: FWB needs no clwb and no per-store log write, so
// it is the fastest persistent mode. Two rows of Figure 6 as
// fig6to9_microbench runs them (400 tx per thread, 131 072 elements,
// scaled preset): fwb's tx/Mcycle is at least the better clwb
// scheme's.
// ------------------------------------------------------------------

namespace
{

double
fig6TxPerMcycle(const std::string &wl, PersistMode mode,
                std::uint32_t threads)
{
    RunSpec spec = baseSpec(wl, mode, threads);
    spec.params.txPerThread = 400;
    spec.params.footprint = 131072;
    spec.verifyAtEnd = false;
    return runWorkload(spec).stats.txPerMcycle;
}

void
expectFwbLeadsClwb(const std::string &wl, std::uint32_t threads)
{
    double fwb = fig6TxPerMcycle(wl, PersistMode::Fwb, threads);
    double redo = fig6TxPerMcycle(wl, PersistMode::RedoClwb, threads);
    double undo = fig6TxPerMcycle(wl, PersistMode::UndoClwb, threads);
    EXPECT_GE(fwb, std::max(redo, undo))
        << wl << "-" << threads << "t: fwb " << fwb << ", redo-clwb "
        << redo << ", undo-clwb " << undo << " tx/Mcycle";
}

} // namespace

TEST(Fig6Shape, FwbLeadsClwbOnSps8Threads)
{
    expectFwbLeadsClwb("sps", 8);
}

TEST(Fig6Shape, FwbLeadsClwbOnRbtree4Threads)
{
    expectFwbLeadsClwb("rbtree", 4);
}
