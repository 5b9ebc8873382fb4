/**
 * @file
 * Crash-sweep subsystem tests: a sampled crash-point sweep per
 * persistence mode (which exercises the recovery-idempotence
 * invariants, I6, in every mode), the cross-mode oracle (identical
 * single-threaded traces must leave identical heap images under
 * every scheme), and the fault-injection self-test (a deliberately
 * broken recovery must be caught and minimized).
 *
 * Set SNF_CRASH_FULL=1 (the ctest "crash" label does) to sweep every
 * harvested crash point instead of a deterministic sample.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "crashlab/report.hh"
#include "crashlab/sweep.hh"
#include "persist/recovery.hh"
#include "sim/json.hh"
#include "workloads/driver.hh"

using namespace snf;
using namespace snf::crashlab;
using namespace snf::workloads;

namespace
{

/** Crash points per cell: a small sample, or all under the label. */
std::size_t
sampleCap()
{
    const char *full = std::getenv("SNF_CRASH_FULL");
    return (full && full[0] == '1') ? 0 : 12;
}

SweepConfig
smallSweep(PersistMode mode)
{
    SweepConfig cfg;
    cfg.run.workload = "sps";
    cfg.run.mode = mode;
    cfg.run.params.threads = 2;
    cfg.run.params.txPerThread = 30;
    cfg.run.params.seed = 11;
    cfg.jobs = 2;
    cfg.maxPoints = sampleCap();
    return cfg;
}

} // namespace

// Every persistence mode must survive its sampled sweep: recovery is
// idempotent (replay twice = replay once; recover the recovered
// image = no-op), the counting invariants hold against the probe
// trace, and — for the failure-atomic modes — the workload verifies
// on every recovered image.
TEST(CrashSweep, AllModesPassSampledSweep)
{
    for (PersistMode mode : kAllModes) {
        SCOPED_TRACE(persistModeName(mode));
        SweepResult res = runCrashSweep(smallSweep(mode));
        EXPECT_TRUE(res.refVerified) << res.refVerifyMessage;
        EXPECT_GT(res.pointsHarvested, 0u);
        EXPECT_EQ(res.pointsFailed, 0u)
            << res.failures.front().violations.front().invariant
            << ": "
            << res.failures.front().violations.front().detail;
    }
}

// The acceptance cell from the tooling docs: sps under fwb, a
// larger sweep, multiple workers.
TEST(CrashSweep, FwbAcceptanceCell)
{
    SweepConfig cfg = smallSweep(PersistMode::Fwb);
    cfg.run.params.txPerThread = 50;
    cfg.jobs = 4;
    cfg.maxPoints = sampleCap() ? 40 : 0;
    SweepResult res = runCrashSweep(cfg);
    EXPECT_TRUE(res.passed());
    EXPECT_GE(res.pointsTested, std::min<std::size_t>(
                                    res.pointsHarvested, 40));
}

// Cross-mode oracle: a single-threaded workload issues the same
// logical operation sequence under every persistence scheme (only
// timing differs), so after a graceful run + flush the heap images
// must agree byte for byte with the non-persistent golden run — and
// recovering that flushed image (all transactions committed) must
// not change the heap.
TEST(CrashSweep, CrossModeOracle)
{
    const PersistMode modes[] = {
        PersistMode::UnsafeRedo, PersistMode::UnsafeUndo,
        PersistMode::RedoClwb,   PersistMode::UndoClwb,
        PersistMode::Hwl,        PersistMode::Fwb,
    };

    WorkloadParams params;
    params.threads = 1;
    params.txPerThread = 40;
    params.seed = 23;

    auto runCell = [&](PersistMode mode, mem::BackingStore *imageOut,
                       Addr *heapBase, std::uint64_t *heapBytes,
                       AddressMap *mapOut) {
        SystemConfig cfg = SystemConfig::scaled();
        System sys(cfg, mode);
        auto wl = makeWorkload("sps");
        wl->setup(sys, params);
        sys.spawn(0, [&](Thread &t) -> sim::Co<void> {
            return wl->thread(sys, t, params);
        });
        Tick end = sys.run();
        sys.flushAll(end);
        std::string why;
        EXPECT_TRUE(wl->verify(sys.mem().nvram().store(), &why))
            << persistModeName(mode) << ": " << why;
        *imageOut = sys.mem().nvram().store();
        *heapBase = sys.heap().base();
        *heapBytes = sys.heap().allocated();
        *mapOut = sys.config().map;
    };

    mem::BackingStore golden(0, 0);
    Addr goldenHeap = 0;
    std::uint64_t goldenBytes = 0;
    AddressMap goldenMap;
    runCell(PersistMode::NonPers, &golden, &goldenHeap, &goldenBytes,
            &goldenMap);
    ASSERT_GT(goldenBytes, 0u);

    for (PersistMode mode : modes) {
        SCOPED_TRACE(persistModeName(mode));
        mem::BackingStore image(0, 0);
        Addr heapBase = 0;
        std::uint64_t heapBytes = 0;
        AddressMap map;
        runCell(mode, &image, &heapBase, &heapBytes, &map);

        // Identical allocation pattern and final heap contents.
        ASSERT_EQ(heapBase, goldenHeap);
        ASSERT_EQ(heapBytes, goldenBytes);
        auto diff =
            image.firstDifference(golden, heapBase, heapBytes);
        EXPECT_FALSE(diff.has_value())
            << "heap differs from golden at 0x" << std::hex << *diff;

        // Recovery of a fully-committed, fully-flushed image is a
        // heap no-op (redo replay rewrites the values already there).
        mem::BackingStore recovered = image;
        persist::Recovery::run(recovered, map);
        auto rdiff =
            recovered.firstDifference(image, heapBase, heapBytes);
        EXPECT_FALSE(rdiff.has_value())
            << "recovery changed the heap at 0x" << std::hex
            << *rdiff;
    }
}

// Contended shared-data programs: the sweep crashes a conflicting
// prog-workload run at harvested points and recovery must still
// produce a commit-order-consistent image at every one — under both
// CC schemes. Deadlock/validation aborts and their undo chains are
// live at many of these points, so this exercises rollback records
// interleaved with the racing commits.
TEST(CrashSweep, ContendedProgSweepPassesUnderBothCcSchemes)
{
    for (CcMode cc : {CcMode::TwoPhase, CcMode::Tl2}) {
        for (PersistMode mode :
             {PersistMode::UndoClwb, PersistMode::Fwb}) {
            SCOPED_TRACE(std::string(ccModeName(cc)) + "/" +
                         persistModeName(mode));
            SweepConfig cfg;
            cfg.run.workload = "prog";
            cfg.run.mode = mode;
            cfg.run.params.threads = 2;
            cfg.run.params.txPerThread = 6;
            cfg.run.params.seed = 7;
            cfg.run.params.conflictRate = 0.6;
            cfg.run.sys.persist.ccMode = cc;
            cfg.jobs = 2;
            cfg.maxPoints = sampleCap();
            SweepResult res = runCrashSweep(cfg);
            EXPECT_TRUE(res.refVerified) << res.refVerifyMessage;
            EXPECT_GT(res.pointsHarvested, 0u);
            EXPECT_EQ(res.pointsFailed, 0u)
                << res.failures.front()
                       .violations.front()
                       .invariant
                << ": "
                << res.failures.front().violations.front().detail;
        }
    }
}

// Self-test of the detector: recovery that skips the undo phase must
// be caught under undo-clwb (whose commit protocol makes the
// data-durable-before-commit-record window a certainty) and
// minimized to a concrete tick; skipping redo must be caught under
// hwl (committed effects still volatile at the crash need redo).
TEST(CrashSweep, InjectedSkipUndoCaughtAndMinimized)
{
    SweepConfig cfg = smallSweep(PersistMode::UndoClwb);
    cfg.run.params.txPerThread = 40;
    cfg.maxPoints = sampleCap() ? 150 : 0;
    cfg.recovery.faultSkipUndo = true;
    SweepResult res = runCrashSweep(cfg);
    EXPECT_GT(res.pointsFailed, 0u);
    ASSERT_TRUE(res.minimizedTick.has_value());
    EXPECT_GT(*res.minimizedTick, 0u);
    EXPECT_LE(*res.minimizedTick, res.failures.front().point.tick);
    EXPECT_FALSE(res.minimizedDetail.empty());
}

TEST(CrashSweep, InjectedSkipRedoCaughtAndMinimized)
{
    SweepConfig cfg = smallSweep(PersistMode::Hwl);
    cfg.run.params.txPerThread = 40;
    cfg.maxPoints = sampleCap() ? 150 : 0;
    cfg.recovery.faultSkipRedo = true;
    SweepResult res = runCrashSweep(cfg);
    EXPECT_GT(res.pointsFailed, 0u);
    ASSERT_TRUE(res.minimizedTick.has_value());
    EXPECT_FALSE(res.minimizedDetail.empty());
}

// The driver's crash path honors the RunSpec recovery options (this
// is what snfcrash's --inject-* flags ride on).
TEST(CrashSweep, DriverForwardsRecoveryOptions)
{
    RunSpec spec;
    spec.workload = "sps";
    spec.mode = PersistMode::UndoClwb;
    spec.params.threads = 1;
    spec.params.txPerThread = 30;
    spec.sys.persist.crashJournal = true;
    spec.crashAt = 5000;
    spec.recovery.faultSkipUndo = true;
    spec.recovery.faultSkipRedo = true;
    RunOutcome out = runWorkload(spec);
    ASSERT_TRUE(out.crashed);
    EXPECT_EQ(out.recovery.undoApplied, 0u);
    EXPECT_EQ(out.recovery.redoApplied, 0u);
}

// JSON report: escaping and document shape.
TEST(CrashSweep, JsonReport)
{
    auto escaped = [](const std::string &s) {
        std::ostringstream os;
        JsonWriter(os).value(s);
        return os.str();
    };
    EXPECT_EQ(escaped("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    EXPECT_EQ(escaped(std::string(1, '\x01')), "\"\\u0001\"");

    CellResult cell;
    cell.workload = "sps";
    cell.mode = PersistMode::Fwb;
    cell.seed = 1;
    cell.threads = 2;
    cell.txPerThread = 10;
    cell.sweep.pointsHarvested = 5;
    cell.sweep.pointsTested = 5;
    PointOutcome fail;
    fail.point.tick = 42;
    fail.violations.push_back(Violation{"verify", "bad \"value\""});
    cell.sweep.failures.push_back(fail);
    cell.sweep.pointsFailed = 1;
    cell.sweep.minimizedTick = 40;
    cell.sweep.minimizedDetail = "tick 40\n";

    std::ostringstream os;
    writeJsonReport(os, {cell});
    std::string json = os.str();
    EXPECT_NE(json.find("\"mode\": \"fwb\""), std::string::npos);
    EXPECT_NE(json.find("\"tick\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"minimized_tick\": 40"), std::string::npos);
    EXPECT_NE(json.find("bad \\\"value\\\""), std::string::npos);
    EXPECT_NE(json.find("\"cells_failed\": 1"), std::string::npos);
}
