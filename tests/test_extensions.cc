/**
 * @file
 * Tests for the Section III-F extensions: distributed per-thread
 * logs (per-core regions, per-core routing, recovery as shards routed
 * by core) and the NVRAM wear/lifetime accounting.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/system.hh"
#include "crashlab/lifecycle.hh"
#include "persist/recovery.hh"
#include "workloads/driver.hh"

using namespace snf;
using namespace snf::workloads;

namespace
{

SystemConfig
distCfg(std::uint32_t cores, bool journal = false)
{
    SystemConfig cfg = SystemConfig::scaled(cores);
    cfg.persist.logShards = PersistConfig::kPerCoreLogs;
    cfg.persist.crashJournal = journal;
    return cfg;
}

sim::Co<void>
writerThread(Thread &t, Addr base, int iters)
{
    Addr mine = base + t.id() * 64;
    for (int i = 0; i < iters; ++i) {
        co_await t.txBegin();
        co_await t.store64(mine, i + 1);
        co_await t.txCommit();
    }
}

} // namespace

TEST(DistributedLogs, OnePartitionPerCore)
{
    System sys(distCfg(4), PersistMode::Fwb);
    EXPECT_EQ(sys.logPartitionCount(), 4u);
    EXPECT_EQ(sys.config().map.logShards, 4u);
}

TEST(DistributedLogs, CentralizedByDefault)
{
    System sys(SystemConfig::scaled(4), PersistMode::Fwb);
    EXPECT_EQ(sys.logPartitionCount(), 1u);
}

TEST(DistributedLogs, SoftwareModesStayCentralized)
{
    // Only hardware logging splits the log per core, so a software
    // or non-logging mode keeps one region at any core count, even
    // where per-core regions could not divide the log.
    for (std::uint32_t cores : {1u, 3u, 4u, 5u, 8u}) {
        for (PersistMode m : {PersistMode::UndoClwb,
                              PersistMode::RedoClwb,
                              PersistMode::NonPers}) {
            System sys(distCfg(cores), m);
            EXPECT_EQ(sys.logPartitionCount(), 1u)
                << cores << " cores, " << persistModeName(m);
            EXPECT_EQ(sys.config().map.logShards, 1u);
        }
    }
}

TEST(DistributedLogs, FwbPeriodFollowsTheResolvedLayout)
{
    // One hot thread wraps its own per-core region four times sooner
    // than the whole log, so the scan period shrinks with the region.
    // Address shards fill in parallel and keep the whole log's period.
    System central(SystemConfig::scaled(4), PersistMode::Fwb);
    System perCore(distCfg(4), PersistMode::Fwb);
    SystemConfig shardCfg = SystemConfig::scaled(4);
    shardCfg.persist.logShards = 4;
    System sharded(shardCfg, PersistMode::Fwb);
    EXPECT_EQ(sharded.fwb()->period(), central.fwb()->period());
    EXPECT_NEAR(static_cast<double>(central.fwb()->period()) /
                    static_cast<double>(perCore.fwb()->period()),
                4.0, 0.1);
}

TEST(DistributedLogsDeathTest, RejectsRegionsThatDoNotDivideTheLog)
{
    // Three per-core regions of a 256 KB log would start 21 and 42
    // bytes into a line, so headers and slots would straddle lines.
    // Per-core regions obey the rule address shards do.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT({ System sys(distCfg(3), PersistMode::Fwb); },
                ::testing::ExitedWithCode(1), "not divisible into 3");
    SystemConfig shards = SystemConfig::scaled(3);
    shards.persist.logShards = 3;
    EXPECT_EXIT({ System sys(shards, PersistMode::Fwb); },
                ::testing::ExitedWithCode(1), "not divisible into 3");
}

TEST(DistributedLogs, RecordsRouteByCore)
{
    System sys(distCfg(2), PersistMode::Fwb);
    Addr base = sys.heap().alloc(256, 64);
    for (CoreId c = 0; c < 2; ++c) {
        sys.spawn(c, [&](Thread &t) {
            return writerThread(t, base, 10);
        });
    }
    sys.run();
    // Each core appended its update + commit records to its own
    // partition: 20 records each.
    EXPECT_EQ(sys.logPartition(0).appends.value(), 20u);
    EXPECT_EQ(sys.logPartition(1).appends.value(), 20u);
}

TEST(DistributedLogs, RecoverySpansAllPartitions)
{
    SystemConfig cfg = distCfg(2, /*journal=*/true);
    System sys(cfg, PersistMode::Fwb);
    Addr base = sys.heap().alloc(256, 64);
    for (CoreId c = 0; c < 2; ++c) {
        sys.spawn(c, [&](Thread &t) {
            return writerThread(t, base, 5);
        });
    }
    Tick end = sys.run();
    mem::BackingStore snap = sys.crashSnapshot(end);
    // Note: recovery needs the SYSTEM's address map, which carries
    // the partition count chosen at construction.
    auto report = persist::Recovery::run(snap, sys.config().map);
    EXPECT_EQ(report.committedTxns, 10u);
    EXPECT_EQ(snap.read64(base), 5u);
    EXPECT_EQ(snap.read64(base + 64), 5u);
    // Per-core regions are recovered as shards: one summary each.
    ASSERT_EQ(report.shards.size(), 2u);
    EXPECT_EQ(report.shards[0].salvagedTxns, 5u);
    EXPECT_EQ(report.shards[1].salvagedTxns, 5u);
}

TEST(DistributedLogs, RecoveryReentrantAtEveryWriteBudget)
{
    // Per-core regions truncate through the merged protocol: every
    // region's flag is raised before any slot array is zeroed. A
    // recovery cut after any number of line writes, then re-run, must
    // converge on the uninterrupted pass's image, and a further pass
    // over that image must have nothing left to apply.
    SystemConfig cfg = distCfg(2, /*journal=*/true);
    System sys(cfg, PersistMode::Fwb);
    Addr base = sys.heap().alloc(256, 64);
    for (CoreId c = 0; c < 2; ++c) {
        sys.spawn(c, [&](Thread &t) {
            return writerThread(t, base, 5);
        });
    }
    Tick end = sys.run();
    mem::BackingStore snap = sys.crashSnapshot(end);
    const AddressMap &map = sys.config().map;

    persist::RecoveryOptions opts;
    std::vector<crashlab::Violation> v =
        crashlab::checkRecoveryReentrancy(snap, map, opts, 1);
    for (const crashlab::Violation &viol : v)
        ADD_FAILURE() << viol.invariant << ": " << viol.detail;

    mem::BackingStore ref = snap;
    auto full = persist::Recovery::run(ref, map, opts);
    EXPECT_GT(full.redoApplied, 0u);
    EXPECT_GT(full.writesIssued, 2u);
    mem::BackingStore again = ref;
    auto rerun = persist::Recovery::run(again, map, opts);
    EXPECT_EQ(rerun.validRecords, 0u);
    EXPECT_EQ(rerun.redoApplied + rerun.undoApplied, 0u);
    EXPECT_FALSE(
        again.firstDifference(ref, ref.base(), ref.size()).has_value());
}

TEST(DistributedLogsDeathTest, RejectsWorkloadWithSharedData)
{
    // vacation's reservations share resource rows between threads,
    // and so do the OLTP engines under a CC scheme (TPC-C with fewer
    // warehouses than threads, YCSB over the whole keyspace):
    // per-core regions could not order their writes at recovery. A
    // crash sweep's reference run is held to the same rule.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto sharedCell = [](const char *wl, CcMode cc) {
        RunSpec spec;
        spec.workload = wl;
        spec.mode = PersistMode::Fwb;
        spec.params.threads = 2;
        spec.sys = distCfg(2, /*journal=*/true);
        spec.sys.persist.ccMode = cc;
        spec.crashAt = 20000;
        return spec;
    };
    RunSpec tpcc = sharedCell("oltp-tpcc", CcMode::TwoPhase);
    tpcc.params.warehouses = 1;
    for (const RunSpec &spec :
         {sharedCell("vacation", CcMode::None), tpcc,
          sharedCell("oltp-ycsb", CcMode::Tl2)}) {
        EXPECT_EXIT(runWorkload(spec), ::testing::ExitedWithCode(1),
                    "--distributed-log")
            << spec.workload;
        crashlab::SweepConfig sweep;
        sweep.run = spec;
        EXPECT_EXIT(crashlab::runCrashSweep(sweep),
                    ::testing::ExitedWithCode(1), "--distributed-log")
            << spec.workload << " (crash sweep)";
    }
    // Software modes keep the centralized log, so the flag is inert.
    RunSpec spec = sharedCell("vacation", CcMode::None);
    spec.mode = PersistMode::UndoClwb;
    spec.crashAt.reset();
    spec.params.txPerThread = 10;
    EXPECT_TRUE(runWorkload(spec).verified);
}

TEST(DistributedLogs, WorkloadsVerifyUnderDistributedFwb)
{
    for (const auto &wl : {"hash", "sps", "oltp-tpcc", "oltp-ycsb"}) {
        RunSpec spec;
        spec.workload = wl;
        spec.mode = PersistMode::Fwb;
        spec.params.threads = 4;
        spec.params.txPerThread = 80;
        spec.params.footprint = 512;
        spec.sys = distCfg(4);
        auto outcome = runWorkload(spec);
        EXPECT_TRUE(outcome.verified)
            << wl << ": " << outcome.verifyMessage;
        EXPECT_EQ(outcome.stats.orderViolations, 0u) << wl;
        EXPECT_EQ(outcome.stats.overwriteHazards, 0u) << wl;
    }
}

TEST(DistributedLogs, CrashRecoveryUnderDistributedFwb)
{
    // Distributed logs require thread-private persistent data (the
    // paper's one-transaction-stream-per-thread model, Figure 4):
    // without a global LSN, committed writes to SHARED addresses
    // from different partitions cannot be ordered at recovery. The
    // partitioned workloads satisfy this, and so do the OLTP engines
    // without a CC scheme; vacation and the engines under one
    // (shared writes) must use the centralized log, and runWorkload
    // rejects them (RejectsWorkloadWithSharedData above).
    for (const auto &wl : {"oltp-tpcc", "oltp-ycsb", "hash", "echo"}) {
        RunSpec spec;
        spec.workload = wl;
        spec.mode = PersistMode::Fwb;
        spec.params.threads = 2;
        spec.params.txPerThread = 600;
        spec.params.footprint = 256;
        spec.sys = distCfg(2, /*journal=*/true);
        spec.crashAt = 70000;
        auto outcome = runWorkload(spec);
        EXPECT_TRUE(outcome.verified)
            << wl << ": " << outcome.verifyMessage;
    }
}

TEST(DistributedLogs, TpccCrashSweepOverPerCoreRegions)
{
    // Without a CC scheme each TPC-C thread stays in its own
    // warehouse, so its log may live in its core's region. Every
    // sampled crash point must pass I1-I8 and the TPC-C oracle, also
    // after the 4-thread cell's regions wrap.
    for (std::uint32_t threads : {2u, 4u}) {
        crashlab::SweepConfig cfg;
        cfg.run.workload = "oltp-tpcc";
        cfg.run.mode = PersistMode::Fwb;
        cfg.run.params.threads = threads;
        cfg.run.params.txPerThread = 150;
        cfg.run.params.footprint = 256;
        cfg.run.params.seed = 3;
        cfg.run.sys = distCfg(threads, /*journal=*/true);
        cfg.jobs = 2;
        cfg.maxPoints = 300;
        auto res = crashlab::runCrashSweep(cfg);
        EXPECT_TRUE(res.refVerified) << res.refVerifyMessage;
        EXPECT_EQ(res.pointsTested, 300u) << threads;
        EXPECT_TRUE(res.passed()) << threads << ": " << res.minimizedDetail;
        if (threads == 4) {
            EXPECT_GT(res.refLogWraps, 0u);
        }
    }
}

TEST(DistributedLogs, NoThreadIdNeededPerRecord)
{
    // With per-thread logs the paper notes records need no thread id;
    // our records keep the field, but every record in partition p
    // must carry thread p (sanity on the routing).
    SystemConfig cfg = distCfg(2, /*journal=*/true);
    System sys(cfg, PersistMode::Fwb);
    Addr base = sys.heap().alloc(256, 64);
    for (CoreId c = 0; c < 2; ++c) {
        sys.spawn(c, [&](Thread &t) {
            return writerThread(t, base, 3);
        });
    }
    Tick end = sys.run();
    mem::BackingStore snap = sys.crashSnapshot(end);
    std::uint64_t part_bytes = cfg.map.logSize / 2;
    for (std::uint32_t p = 0; p < 2; ++p) {
        Addr slot0 = cfg.map.logBase() + p * part_bytes +
                     persist::LogRegion::kHeaderBytes;
        std::uint8_t img[persist::LogRecord::kSlotBytes];
        snap.read(slot0, sizeof(img), img);
        bool torn = false;
        auto rec = persist::LogRecord::deserialize(img, torn);
        ASSERT_TRUE(rec.has_value());
        EXPECT_EQ(rec->thread, p);
    }
}

// ----------------------------- wear ------------------------------

TEST(Wear, ReportCountsRowWrites)
{
    MemDeviceConfig cfg;
    cfg.sizeBytes = 1 << 24;
    mem::MemDevice dev("w", cfg, 0);
    std::uint8_t buf[64] = {};
    for (int i = 0; i < 10; ++i)
        dev.access(true, 0, 64, buf, nullptr, i * 1000);
    dev.access(true, 4096, 64, buf, nullptr, 99000);
    auto r = dev.wearReport();
    EXPECT_EQ(r.totalWrites, 11u);
    EXPECT_EQ(r.rowsTouched, 2u);
    EXPECT_EQ(r.hottestRowWrites, 10u);
    EXPECT_NEAR(r.meanWritesPerTouchedRow, 5.5, 1e-9);
}

TEST(Wear, LifetimeProjectionMatchesPaperArithmetic)
{
    // Paper Section III-F: a log cell overwritten every
    // 64K x 200 ns wears out a 1e8-endurance cell in ~15 days.
    mem::MemDevice::WearReport r;
    r.hottestRowWrites = 1000;
    // 1000 writes over 64K x 200ns x 1000 elapsed = one write per
    // 64K x 200 ns = 32.768 ms per 1000 writes at 2.5 GHz:
    Tick elapsed = static_cast<Tick>(1000.0 * 65536 * 200 * 2.5);
    double secs = r.hottestRowLifetimeSeconds(100000000, elapsed, 2.5);
    double days = secs / 86400.0;
    EXPECT_NEAR(days, 15.2, 0.5);
}

TEST(Wear, InfiniteLifetimeWithoutWrites)
{
    mem::MemDevice::WearReport r;
    EXPECT_TRUE(std::isinf(
        r.hottestRowLifetimeSeconds(100000000, 1000, 2.5)));
}

TEST(Wear, LogRegionWearsUniformly)
{
    // The circular log's writes spread across its rows: after a few
    // wraps the hottest log row is within ~2x of the mean.
    RunSpec spec;
    spec.workload = "sps";
    spec.mode = PersistMode::Fwb;
    spec.params.threads = 1;
    spec.params.txPerThread = 3000;
    spec.params.footprint = 1024;
    spec.sys = SystemConfig::scaled(1);
    spec.sys.map.logSize = 32 * 1024;
    auto outcome = runWorkload(spec);
    ASSERT_GT(outcome.stats.logWraps, 1u);
    (void)outcome;
    SUCCEED();
}
