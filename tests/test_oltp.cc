/**
 * @file
 * OLTP engine tests (DESIGN §8, ctest label `oltp`): the TPC-C
 * consistency oracle after clean runs AND after crash-point recovery
 * under every guaranteed mode × CC scheme, the oracle's own teeth (a
 * corrupted image must be rejected), YCSB torn-update detection at a
 * large Zipf-skewed keyspace and the page-wise YCSB verify against a
 * per-word reference, counter determinism across repeats and
 * across host --jobs, the no-steal empty-write-set abort being legal
 * under redo-only logging, the contended multi-shard crash sweep
 * (I1–I8), the latency histogram's quantile contract, and the count
 * of cycles log reclaims wait for forced write-backs.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <tuple>

#include "crashlab/sweep.hh"
#include "oltp/bench.hh"
#include "oltp/latency.hh"
#include "oltp/tpcc.hh"
#include "oltp/ycsb.hh"
#include "workloads/driver.hh"

using namespace snf;
using namespace snf::oltp;
using namespace snf::workloads;

namespace
{

/** A contended OLTP cell: more threads than warehouses. */
RunSpec
oltpSpec(const std::string &wl, PersistMode mode, CcMode cc)
{
    RunSpec spec;
    spec.workload = wl;
    spec.mode = mode;
    spec.params.threads = 4;
    spec.params.txPerThread = 120;
    spec.params.footprint = 64;
    spec.params.warehouses = 2;
    spec.params.seed = 5;
    spec.sys = SystemConfig::scaled(spec.params.threads);
    spec.sys.persist.ccMode = cc;
    return spec;
}

std::string
oltpCellName(const ::testing::TestParamInfo<
             std::tuple<PersistMode, CcMode>> &info)
{
    std::string n =
        std::string(persistModeName(std::get<0>(info.param))) + "_" +
        ccModeName(std::get<1>(info.param));
    for (auto &c : n)
        if (c == '-')
            c = '_';
    return n;
}

} // namespace

// ------------------------------------------------------------------
// TPC-C oracle: clean run and crash-point recovery, every guaranteed
// mode × both CC schemes (the ISSUE acceptance matrix).
// ------------------------------------------------------------------

class TpccOracle
    : public ::testing::TestWithParam<std::tuple<PersistMode, CcMode>>
{
};

TEST_P(TpccOracle, CleanRunSatisfiesInvariants)
{
    auto [mode, cc] = GetParam();
    auto outcome = runWorkload(oltpSpec("oltp-tpcc", mode, cc));
    EXPECT_TRUE(outcome.verified) << outcome.verifyMessage;
    EXPECT_GT(outcome.stats.committedTx, 0u);
}

TEST_P(TpccOracle, CrashPointRecoverySatisfiesInvariants)
{
    auto [mode, cc] = GetParam();
    for (Tick at : {Tick(60000), Tick(390000)}) {
        RunSpec spec = oltpSpec("oltp-tpcc", mode, cc);
        spec.params.txPerThread = 200;
        spec.sys.persist.crashJournal = true;
        spec.crashAt = at;
        auto outcome = runWorkload(spec);
        EXPECT_TRUE(outcome.verified)
            << persistModeName(mode) << "/" << ccModeName(cc) << " @"
            << at << ": " << outcome.verifyMessage;
    }
}

TEST_P(TpccOracle, YcsbCleanAndCrashRecovery)
{
    auto [mode, cc] = GetParam();
    RunSpec spec = oltpSpec("oltp-ycsb", mode, cc);
    spec.params.footprint = 4096;
    spec.params.zipfTheta = 0.9;
    auto outcome = runWorkload(spec);
    EXPECT_TRUE(outcome.verified) << outcome.verifyMessage;

    spec.sys.persist.crashJournal = true;
    spec.crashAt = 90000;
    outcome = runWorkload(spec);
    EXPECT_TRUE(outcome.verified)
        << persistModeName(mode) << "/" << ccModeName(cc) << ": "
        << outcome.verifyMessage;
}

INSTANTIATE_TEST_SUITE_P(
    All, TpccOracle,
    ::testing::Combine(::testing::Values(PersistMode::Fwb,
                                         PersistMode::UndoClwb,
                                         PersistMode::RedoClwb),
                       ::testing::Values(CcMode::TwoPhase,
                                         CcMode::Tl2)),
    oltpCellName);

// ------------------------------------------------------------------
// The oracle has teeth: corrupting one word of a verified image must
// produce a failure with a diagnostic.
// ------------------------------------------------------------------

TEST(TpccOracleTeeth, CorruptedImageIsRejected)
{
    WorkloadParams params;
    params.threads = 2;
    params.txPerThread = 60;
    params.footprint = 48;
    params.warehouses = 2;
    params.seed = 9;

    SystemConfig cfg = SystemConfig::scaled(params.threads);
    cfg.persist.ccMode = CcMode::TwoPhase;
    System sys(cfg, PersistMode::Fwb);
    TpccEngine eng;
    eng.setup(sys, params);
    for (CoreId c = 0; c < params.threads; ++c)
        sys.spawn(c, [&](Thread &t) -> sim::Co<void> {
            return eng.thread(sys, t, params);
        });
    Tick end = sys.run(kTickNever);
    sys.flushAll(end);

    std::string why;
    ASSERT_TRUE(eng.verify(sys.mem().nvram().store(), &why)) << why;

    // Book one phantom dollar into warehouse 0: w_ytd no longer
    // equals the sum of its districts' d_ytd.
    const TpccLayout &lay = eng.layout();
    Addr wytd = lay.warehouseAddr(0);
    std::uint64_t v = sys.mem().nvram().store().read64(wytd) + 1;
    sys.mem().nvram().functionalWrite(wytd, 8, &v);

    EXPECT_FALSE(checkTpccConsistency(sys.mem().nvram().store(), lay,
                                      &why));
    EXPECT_NE(why.find("w_ytd"), std::string::npos) << why;
}

// ------------------------------------------------------------------
// The YCSB oracle has teeth too. verify() walks the image page by
// page (absent pages skipped whole, resident records read in place),
// so it must agree with the per-word reference loop and still reject
// a torn word anywhere in the keyspace.
// ------------------------------------------------------------------

namespace
{

/** A small contended oltp-ycsb cell, kept live for its NVRAM image. */
class YcsbCell
{
  public:
    explicit YcsbCell(CcMode cc)
    {
        params.threads = 4;
        params.txPerThread = 120;
        params.footprint = 65536; // 4 MB of records, mostly untouched
        params.zipfTheta = 0.9;
        params.seed = 5;
        SystemConfig cfg = SystemConfig::scaled(params.threads);
        cfg.persist.ccMode = cc;
        cfg.persist.crashJournal = true;
        sys = std::make_unique<System>(cfg, PersistMode::UndoClwb);
        eng.setup(*sys, params);
        for (CoreId c = 0; c < params.threads; ++c)
            sys->spawn(c, [this](Thread &t) -> sim::Co<void> {
                return eng.thread(*sys, t, params);
            });
    }

    // The spawned threads hold `this`.
    YcsbCell(const YcsbCell &) = delete;
    YcsbCell &operator=(const YcsbCell &) = delete;

    /** Run to completion and flush: the final image. */
    mem::BackingStore
    finalImage()
    {
        sys->flushAll(sys->run(kTickNever));
        return sys->mem().nvram().store();
    }

    /** Crash at @p at and recover: the recovered image. */
    mem::BackingStore
    recoveredImage(Tick at)
    {
        sys->run(at);
        mem::BackingStore image = sys->crashSnapshot(at);
        persist::Recovery::run(image, sys->config().map);
        return image;
    }

    WorkloadParams params;
    std::unique_ptr<System> sys;
    YcsbEngine eng;
};

/** The per-word check verify() replaced: a read64 per word. */
bool
referenceVerify(const YcsbEngine &eng, const mem::BackingStore &image)
{
    for (std::uint64_t k = 0; k < eng.keys(); ++k) {
        Addr rec = eng.recordAddr(k);
        for (std::uint64_t p = 1; p <= YcsbEngine::kPayloadWords; ++p)
            if (image.read64(rec + p * 8) != image.read64(rec))
                return false;
    }
    return true;
}

/** Address of key @p k's payload word @p p. */
Addr
payloadAddr(const YcsbEngine &eng, std::uint64_t k, std::uint64_t p)
{
    return eng.recordAddr(k) + 8 + p * 8;
}

/** Verify @p image and return the diagnostic ("" if it passed). */
std::string
verifyWhy(const YcsbEngine &eng, const mem::BackingStore &image)
{
    std::string why;
    return eng.verify(image, &why) ? std::string() : why;
}

} // namespace

TEST(YcsbOracleTeeth, TornPayloadWordInResidentPageIsRejected)
{
    YcsbCell cell(CcMode::Tl2);
    mem::BackingStore image = cell.finalImage();
    ASSERT_EQ(verifyWhy(cell.eng, image), "");

    // The lowest updated key: its page is resident.
    std::uint64_t k = 0;
    while (k < cell.eng.keys() &&
           image.read64(cell.eng.recordAddr(k)) == 0)
        ++k;
    ASSERT_LT(k, cell.eng.keys());
    std::uint64_t ver = image.read64(cell.eng.recordAddr(k));
    image.write64(payloadAddr(cell.eng, k, 2), ver + 7);

    EXPECT_EQ(verifyWhy(cell.eng, image),
              "key " + std::to_string(k) + ": payload word 2 = " +
                  std::to_string(ver + 7) + " but version " +
                  std::to_string(ver) + " (torn update)");
    EXPECT_FALSE(referenceVerify(cell.eng, image));
}

TEST(YcsbOracleTeeth, StrayWordInUntouchedPageIsRejected)
{
    YcsbCell cell(CcMode::Tl2);
    mem::BackingStore image = cell.finalImage();

    // A key in the middle of the keyspace whose page was never written.
    std::uint64_t k = cell.eng.keys() / 2;
    std::uint64_t avail = 0;
    while (k < cell.eng.keys() &&
           image.pageAt(cell.eng.recordAddr(k), &avail) != nullptr)
        ++k;
    ASSERT_LT(k, cell.eng.keys());
    image.write64(payloadAddr(cell.eng, k, 3), 1);

    EXPECT_EQ(verifyWhy(cell.eng, image),
              "key " + std::to_string(k) +
                  ": payload word 3 = 1 but version 0 (torn update)");
    EXPECT_FALSE(referenceVerify(cell.eng, image));
}

TEST(YcsbOracleTeeth, FirstAndLastKeysAreCheckedLowestReported)
{
    YcsbCell cell(CcMode::Tl2);
    const mem::BackingStore clean = cell.finalImage();
    const std::uint64_t last = cell.eng.keys() - 1;

    mem::BackingStore image = clean;
    image.write64(cell.eng.recordAddr(last), 9); // version, not payload
    EXPECT_EQ(verifyWhy(cell.eng, image),
              "key " + std::to_string(last) +
                  ": payload word 0 = 0 but version 9 (torn update)");

    // With key 0 torn as well, the lowest failing key is reported.
    std::uint64_t ver0 = image.read64(cell.eng.recordAddr(0));
    image.write64(payloadAddr(cell.eng, 0, 1), ver0 + 1);
    EXPECT_EQ(verifyWhy(cell.eng, image).rfind("key 0: payload word 1", 0),
              0u)
        << verifyWhy(cell.eng, image);
}

TEST(YcsbVerify, PageWiseWalkAgreesWithPerWordReference)
{
    {
        YcsbCell cell(CcMode::Tl2);
        mem::BackingStore image = cell.finalImage();
        EXPECT_TRUE(cell.eng.verify(image, nullptr));
        EXPECT_TRUE(referenceVerify(cell.eng, image));
    }
    // The cell ends near tick 76 000, so every crash lands mid-run.
    for (Tick at : {Tick(15000), Tick(40000), Tick(65000)}) {
        YcsbCell cell(CcMode::Tl2);
        mem::BackingStore image = cell.recoveredImage(at);
        EXPECT_TRUE(cell.eng.verify(image, nullptr)) << "@" << at;
        EXPECT_TRUE(referenceVerify(cell.eng, image)) << "@" << at;

        // And they agree on a torn recovered image.
        image.write64(payloadAddr(cell.eng, 1, 0),
                      image.read64(cell.eng.recordAddr(1)) + 1);
        EXPECT_FALSE(cell.eng.verify(image, nullptr)) << "@" << at;
        EXPECT_FALSE(referenceVerify(cell.eng, image)) << "@" << at;
    }
}

TEST(YcsbVerify, PartitionedCellVerifiesWithSharedZipf)
{
    // Without CC every thread maps the one shared sampler's draws onto
    // its own keys (k % threads == id): each partition gets updates,
    // and the image still verifies.
    YcsbCell cell(CcMode::None);
    mem::BackingStore image = cell.finalImage();
    EXPECT_EQ(verifyWhy(cell.eng, image), "");
    for (std::uint32_t id = 0; id < cell.params.threads; ++id) {
        bool updated = false;
        for (std::uint64_t k = id; k < cell.eng.keys() && !updated;
             k += cell.params.threads)
            updated = image.read64(cell.eng.recordAddr(k)) != 0;
        EXPECT_TRUE(updated) << "no update in thread " << id
                             << "'s partition";
    }
}

// ------------------------------------------------------------------
// No-steal discipline: under redo-only logging a conflict-doomed
// transaction aborts with an empty write-set — tx_abort must be legal
// there (it used to assert), and contended TL2 runs exercise it.
// ------------------------------------------------------------------

TEST(NoSteal, RedoOnlyConflictAbortsAreLegalAndRecoverable)
{
    RunSpec spec = oltpSpec("oltp-tpcc", PersistMode::RedoClwb,
                            CcMode::Tl2);
    spec.params.threads = 4;
    spec.params.warehouses = 1; // every thread on one warehouse
    auto outcome = runWorkload(spec);
    EXPECT_TRUE(outcome.verified) << outcome.verifyMessage;
    // The whole point of the cell: conflicts happened and were
    // resolved by abort-retry without undo values.
    EXPECT_GT(outcome.stats.abortedTx, 0u);
}

// ------------------------------------------------------------------
// Determinism: the deterministic counters block is a pure function of
// the cell spec — identical across repeats and across host --jobs.
// ------------------------------------------------------------------

TEST(OltpBench, CountersIdenticalAcrossRepeatsAndJobs)
{
    OltpMatrixConfig cfg;
    cfg.threads = 2;
    cfg.txPerThread = 30;
    cfg.customers = 32;
    cfg.keys = 2048;
    // Two repeats: runOltpCell itself fatals on counter drift.
    cfg.minRepeats = 2;

    std::vector<OltpCellSpec> cells = {
        {"oltp-tpcc", PersistMode::Fwb, CcMode::TwoPhase},
        {"oltp-ycsb", PersistMode::RedoClwb, CcMode::Tl2},
    };

    cfg.jobs = 1;
    auto serial = runOltpMatrix(cells, cfg);
    cfg.jobs = 4;
    auto parallel = runOltpMatrix(cells, cfg);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_TRUE(serial[i].countersEqual(parallel[i]))
            << cells[i].engine << " counters depend on --jobs";
    EXPECT_GT(serial[0].committedTx, 0u);
    EXPECT_GT(serial[0].occSamples, 0u);
}

// ------------------------------------------------------------------
// Contended multi-shard crash sweep: every sampled crash point of a
// 4-thread, 2-warehouse TPC-C cell over a 4-sharded log must recover
// and satisfy the invariant checkers I1–I8 plus the TPC-C oracle.
// ------------------------------------------------------------------

TEST(OltpCrashSweep, ContendedShardedTpccSweepPasses)
{
    crashlab::SweepConfig cfg;
    cfg.run = oltpSpec("oltp-tpcc", PersistMode::Fwb, CcMode::TwoPhase);
    cfg.run.params.txPerThread = 60;
    cfg.run.sys.persist.logShards = 4;
    cfg.jobs = 2;
    cfg.maxPoints = 12;
    auto res = crashlab::runCrashSweep(cfg);
    EXPECT_TRUE(res.passed()) << res.minimizedDetail;
    EXPECT_GT(res.pointsTested, 0u);
    EXPECT_TRUE(res.refVerified) << res.refVerifyMessage;
}

// ------------------------------------------------------------------
// Latency histogram: exact below one octave, bounded relative error
// above, quantiles and merge as documented.
// ------------------------------------------------------------------

TEST(LatencyHistogram, EmptyReportsZeros)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.mean(), 0u);
    EXPECT_EQ(h.p50(), 0u);
    EXPECT_EQ(h.p999(), 0u);
}

TEST(LatencyHistogram, SmallValuesAreExact)
{
    LatencyHistogram h;
    for (std::uint64_t v : {1, 2, 3})
        h.record(v);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 3u);
    EXPECT_EQ(h.mean(), 2u);
    EXPECT_EQ(h.p50(), 2u);
    EXPECT_EQ(h.quantile(1.0), 3u);
}

TEST(LatencyHistogram, QuantileErrorIsBounded)
{
    // Bucket upper bounds are within 1/8 (kSub) relative error of any
    // member value, and quantiles never exceed the recorded max.
    LatencyHistogram h;
    for (std::uint64_t v = 1000; v < 2000; v += 10)
        h.record(v);
    std::uint64_t p50 = h.p50();
    EXPECT_GE(p50, 1400u);
    EXPECT_LE(p50, 1690u); // 1500 * 1.125, and clamped to max
    EXPECT_LE(h.quantile(1.0), h.max());
    EXPECT_GE(h.quantile(1.0), 1990u);
}

TEST(LatencyHistogram, MergeAccumulates)
{
    LatencyHistogram a, b;
    a.record(5);
    a.record(100);
    b.record(70000);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.min(), 5u);
    EXPECT_EQ(a.max(), 70000u);
    EXPECT_EQ(a.sum(), 70105u);
    EXPECT_EQ(a.quantile(1.0), 70000u);
}

// ------------------------------------------------------------------
// YCSB at a production-scale keyspace: a Zipf-skewed run over 10^6
// keys sets up in O(touched pages) (no prewrites) and verifies (no
// torn updates: every payload word equals the record version).
// ------------------------------------------------------------------

TEST(YcsbScale, MillionKeyZipfRunVerifies)
{
    RunSpec spec = oltpSpec("oltp-ycsb", PersistMode::Fwb,
                            CcMode::Tl2);
    spec.params.footprint = 1000000;
    spec.params.zipfTheta = 0.99;
    spec.params.txPerThread = 150;
    auto outcome = runWorkload(spec);
    EXPECT_TRUE(outcome.verified) << outcome.verifyMessage;
    // YCSB has no user aborts: every transaction eventually commits.
    EXPECT_EQ(outcome.stats.committedTx,
              4u * spec.params.txPerThread);
}

// ------------------------------------------------------------------
// Log-full reclaim wait: under the default Reclaim policy an append
// that reclaims the oldest slot waits for the forced write-back of
// the line that slot guards. log.reclaim_wait_cycles counts that
// wait; the log-full policy counters stay zero.
// ------------------------------------------------------------------

namespace
{

/** The 8-core, 4-warehouse TPC-C fwb/2PL cell of snfsim, seed 11. */
RunSpec
reclaimCell(std::uint64_t logBytes)
{
    RunSpec spec;
    spec.workload = "oltp-tpcc";
    spec.mode = PersistMode::Fwb;
    spec.params.threads = 8;
    spec.params.txPerThread = 250;
    spec.params.warehouses = 4;
    spec.params.seed = 11;
    spec.sys = SystemConfig::scaled(spec.params.threads);
    spec.sys.persist = PersistConfig{};
    spec.sys.persist.ccMode = CcMode::TwoPhase;
    spec.sys.map.logSize = logBytes;
    return spec;
}

/** Counter @p name from a System::dumpStats text. */
std::uint64_t
dumpedCounter(const std::string &dump, const std::string &name)
{
    std::string key = "\n" + name + " = ";
    std::size_t at = ("\n" + dump).find(key);
    EXPECT_NE(at, std::string::npos) << name;
    if (at == std::string::npos)
        return 0;
    return std::stoull(dump.substr(at + key.size() - 1));
}

} // namespace

TEST(LogFullReclaim, WaitForForcedWritebacksIsCounted)
{
    // The 256 KB scaled log wraps six times; the 1 262 forced
    // write-backs keep reclaims waiting 105.6 M cycles in all.
    std::ostringstream dump;
    auto outcome = runWorkload(reclaimCell(256 * 1024), &dump);
    EXPECT_TRUE(outcome.verified) << outcome.verifyMessage;
    EXPECT_EQ(dumpedCounter(dump.str(), "log.wraps"), 6u);
    EXPECT_EQ(dumpedCounter(dump.str(), "log.forced_writebacks"), 1262u);
    EXPECT_EQ(dumpedCounter(dump.str(), "log.reclaim_wait_cycles"),
              105639310u);
    EXPECT_EQ(dumpedCounter(dump.str(), "log.logfull_stall_cycles"), 0u);
}

TEST(LogFullReclaim, LogThatNeverWrapsNeverWaits)
{
    std::ostringstream dump;
    auto outcome = runWorkload(reclaimCell(4 * 1024 * 1024), &dump);
    EXPECT_TRUE(outcome.verified) << outcome.verifyMessage;
    EXPECT_EQ(dumpedCounter(dump.str(), "log.wraps"), 0u);
    EXPECT_EQ(dumpedCounter(dump.str(), "log.reclaims"), 0u);
    EXPECT_EQ(dumpedCounter(dump.str(), "log.reclaim_wait_cycles"), 0u);
}
