/**
 * @file
 * shardlab unit/integration tests: prepare and masked-commit record
 * round-trips, the config validation rules for sharded logs, the
 * cross-shard two-phase commit protocol on both logging backends,
 * golden timing and record counts per log layout, the log router's
 * routing and commit plan, end-to-end crash recovery of a
 * transaction spanning shards, degraded-mode recovery with a dead
 * shard, and the merged re-entrant truncation resume.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/system.hh"
#include "mem/backing_store.hh"
#include "persist/log_record.hh"
#include "persist/log_region.hh"
#include "persist/log_router.hh"
#include "persist/recovery.hh"
#include "persist/txn_tracker.hh"
#include "sim/logging.hh"

using namespace snf;
using namespace snf::persist;

// ------------------------- record format -------------------------

TEST(ShardRecord, PrepareRoundTrip)
{
    LogRecord rec = LogRecord::prepare(3, 0x1234, 7, 0x1122334455ull);
    EXPECT_TRUE(rec.isPrepare);
    EXPECT_FALSE(rec.isCommit);
    EXPECT_EQ(rec.payloadBytes(), 24u);

    std::uint8_t img[LogRecord::kSlotBytes];
    rec.serialize(img, /*torn=*/true);
    EXPECT_EQ(classifySlot(img).cls, SlotClass::Valid);

    bool torn = false;
    auto back = LogRecord::deserialize(img, torn);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(torn);
    EXPECT_TRUE(back->isPrepare);
    EXPECT_EQ(back->thread, 3u);
    EXPECT_EQ(back->tx, 0x1234u);
    EXPECT_EQ(back->nUpdates, 7u);
    EXPECT_EQ(back->commitSeq, 0x1122334455ull);
}

TEST(ShardRecord, MaskedCommitRoundTrip)
{
    LogRecord rec = LogRecord::commitMasked(1, 0x42, 3, 99, 0b1011ull);
    EXPECT_TRUE(rec.isCommit);
    EXPECT_TRUE(rec.hasShardMask);
    EXPECT_FALSE(rec.isPrepare);
    EXPECT_EQ(rec.payloadBytes(), 32u);

    std::uint8_t img[LogRecord::kSlotBytes];
    rec.serialize(img, /*torn=*/false);
    EXPECT_EQ(classifySlot(img).cls, SlotClass::Valid);

    bool torn = true;
    auto back = LogRecord::deserialize(img, torn);
    ASSERT_TRUE(back.has_value());
    EXPECT_FALSE(torn);
    EXPECT_TRUE(back->isCommit);
    EXPECT_TRUE(back->hasShardMask);
    EXPECT_EQ(back->nUpdates, 3u);
    EXPECT_EQ(back->commitSeq, 99u);
    EXPECT_EQ(back->shardMask, 0b1011ull);
}

TEST(ShardRecord, LegacyPlainCommitCarriesNoShardFlags)
{
    // shards == 1 must keep the pre-shardlab wire format bit for
    // bit: a plain commit record serializes without the mask or
    // prepare flags and with the original 16-byte payload.
    LogRecord rec = LogRecord::commit(0, 7, 2);
    EXPECT_FALSE(rec.hasShardMask);
    EXPECT_FALSE(rec.isPrepare);
    EXPECT_EQ(rec.payloadBytes(), 16u);
    std::uint8_t img[LogRecord::kSlotBytes];
    rec.serialize(img, false);
    bool torn = false;
    auto back = LogRecord::deserialize(img, torn);
    ASSERT_TRUE(back.has_value());
    EXPECT_FALSE(back->hasShardMask);
    EXPECT_EQ(back->shardMask, 0u);
}

// ----------------------- config validation -----------------------

TEST(ShardConfigDeathTest, RejectsBadShardCounts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    {
        SystemConfig cfg = SystemConfig::scaled(1);
        cfg.persist.logShards = 0;
        EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                    "logShards");
    }
    {
        SystemConfig cfg = SystemConfig::scaled(1);
        cfg.persist.logShards = 65;
        EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                    "logShards");
    }
    {
        // runWorkload resolves the layout before any System validates
        // the config: a count of 0 must be refused there too, by
        // name, before it divides the log.
        SystemConfig cfg = SystemConfig::scaled(1);
        cfg.persist.logShards = 0;
        EXPECT_EXIT(resolveLogLayout(cfg, PersistMode::Fwb),
                    ::testing::ExitedWithCode(1), "logShards");
    }
}

TEST(LogLayout, OneSettingResolvesPerMode)
{
    SystemConfig cfg = SystemConfig::scaled(4);
    auto check = [&](PersistMode m, std::uint32_t regions, bool byCore) {
        LogLayout l = resolveLogLayout(cfg, m);
        EXPECT_EQ(l.regions, regions) << persistModeName(m);
        EXPECT_EQ(l.byCore, byCore) << persistModeName(m);
    };
    check(PersistMode::Fwb, 1, false);
    cfg.persist.logShards = 4;
    check(PersistMode::Fwb, 4, false);
    check(PersistMode::UndoClwb, 4, false);
    check(PersistMode::NonPers, 4, false);
    cfg.persist.logShards = PersistConfig::kPerCoreLogs;
    check(PersistMode::Fwb, 4, true);
    check(PersistMode::HwRlog, 4, true);
    check(PersistMode::UndoClwb, 1, false);
    check(PersistMode::NonPers, 1, false);
}

// ------------------- two-phase commit protocol -------------------

namespace
{

/** A transaction whose write-set spans several consecutive heap
 *  lines — with logShards=N, consecutive lines land in distinct
 *  shards, so this exercises the cross-shard commit. */
sim::Co<void>
spanningTxs(Thread &t, Addr base, int txs, int linesPerTx)
{
    for (int i = 0; i < txs; ++i) {
        co_await t.txBegin();
        for (int l = 0; l < linesPerTx; ++l) {
            Addr a = base + l * 64;
            std::uint64_t v = co_await t.load64(a);
            co_await t.store64(a, v + 1);
        }
        co_await t.txCommit();
    }
}

} // namespace

TEST(ShardProtocol, HwBackendEmitsPreparesAndMaskedCommits)
{
    SystemConfig cfg = SystemConfig::scaled(1);
    cfg.persist.logShards = 4;
    System sys(cfg, PersistMode::Fwb);
    Addr a = sys.heap().alloc(4096, 64);
    sys.spawn(0, [&](Thread &t) { return spanningTxs(t, a, 8, 3); });
    Tick end = sys.run();
    sys.flushAll(end);

    ASSERT_NE(sys.hwl(), nullptr);
    EXPECT_EQ(sys.hwl()->crossShardCommits.value(), 8u);
    EXPECT_EQ(sys.hwl()->prepareRecords.value(), 2u * 8u);
    EXPECT_EQ(sys.hwl()->commitRecords.value(), 8u);
    for (int l = 0; l < 3; ++l)
        EXPECT_EQ(sys.mem().nvram().store().read64(a + l * 64), 8u);
}

TEST(ShardProtocol, SwBackendEmitsPreparesAndMaskedCommits)
{
    SystemConfig cfg = SystemConfig::scaled(1);
    cfg.persist.logShards = 4;
    System sys(cfg, PersistMode::UndoClwb);
    Addr a = sys.heap().alloc(4096, 64);
    sys.spawn(0, [&](Thread &t) { return spanningTxs(t, a, 5, 2); });
    Tick end = sys.run();
    sys.flushAll(end);

    ASSERT_NE(sys.swlog(), nullptr);
    EXPECT_EQ(sys.swlog()->crossShardCommits.value(), 5u);
    EXPECT_EQ(sys.swlog()->prepareRecords.value(), 5u);
    for (int l = 0; l < 2; ++l)
        EXPECT_EQ(sys.mem().nvram().store().read64(a + l * 64), 5u);
}

TEST(ShardProtocol, SingleShardTxUsesPlainCommit)
{
    // A write-set confined to one shard must take the legacy plain
    // commit — no prepares, no masked record.
    SystemConfig cfg = SystemConfig::scaled(1);
    cfg.persist.logShards = 4;
    System sys(cfg, PersistMode::Fwb);
    Addr a = sys.heap().alloc(4096, 64);
    sys.spawn(0, [&](Thread &t) { return spanningTxs(t, a, 6, 1); });
    sys.run();

    EXPECT_EQ(sys.hwl()->commitRecords.value(), 6u);
    EXPECT_EQ(sys.hwl()->crossShardCommits.value(), 0u);
    EXPECT_EQ(sys.hwl()->prepareRecords.value(), 0u);
}

// ------------------ golden values per log layout -----------------

namespace
{

enum class GoldenLayout
{
    Central, ///< one central log
    Shards4, ///< four address shards
    PerCore, ///< one region per core (software modes: one region)
};

const char *
goldenLayoutName(GoldenLayout l)
{
    switch (l) {
      case GoldenLayout::Central: return "central";
      case GoldenLayout::Shards4: return "shards4";
      case GoldenLayout::PerCore: return "per-core";
    }
    return "?";
}

void
applyGoldenLayout(SystemConfig &cfg, GoldenLayout l)
{
    if (l == GoldenLayout::Shards4)
        cfg.persist.logShards = 4;
    else if (l == GoldenLayout::PerCore)
        cfg.persist.logShards = PersistConfig::kPerCoreLogs;
}

/** Each thread owns 16 consecutive heap lines and runs transactions
 *  over 1-3 of them, so address shards see both single-shard and
 *  cross-shard commits; every fourth transaction is read-only and
 *  commits with no update record (and, under software logging, with
 *  no commit record). */
sim::Co<void>
goldenThread(Thread &t, Addr base, int txs)
{
    Addr mine = base + t.id() * 16 * 64;
    for (int i = 0; i < txs; ++i) {
        co_await t.txBegin();
        for (int l = 0; l < 1 + i % 3; ++l) {
            Addr a = mine + ((i + l) % 16) * 64;
            std::uint64_t v = co_await t.load64(a);
            if (i % 4 != 3)
                co_await t.store64(a, v + 1);
        }
        co_await t.txCommit();
    }
}

struct Golden
{
    PersistMode mode;
    GoldenLayout layout;
    Tick end;
    std::vector<std::uint64_t> appends; ///< per log region
    std::uint64_t commits;
    std::uint64_t prepares;
    std::uint64_t crossShard;
};

std::string
describe(const Golden &g)
{
    std::string s = strfmt("%s/%s end=%llu appends=",
                           persistModeName(g.mode),
                           goldenLayoutName(g.layout),
                           static_cast<unsigned long long>(g.end));
    for (std::uint64_t a : g.appends)
        s += strfmt("%llu,", static_cast<unsigned long long>(a));
    return s + strfmt(" commits=%llu prepares=%llu cross=%llu",
                      static_cast<unsigned long long>(g.commits),
                      static_cast<unsigned long long>(g.prepares),
                      static_cast<unsigned long long>(g.crossShard));
}

Golden
observeGolden(PersistMode mode, GoldenLayout layout)
{
    SystemConfig cfg = SystemConfig::scaled(4);
    applyGoldenLayout(cfg, layout);
    System sys(cfg, mode);
    Addr base = sys.heap().alloc(4 * 16 * 64, 64);
    for (CoreId c = 0; c < 4; ++c)
        sys.spawn(c, [&](Thread &t) { return goldenThread(t, base, 40); });
    Golden g{mode, layout, sys.run(), {}, 0, 0, 0};
    for (std::size_t i = 0; i < sys.logPartitionCount(); ++i)
        g.appends.push_back(sys.logPartition(i).appends.value());
    if (sys.hwl()) {
        g.commits = sys.hwl()->commitRecords.value();
        g.prepares = sys.hwl()->prepareRecords.value();
        g.crossShard = sys.hwl()->crossShardCommits.value();
    } else {
        g.commits = sys.swlog()->commitRecords.value();
        g.prepares = sys.swlog()->prepareRecords.value();
        g.crossShard = sys.swlog()->crossShardCommits.value();
    }
    return g;
}

} // namespace

TEST(ShardGolden, EveryLayoutKeepsItsTimingAndRecords)
{
    // Captured before the two logging engines shared one router: the
    // end tick, appends per region and commit-protocol counters of
    // every backend under every log layout. Any drift means the
    // routing, the commit plan or an engine's write order changed.
    // The hardware engine files a read-only transaction's commit
    // record in the committing core's region; the software runtime
    // writes none (its rows were re-pinned when it stopped), hence
    // their 40 fewer commits and appends. The software rows' end
    // ticks were re-pinned again when commit sequences began to park
    // at each fence; their records did not move.
    using M = PersistMode;
    using L = GoldenLayout;
    const Golden kGolden[] = {
        {M::Fwb, L::Central, 8091, {400}, 160, 0, 0},
        {M::Fwb, L::Shards4, 10334, {122, 138, 170, 90}, 160, 120, 80},
        {M::Fwb, L::PerCore, 8064, {100, 100, 100, 100}, 160, 0, 0},
        {M::Hwl, L::Central, 13858, {400}, 160, 0, 0},
        {M::Hwl, L::Shards4, 14164, {122, 138, 170, 90}, 160, 120, 80},
        {M::Hwl, L::PerCore, 13991, {100, 100, 100, 100}, 160, 0, 0},
        {M::UndoClwb, L::Central, 14339, {360}, 120, 0, 0},
        {M::UndoClwb, L::Shards4, 14303, {112, 128, 160, 80}, 120, 120, 80},
        {M::UndoClwb, L::PerCore, 14339, {360}, 120, 0, 0},
        {M::RedoClwb, L::Central, 14212, {360}, 120, 0, 0},
        {M::RedoClwb, L::Shards4, 15068, {112, 128, 160, 80}, 120, 120, 80},
        {M::RedoClwb, L::PerCore, 14212, {360}, 120, 0, 0},
    };
    for (const Golden &want : kGolden) {
        Golden got = observeGolden(want.mode, want.layout);
        EXPECT_EQ(describe(got), describe(want));
    }
}

// ------------------------- log router ----------------------------

namespace
{

/** Data line @p k of the heap: with N address shards it lands in
 *  shard k mod N (the NVRAM base is a multiple of 64 lines). */
Addr
lineAt(std::uint32_t k)
{
    return AddressMap{}.nvramBase + k * 64;
}

} // namespace

TEST(LogRouter, RoutesByAddressOrByCore)
{
    TxnTracker txns;
    std::uint64_t seq = txns.begin();
    LogRouter central(PersistMode::Fwb, {1, false}, txns, false);
    LogRouter shards(PersistMode::Fwb, {4, false}, txns, false);
    LogRouter perCore(PersistMode::Fwb, {4, true}, txns, false);
    for (std::uint32_t k = 0; k < 8; ++k) {
        EXPECT_EQ(central.route(3, seq, lineAt(k), 8, 0, 1).region, 0u);
        EXPECT_EQ(shards.route(3, seq, lineAt(k), 8, 0, 1).region,
                  k % 4);
        EXPECT_EQ(perCore.route(3, seq, lineAt(k), 8, 0, 1).region, 3u);
    }
    // Every routed update counts for the transaction's commit; only
    // address shards track which shards it touched.
    EXPECT_EQ(txns.logRecordCount(seq), 24u);
    EXPECT_EQ(txns.shardMaskOf(seq), 0b1111u);
    EXPECT_EQ(txns.shardRecordCount(seq, 1), 2u);
}

TEST(LogRouter, LogsTheValuesTheModeNeeds)
{
    for (PersistMode m : kAllModes) {
        if (!isHardwareLogging(m) && !isSoftwareLogging(m))
            continue;
        TxnTracker txns;
        std::uint64_t seq = txns.begin();
        LogRouter r(m, {}, txns, false);
        LogRecord rec = r.route(0, seq, lineAt(1), 8, 11, 22).rec;
        bool undoOnly = m == PersistMode::HwUlog ||
                        m == PersistMode::UnsafeUndo ||
                        m == PersistMode::UndoClwb;
        EXPECT_EQ(rec.hasUndo, supportsAbort(m)) << persistModeName(m);
        EXPECT_EQ(r.logsUndo(), supportsAbort(m)) << persistModeName(m);
        EXPECT_EQ(rec.hasRedo, !undoOnly) << persistModeName(m);
        EXPECT_EQ(rec.undo, rec.hasUndo ? 11u : 0u);
        EXPECT_EQ(rec.redo, rec.hasRedo ? 22u : 0u);
    }
}

TEST(LogRouter, CommitPlanFollowsTheShardMask)
{
    TxnTracker txns;
    LogRouter hw(PersistMode::Fwb, {4, false}, txns, false);
    LogRouter sw(PersistMode::UndoClwb, {4, false}, txns, false);

    // Mask 0 (read-only): a plain commit, in the core's region under
    // hardware logging and in region 0 under software logging.
    std::uint64_t ro = txns.begin();
    LogRouter::CommitPlan p = hw.planCommit(2, ro);
    EXPECT_FALSE(p.crossShard());
    EXPECT_TRUE(p.fenced);
    EXPECT_EQ(p.owner, 2u);
    EXPECT_TRUE(p.commit.isCommit);
    EXPECT_FALSE(p.commit.hasShardMask);
    EXPECT_EQ(p.commit.nUpdates, 0u);
    EXPECT_EQ(sw.planCommit(2, ro).owner, 0u);

    // One bit: a plain commit behind the updates in their shard.
    std::uint64_t one = txns.begin();
    hw.route(1, one, lineAt(3), 8, 0, 1);
    hw.route(1, one, lineAt(7), 8, 0, 1);
    p = hw.planCommit(1, one);
    EXPECT_FALSE(p.crossShard());
    EXPECT_EQ(p.owner, 3u);
    EXPECT_FALSE(p.commit.hasShardMask);
    EXPECT_EQ(p.commit.nUpdates, 2u);
    EXPECT_EQ(sw.planCommit(1, one).owner, 3u);

    // Several bits: prepares in shards 2 and 3, the masked commit in
    // the lowest participant, each carrying its own shard's count.
    std::uint64_t many = txns.begin();
    for (std::uint32_t k : {1u, 2u, 3u, 7u})
        hw.route(0, many, lineAt(k), 8, 0, 1);
    p = hw.planCommit(0, many);
    EXPECT_TRUE(p.crossShard());
    EXPECT_TRUE(p.fenced);
    EXPECT_EQ(p.owner, 1u);
    EXPECT_EQ(p.prepares, 0b1100u);
    EXPECT_TRUE(p.commit.hasShardMask);
    EXPECT_EQ(p.commit.shardMask, 0b1110u);
    EXPECT_EQ(p.commit.commitSeq, many);
    EXPECT_EQ(p.commit.nUpdates, 1u);
    LogRecord prep = hw.prepare(0, many, 3);
    EXPECT_TRUE(prep.isPrepare);
    EXPECT_EQ(prep.nUpdates, 2u);
    EXPECT_EQ(prep.commitSeq, many);
    EXPECT_EQ(prep.tx, TxnTracker::txIdOf(many));
}

TEST(LogRouter, SkipMaskSelfTestNamesOnlyTheOwner)
{
    for (bool skip : {false, true}) {
        TxnTracker txns;
        LogRouter r(PersistMode::Fwb, {4, false}, txns, skip);
        std::uint64_t seq = txns.begin();
        r.route(0, seq, lineAt(1), 8, 0, 1);
        r.route(0, seq, lineAt(2), 8, 0, 1);
        LogRouter::CommitPlan p = r.planCommit(0, seq);
        // The prepares, and so the timing, stay; only the mask the
        // commit record carries changes.
        EXPECT_EQ(p.prepares, 0b0100u) << skip;
        EXPECT_EQ(p.owner, 1u) << skip;
        EXPECT_EQ(p.commit.shardMask, skip ? 0b0010u : 0b0110u) << skip;
    }
}

TEST(LogRouter, CentralAndPerCoreCommitsArePlainAndUnfenced)
{
    TxnTracker txns;
    LogRouter central(PersistMode::Hwl, {1, false}, txns, false);
    LogRouter perCore(PersistMode::Hwl, {4, true}, txns, false);
    std::uint64_t seq = txns.begin();
    for (std::uint32_t k = 0; k < 4; ++k)
        perCore.route(2, seq, lineAt(k), 8, 0, 1);
    for (const LogRouter *r : {&central, &perCore}) {
        LogRouter::CommitPlan p = r->planCommit(2, seq);
        EXPECT_FALSE(p.crossShard());
        EXPECT_FALSE(p.fenced);
        EXPECT_FALSE(p.commit.hasShardMask);
        EXPECT_EQ(p.commit.nUpdates, 4u);
    }
    EXPECT_EQ(central.planCommit(2, seq).owner, 0u);
    EXPECT_EQ(perCore.planCommit(2, seq).owner, 2u);
}

// ------------------ end-to-end crash recovery --------------------

namespace
{

sim::Co<void>
openForeverAcrossShards(Thread &t, Addr base)
{
    co_await t.txBegin();
    for (int l = 0; l < 3; ++l) {
        co_await t.store64(base + l * 64, 0xbad);
        co_await t.clwb(base + l * 64); // steal the line into NVRAM
    }
    co_await t.fence();
    co_await t.compute(1000000); // never commits before the crash
    co_await t.txCommit();
}

} // namespace

TEST(ShardRecoveryE2E, UncommittedCrossShardTxRollsBackEverywhere)
{
    SystemConfig cfg = SystemConfig::scaled(1);
    cfg.persist.logShards = 4;
    cfg.persist.crashJournal = true;
    System sys(cfg, PersistMode::Fwb);
    Addr a = sys.heap().alloc(4096, 64);
    sys.spawn(0, [&](Thread &t) {
        return openForeverAcrossShards(t, a);
    });
    Tick crash = 50000;
    sys.run(crash);

    mem::BackingStore snap = sys.crashSnapshot(crash);
    for (int l = 0; l < 3; ++l)
        EXPECT_EQ(snap.read64(a + l * 64), 0xbadu) << "line " << l;
    auto report = Recovery::run(snap, sys.config().map);
    EXPECT_EQ(report.uncommittedTxns, 1u);
    EXPECT_EQ(report.shards.size(), 4u);
    for (int l = 0; l < 3; ++l)
        EXPECT_EQ(snap.read64(a + l * 64), 0u) << "line " << l;
}

// ------------------- hand-built shard images ---------------------

namespace
{

/** Minimal multi-shard log image builder (mirrors the real
 *  LogRegion layout: header + slot array per shard). */
class ShardImage
{
  public:
    explicit ShardImage(std::uint32_t shards)
        : map(makeMap(shards)), image(map.nvramBase, 1 << 22),
          nShards(shards)
    {
        shardBytes = map.logSize / shards;
        slots = (shardBytes - LogRegion::kHeaderBytes) /
                LogRecord::kSlotBytes;
        tails.assign(shards, 0);
        for (std::uint32_t s = 0; s < shards; ++s) {
            std::uint64_t magic = LogRegion::kMagic;
            image.write(base(s), 8, &magic);
            image.write(base(s) + 8, 8, &slots);
        }
    }

    static AddressMap
    makeMap(std::uint32_t shards)
    {
        AddressMap m;
        m.nvramSize = 1 << 22;
        m.logSize = 8192;
        m.logShards = shards;
        return m;
    }

    Addr base(std::uint32_t s) const
    {
        return map.logBase() + s * shardBytes;
    }

    void
    append(std::uint32_t s, const LogRecord &rec)
    {
        std::uint8_t img[LogRecord::kSlotBytes];
        rec.serialize(img, /*torn=*/true); // first-pass parity
        image.write(base(s) + LogRegion::kHeaderBytes +
                        tails[s]++ * LogRecord::kSlotBytes,
                    sizeof(img), img);
    }

    /** Wipe shard @p s's header (a dead / unreadable shard). */
    void
    killShard(std::uint32_t s)
    {
        std::uint8_t zeros[LogRegion::kHeaderBytes] = {};
        image.write(base(s), sizeof(zeros), zeros);
    }

    /** Raise the re-entrant truncation flag on shard @p s. */
    void
    raiseTruncFlag(std::uint32_t s)
    {
        std::uint64_t flag = 1;
        image.write(base(s) + LogRegion::kTruncFlagOffset, 8, &flag);
    }

    /** A heap data line owned by shard @p s. */
    Addr
    lineForShard(std::uint32_t s) const
    {
        for (std::uint64_t k = 0;; ++k) {
            Addr a = map.heapBase() + k * 64;
            if ((a >> 6) % nShards == s)
                return a;
        }
    }

    AddressMap map;
    mem::BackingStore image;
    std::uint32_t nShards;
    std::uint64_t shardBytes = 0;
    std::uint64_t slots = 0;
    std::vector<std::uint64_t> tails;
};

} // namespace

TEST(ShardDegraded, DeadShardAbortsCrossingTxsSalvagesTheRest)
{
    // Shard 1 dies (header wiped). Three transactions:
    //   tx 2: cross-shard {0,1}, masked commit in live owner 0 —
    //         its slice in the dead shard is unrecoverable, so the
    //         whole tx must abort (undo the surviving slice);
    //   tx 3: entirely in live shard 2, committed — salvaged;
    //   tx 4: entirely in dead shard 1 — simply gone.
    ShardImage f(4);
    Addr l0 = f.lineForShard(0), l2 = f.lineForShard(2);

    f.append(0, LogRecord::update(0, 2, l0, 8, 0x20, 0x2A));
    f.append(1, LogRecord::prepare(0, 2, 1, 2));
    f.append(0, LogRecord::commitMasked(0, 2, 1, 2, 0b0011));
    f.image.write64(l0, 0x2A); // stolen

    f.append(2, LogRecord::update(0, 3, l2, 8, 0x30, 0x3A));
    f.append(2, LogRecord::commit(0, 3, 1));
    f.image.write64(l2, 0x30); // not yet written back: needs redo

    f.append(1,
             LogRecord::update(0, 4, f.lineForShard(1), 8, 0x40, 0x4A));
    f.append(1, LogRecord::commit(0, 4, 1));

    f.killShard(1);

    auto report = Recovery::run(f.image, f.map);
    EXPECT_EQ(f.image.read64(l0), 0x20u) << "crossing tx not undone";
    EXPECT_EQ(f.image.read64(l2), 0x3Au) << "survivor not salvaged";
    EXPECT_EQ(report.deadShardAborted, 1u);
    ASSERT_EQ(report.deadShardAbortTxIds.size(), 1u);
    EXPECT_EQ(report.deadShardAbortTxIds[0], 2u);
    ASSERT_EQ(report.shards.size(), 4u);
    EXPECT_FALSE(report.shards[0].dead);
    EXPECT_TRUE(report.shards[1].dead);
    EXPECT_FALSE(report.shards[1].headerValid);
    EXPECT_EQ(report.shards[2].salvagedTxns, 1u);
}

TEST(ShardDegraded, PrepareWithDeadOwnerAborts)
{
    // The owner shard (which held the masked commit) dies; the
    // surviving participant sees prepare-but-no-commit plus a dead
    // shard. The commit's fate is unknowable, so the tx aborts and
    // its id is reported for the damage oracle to excuse.
    ShardImage f(2);
    Addr l1 = f.lineForShard(1);
    f.append(1, LogRecord::update(0, 5, l1, 8, 0x50, 0x5A));
    f.append(1, LogRecord::prepare(0, 5, 1, 5));
    f.append(0, LogRecord::commitMasked(0, 5, 0, 5, 0b11));
    f.image.write64(l1, 0x5A);
    f.killShard(0);

    auto report = Recovery::run(f.image, f.map);
    EXPECT_EQ(f.image.read64(l1), 0x50u);
    EXPECT_EQ(report.committedTxns, 0u);
    ASSERT_EQ(report.deadShardAbortTxIds.size(), 1u);
    EXPECT_EQ(report.deadShardAbortTxIds[0], 5u);
}

TEST(ShardTruncation, InterruptedTruncationResumesOnAllLiveShards)
{
    // A crash inside a previous recovery's truncation: the flag is
    // up on one shard (all flags rise before any slot is zeroed, so
    // one raised flag proves replay completed). The resumed recovery
    // must finish zeroing every live shard without replaying.
    ShardImage f(4);
    Addr l0 = f.lineForShard(0);
    f.append(0, LogRecord::update(0, 6, l0, 8, 0x60, 0x6A));
    f.append(0, LogRecord::commit(0, 6, 1));
    f.image.write64(l0, 0x60);
    f.raiseTruncFlag(2);

    auto report = Recovery::run(f.image, f.map);
    // No replay: the committed tx's redo must NOT be applied again
    // (it already was, before the interrupted truncation).
    EXPECT_EQ(f.image.read64(l0), 0x60u);
    EXPECT_EQ(report.committedTxns, 0u);

    // Every shard is now empty and flag-free: a fresh recovery sees
    // a clean log.
    auto again = Recovery::run(f.image, f.map);
    EXPECT_EQ(again.validRecords, 0u);
    EXPECT_EQ(again.committedTxns, 0u);
    for (std::uint32_t s = 0; s < 4; ++s)
        EXPECT_TRUE(again.shards[s].headerValid) << "shard " << s;
}
