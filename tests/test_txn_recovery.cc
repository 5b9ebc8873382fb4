/**
 * @file
 * Unit tests for transaction tracking and post-crash recovery:
 * redo of committed transactions, undo of uncommitted ones, the
 * torn-bit window scan across wraps, torn-record rejection, recovery
 * idempotence (invariant I6), and log truncation; and which CC
 * probes of the thread API run in place instead of parking.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/system.hh"
#include "mem/backing_store.hh"
#include "mem/remap_table.hh"
#include "oltp/tpcc.hh"
#include "persist/log_record.hh"
#include "persist/log_region.hh"
#include "persist/recovery.hh"
#include "persist/txn_tracker.hh"
#include "sim/rng.hh"

using namespace snf;
using namespace snf::persist;

// --------------------------- TxnTracker --------------------------

TEST(TxnTracker, BeginCommitLifecycle)
{
    TxnTracker t;
    std::uint64_t a = t.begin();
    std::uint64_t b = t.begin();
    EXPECT_NE(a, b);
    EXPECT_TRUE(t.isActive(a));
    t.commit(a);
    EXPECT_FALSE(t.isActive(a));
    EXPECT_TRUE(t.isActive(b));
    EXPECT_EQ(t.begun.value(), 2u);
    EXPECT_EQ(t.committed.value(), 1u);
}

TEST(TxnTracker, WriteSetDeduplicatesLines)
{
    TxnTracker t;
    std::uint64_t seq = t.begin();
    t.recordWrite(seq, 0x100);
    t.recordWrite(seq, 0x140);
    t.recordWrite(seq, 0x100);
    EXPECT_EQ(t.writeSet(seq).size(), 2u);
    EXPECT_EQ(t.writeSet(seq)[0], 0x100u);
}

TEST(TxnTracker, TxIdTruncatesSequence)
{
    EXPECT_EQ(TxnTracker::txIdOf(0x12345), 0x2345);
}

TEST(TxnTracker, AbortRemovesTxn)
{
    TxnTracker t;
    std::uint64_t seq = t.begin();
    t.abort(seq);
    EXPECT_FALSE(t.isActive(seq));
    EXPECT_EQ(t.committed.value(), 0u);
}

// ------------------- concurrency control (CC) --------------------

TEST(TxnTrackerCc, TwoPhaseLockConflictWaitsUntilRelease)
{
    TxnTracker t;
    t.setCcMode(CcMode::TwoPhase);
    std::uint64_t a = t.begin();
    std::uint64_t b = t.begin();
    EXPECT_EQ(t.acquireLine(a, 0x1000, true), CcDecision::Granted);
    EXPECT_EQ(t.lockOwnerOf(0x1000), a);
    // Re-acquiring a held line is free; a 2PL *read* of it conflicts
    // just like a write (exclusive locks only).
    EXPECT_EQ(t.acquireLine(a, 0x1000, true), CcDecision::Granted);
    EXPECT_EQ(t.acquireLine(b, 0x1000, false), CcDecision::Wait);
    EXPECT_EQ(t.acquireLine(b, 0x1000, true), CcDecision::Wait);
    EXPECT_EQ(t.lockWaits.value(), 2u);

    t.commit(a);
    EXPECT_EQ(t.lockOwnerOf(0x1000), 0u);
    EXPECT_EQ(t.acquireLine(b, 0x1000, true), CcDecision::Granted);
}

TEST(TxnTrackerCc, DeadlockCycleAbortsTheRequester)
{
    // a holds L1 and waits for L2; when b (holding L2) asks for L1
    // the waits-for edge would close a cycle, so the *requester* b
    // is told to abort while a keeps running.
    TxnTracker t;
    t.setCcMode(CcMode::TwoPhase);
    std::uint64_t a = t.begin();
    std::uint64_t b = t.begin();
    EXPECT_EQ(t.acquireLine(a, 0x1000, true), CcDecision::Granted);
    EXPECT_EQ(t.acquireLine(b, 0x2000, true), CcDecision::Granted);
    EXPECT_EQ(t.acquireLine(a, 0x2000, true), CcDecision::Wait);
    EXPECT_EQ(t.acquireLine(b, 0x1000, true), CcDecision::Abort);
    EXPECT_EQ(t.deadlockAborts.value(), 1u);

    // The victim rolls back, releasing its lock; the survivor's
    // retry now succeeds and the victim's retry incarnation can
    // re-arm on fresh lines — abort-retry makes progress.
    t.abort(b);
    EXPECT_EQ(t.lockOwnerOf(0x2000), 0u);
    EXPECT_EQ(t.acquireLine(a, 0x2000, true), CcDecision::Granted);
    std::uint64_t b2 = t.begin();
    EXPECT_EQ(t.acquireLine(b2, 0x3000, true), CcDecision::Granted);
    EXPECT_EQ(t.acquireLine(b2, 0x1000, true), CcDecision::Wait);
    t.commit(a);
    EXPECT_EQ(t.acquireLine(b2, 0x1000, true), CcDecision::Granted);
    t.commit(b2);
    EXPECT_EQ(t.deadlockAborts.value(), 1u);
}

TEST(TxnTrackerCc, AbortReleasesEveryHeldLock)
{
    TxnTracker t;
    t.setCcMode(CcMode::TwoPhase);
    std::uint64_t a = t.begin();
    EXPECT_EQ(t.acquireLine(a, 0x1000, true), CcDecision::Granted);
    EXPECT_EQ(t.acquireLine(a, 0x2000, false), CcDecision::Granted);
    t.abort(a);
    std::uint64_t b = t.begin();
    EXPECT_EQ(t.acquireLine(b, 0x1000, true), CcDecision::Granted);
    EXPECT_EQ(t.acquireLine(b, 0x2000, true), CcDecision::Granted);
}

TEST(TxnTrackerCc, Tl2StaleReadFailsValidation)
{
    // TL2 reads don't lock: they record the line's commit version.
    // A writer committing in between bumps it, so the reader's
    // commit-time validation must fail.
    TxnTracker t;
    t.setCcMode(CcMode::Tl2);
    std::uint64_t r = t.begin();
    EXPECT_EQ(t.acquireLine(r, 0x1000, false), CcDecision::Granted);
    EXPECT_EQ(t.readSetSize(r), 1u);

    std::uint64_t w = t.begin();
    EXPECT_EQ(t.acquireLine(w, 0x1000, true), CcDecision::Granted);
    t.recordWrite(w, 0x1000); // the store path records the write
    t.commit(w);

    EXPECT_FALSE(t.validateReads(r));
    EXPECT_EQ(t.validationFailures.value(), 1u);

    // A fresh incarnation re-reads the new version and validates.
    t.abort(r);
    std::uint64_t r2 = t.begin();
    EXPECT_EQ(t.acquireLine(r2, 0x1000, false), CcDecision::Granted);
    EXPECT_TRUE(t.validateReads(r2));
    t.commit(r2);
}

TEST(TxnTrackerCc, Tl2ReadOfWriteLockedLineWaits)
{
    // Encounter-time writers still lock under TL2; a read of a
    // locked line can't take a stable version, so the reader waits.
    TxnTracker t;
    t.setCcMode(CcMode::Tl2);
    std::uint64_t w = t.begin();
    std::uint64_t r = t.begin();
    EXPECT_EQ(t.acquireLine(w, 0x1000, true), CcDecision::Granted);
    EXPECT_EQ(t.acquireLine(r, 0x1000, false), CcDecision::Wait);
    t.commit(w);
    EXPECT_EQ(t.acquireLine(r, 0x1000, false), CcDecision::Granted);
    EXPECT_TRUE(t.validateReads(r));
}

TEST(TxnTrackerCc, NoneModeSkipsTheLayerEntirely)
{
    // With CC off the thread API never reaches acquireLine (the
    // awaitable short-circuits); validation is trivially true and no
    // lock state accumulates.
    TxnTracker t;
    ASSERT_EQ(t.ccMode(), CcMode::None);
    std::uint64_t a = t.begin();
    t.recordWrite(a, 0x1000);
    EXPECT_TRUE(t.validateReads(a));
    EXPECT_EQ(t.readSetSize(a), 0u);
    t.commit(a);
    EXPECT_EQ(t.lockAcquires.value(), 0u);
    EXPECT_EQ(t.lockOwnerOf(0x1000), 0u);
    EXPECT_EQ(t.lineVersion(0x1000), 0u)
        << "no version clock churn with CC disabled";
}

// ------------- transaction state reused across transactions -------

TEST(TxnTrackerCc, NextTxnOnACoreStartsClean)
{
    // Whatever the previous transaction left behind in the slot the
    // next one reuses (write set, read set, log-record counts, a
    // waits-for edge), the next one starts empty, after a commit and
    // after an abort alike.
    for (bool commitFirst : {true, false}) {
        TxnTracker t;
        t.setCcMode(CcMode::Tl2);
        std::uint64_t holder = t.begin();
        EXPECT_EQ(t.acquireLine(holder, 0x2000, true),
                  CcDecision::Granted);

        std::uint64_t old = t.begin();
        EXPECT_EQ(t.acquireLine(old, 0x1000, true), CcDecision::Granted);
        t.recordWrite(old, 0x1000);
        EXPECT_EQ(t.acquireLine(old, 0x3000, false),
                  CcDecision::Granted);
        t.noteLogRecord(old);
        t.noteShardRecord(old, 2);
        // Parks `old` behind `holder`: a waits-for edge old -> holder.
        EXPECT_EQ(t.acquireLine(old, 0x2000, true), CcDecision::Wait);
        if (commitFirst)
            t.commit(old);
        else
            t.abort(old);

        std::uint64_t next = t.begin();
        EXPECT_TRUE(t.writeSet(next).empty());
        EXPECT_EQ(t.readSetSize(next), 0u);
        EXPECT_EQ(t.logRecordCount(next), 0u);
        EXPECT_EQ(t.shardMaskOf(next), 0u);
        EXPECT_EQ(t.shardRecordCount(next, 2), 0u);

        // The dedup sets start empty: lines the previous transaction
        // wrote and read are recorded afresh.
        t.recordWrite(next, 0x1000);
        EXPECT_EQ(t.writeSet(next).size(), 1u);
        EXPECT_EQ(t.acquireLine(next, 0x3000, false),
                  CcDecision::Granted);
        EXPECT_EQ(t.readSetSize(next), 1u);

        // No stale edge: `holder` asking for a line `next` holds just
        // waits. An edge next -> holder left over from `old` would
        // close a cycle and abort it.
        EXPECT_EQ(t.acquireLine(next, 0x4000, true),
                  CcDecision::Granted);
        EXPECT_EQ(t.acquireLine(holder, 0x4000, true), CcDecision::Wait);
        EXPECT_EQ(t.deadlockAborts.value(), 0u);
    }
}

TEST(TxnTrackerCc, WaitChainThroughCommittedHolderIsNoDeadlock)
{
    // b waits for a; a commits before b retries, and a new
    // transaction d starts on a's core. d waiting for b extends the
    // chain d -> b -> a, which ends at the committed a: no cycle.
    TxnTracker t;
    t.setCcMode(CcMode::TwoPhase);
    std::uint64_t a = t.begin();
    std::uint64_t b = t.begin();
    EXPECT_EQ(t.acquireLine(a, 0x1000, true), CcDecision::Granted);
    EXPECT_EQ(t.acquireLine(b, 0x2000, true), CcDecision::Granted);
    EXPECT_EQ(t.acquireLine(b, 0x1000, true), CcDecision::Wait);
    t.commit(a);

    std::uint64_t d = t.begin();
    EXPECT_EQ(t.acquireLine(d, 0x3000, true), CcDecision::Granted);
    EXPECT_EQ(t.acquireLine(d, 0x2000, true), CcDecision::Wait);
    EXPECT_EQ(t.deadlockAborts.value(), 0u);
    // b's retry finds the line free, and d then gets b's line once
    // b commits.
    EXPECT_EQ(t.acquireLine(b, 0x1000, true), CcDecision::Granted);
    t.commit(b);
    EXPECT_EQ(t.acquireLine(d, 0x2000, true), CcDecision::Granted);
}

TEST(TxnTrackerCc, OwnersAndVersionsOfManyLinesSurviveGrowth)
{
    constexpr std::uint64_t kLines = 100000;
    auto lineAt = [](std::uint64_t i) {
        return 0x100000000ULL + i * 64;
    };
    TxnTracker t;
    t.setCcMode(CcMode::TwoPhase);
    std::uint64_t even = t.begin();
    std::uint64_t odd = t.begin();
    for (std::uint64_t i = 0; i < kLines; ++i) {
        std::uint64_t seq = i % 2 ? odd : even;
        ASSERT_EQ(t.acquireLine(seq, lineAt(i), true),
                  CcDecision::Granted);
        t.recordWrite(seq, lineAt(i));
    }
    for (std::uint64_t i = 0; i < kLines; ++i)
        ASSERT_EQ(t.lockOwnerOf(lineAt(i)), i % 2 ? odd : even);
    EXPECT_EQ(t.writeSet(even).size(), kLines / 2);

    // Each commit stamps its write set in write order from one
    // clock: the even lines get versions 1..N/2, the odd ones the
    // rest.
    t.commit(even);
    t.commit(odd);
    for (std::uint64_t i = 0; i < kLines; ++i) {
        ASSERT_EQ(t.lockOwnerOf(lineAt(i)), 0u);
        std::uint64_t want =
            i % 2 ? kLines / 2 + i / 2 + 1 : i / 2 + 1;
        ASSERT_EQ(t.lineVersion(lineAt(i)), want) << "line " << i;
    }
    EXPECT_EQ(t.lineVersion(lineAt(kLines)), 0u);
    EXPECT_EQ(t.lockOwnerOf(lineAt(kLines)), 0u);
}

// -------------- CC probes that run in place (Thread) --------------

namespace
{

/** What one thread has seen of the machine between two of its ops. */
struct Seen
{
    std::uint64_t ops;        ///< parked ops the scheduler has run
    std::uint64_t txOverhead; ///< the thread's CC and tx instructions
};

Seen
seen(System &sys, Thread &t)
{
    return {sys.scheduler().ops.value(), t.context().instr.txOverhead};
}

/** The config of a one-core system under @p cc. */
SystemConfig
oneCore(CcMode cc)
{
    SystemConfig cfg = SystemConfig::scaled(1);
    cfg.persist.ccMode = cc;
    return cfg;
}

} // namespace

TEST(CcInPlace, SecondTwoPhaseAccessToAnOwnedLineIsNotScheduled)
{
    System sys(oneCore(CcMode::TwoPhase), PersistMode::Fwb);
    Addr line = sys.heap().alloc(64, 64);
    std::vector<Seen> at;
    sys.spawn(0, [&](Thread &t) {
        return [](System &sys, Thread &t, Addr a,
                  std::vector<Seen> *at) -> sim::Co<void> {
            // Every await stays out of EXPECT_TRUE, whose expansion is
            // an if condition (see Thread::txStore64).
            co_await t.txBegin();
            at->push_back(seen(sys, t));
            bool ok = co_await t.txStore64(a, 1); // locks the line
            EXPECT_TRUE(ok);
            at->push_back(seen(sys, t));
            std::uint64_t v = 0;
            ok = co_await t.txLoad64(a + 8, &v);
            EXPECT_TRUE(ok);
            at->push_back(seen(sys, t));
            ok = co_await t.txStore64(a + 16, 3);
            EXPECT_TRUE(ok);
            at->push_back(seen(sys, t));
            co_await t.txCommit();
        }(sys, t, line, &at);
    });
    sys.run();
    ASSERT_EQ(at.size(), 4u);
    const std::uint64_t probe = Thread::kCcAcquireInstructions;
    // The first access parks its probe and its store.
    EXPECT_EQ(at[1].ops - at[0].ops, 2u);
    EXPECT_EQ(at[1].txOverhead - at[0].txOverhead, probe);
    // A load and a store of the owned line park only the access, and
    // each still charges the probe.
    EXPECT_EQ(at[2].ops - at[1].ops, 1u);
    EXPECT_EQ(at[2].txOverhead - at[1].txOverhead, probe);
    EXPECT_EQ(at[3].ops - at[2].ops, 1u);
    EXPECT_EQ(at[3].txOverhead - at[2].txOverhead, probe);
    // One lock taken, no waits.
    EXPECT_EQ(sys.txns().lockAcquires.value(), 1u);
    EXPECT_EQ(sys.txns().lockWaits.value(), 0u);
}

TEST(CcInPlace, Tl2ReadOfAnOwnedLineStaysScheduled)
{
    // A TL2 read records the line's commit version in the read-set,
    // so its probe stays scheduled even on a line the transaction
    // write-locked; a TL2 write to that line runs in place.
    System sys(oneCore(CcMode::Tl2), PersistMode::Fwb);
    Addr line = sys.heap().alloc(64, 64);
    std::vector<Seen> at;
    std::size_t readSet = 0;
    bool valid = false;
    sys.spawn(0, [&](Thread &t) {
        return [](System &sys, Thread &t, Addr a, std::vector<Seen> *at,
                  std::size_t *readSet, bool *valid) -> sim::Co<void> {
            // A first transaction commits a write: the line's commit
            // version becomes 1.
            co_await t.txBegin();
            bool ok = co_await t.txStore64(a, 1);
            EXPECT_TRUE(ok);
            co_await t.txCommit();

            co_await t.txBegin();
            ok = co_await t.txStore64(a + 8, 2); // locks the line
            EXPECT_TRUE(ok);
            at->push_back(seen(sys, t));
            std::uint64_t v = 0;
            ok = co_await t.txLoad64(a, &v);
            EXPECT_TRUE(ok);
            at->push_back(seen(sys, t));
            ok = co_await t.txStore64(a + 16, 3);
            EXPECT_TRUE(ok);
            at->push_back(seen(sys, t));
            *readSet = sys.txns().readSetSize(t.currentTxSeq());
            *valid = sys.txns().validateReads(t.currentTxSeq());
            co_await t.txCommit();
        }(sys, t, line, &at, &readSet, &valid);
    });
    sys.run();
    ASSERT_EQ(at.size(), 3u);
    const std::uint64_t probe = Thread::kCcAcquireInstructions;
    EXPECT_EQ(at[1].ops - at[0].ops, 2u); // probe and load
    EXPECT_EQ(at[1].txOverhead - at[0].txOverhead, probe);
    EXPECT_EQ(at[2].ops - at[1].ops, 1u); // the store only
    EXPECT_EQ(at[2].txOverhead - at[1].txOverhead, probe);
    // The read recorded version 1, which is still current.
    EXPECT_EQ(readSet, 1u);
    EXPECT_TRUE(valid);
    EXPECT_EQ(sys.txns().lineVersion(sys.mem().lineOf(line)), 2u);
    EXPECT_EQ(sys.txns().validationFailures.value(), 0u);
}

TEST(CcInPlace, AccessToALineAnotherTransactionHoldsStaysScheduled)
{
    // Core 0 locks the line and computes for 500 cycles before it
    // commits; core 1's store to the line meanwhile probes through the
    // scheduler, is told to wait, backs off and retries until the lock
    // is free.
    SystemConfig cfg = SystemConfig::scaled(2);
    cfg.persist.ccMode = CcMode::TwoPhase;
    System sys(cfg, PersistMode::Fwb);
    Addr a = sys.heap().alloc(64, 64);
    sys.spawn(0, [&](Thread &t) {
        return [](Thread &t, Addr a) -> sim::Co<void> {
            co_await t.txBegin();
            bool ok = co_await t.txStore64(a, 1);
            EXPECT_TRUE(ok);
            co_await t.compute(2000);
            co_await t.txCommit();
        }(t, a);
    });
    sys.spawn(1, [&](Thread &t) {
        return [](Thread &t, Addr a) -> sim::Co<void> {
            co_await t.compute(400);
            co_await t.txBegin();
            bool ok = co_await t.txStore64(a + 8, 2);
            EXPECT_TRUE(ok);
            co_await t.txCommit();
        }(t, a);
    });
    sys.run();
    EXPECT_GT(sys.txns().lockWaits.value(), 0u);
    EXPECT_EQ(sys.txns().lockAcquires.value(), 2u);
    EXPECT_EQ(sys.txns().committed.value(), 2u);
    EXPECT_EQ(sys.txns().deadlockAborts.value(), 0u);
}

// ---------------------------- Recovery ---------------------------

namespace
{

/** In-image log writer used to fabricate crash states. */
class ImageLog
{
  public:
    ImageLog(mem::BackingStore &image, const AddressMap &map)
        : image(image), map(map)
    {
        slots = (map.logSize - LogRegion::kHeaderBytes) /
                LogRecord::kSlotBytes;
        std::uint64_t magic = LogRegion::kMagic;
        image.write(map.logBase(), 8, &magic);
        image.write(map.logBase() + 8, 8, &slots);
    }

    void
    append(const LogRecord &rec)
    {
        std::uint8_t img[LogRecord::kSlotBytes];
        rec.serialize(img, (pass & 1) != 0);
        image.write(slotAddr(tail), sizeof(img), img);
        tail = (tail + 1) % slots;
        if (tail == 0)
            ++pass;
    }

    /** Write only the payload (a torn record: header missing). */
    void
    appendTorn(const LogRecord &rec)
    {
        std::uint8_t img[LogRecord::kSlotBytes];
        rec.serialize(img, (pass & 1) != 0);
        image.write(slotAddr(tail) + 8, sizeof(img) - 8, img + 8);
        tail = (tail + 1) % slots;
        if (tail == 0)
            ++pass;
    }

    Addr
    slotAddr(std::uint64_t slot) const
    {
        return map.logBase() + LogRegion::kHeaderBytes +
               slot * LogRecord::kSlotBytes;
    }

    std::uint64_t slots = 0;

  private:
    mem::BackingStore &image;
    AddressMap map;
    std::uint64_t tail = 0;
    std::uint64_t pass = 1;
};

struct Fixture
{
    AddressMap map;
    mem::BackingStore image;
    ImageLog log;

    Fixture()
        : map(makeMap()), image(map.nvramBase, 1 << 22),
          log(image, map)
    {
    }

    static AddressMap
    makeMap()
    {
        AddressMap m;
        m.nvramSize = 1 << 22;
        m.logSize = 4096;
        return m;
    }

    Addr data(std::uint64_t i) const { return map.heapBase() + i * 8; }
};

} // namespace

TEST(Recovery, EmptyLogIsNoop)
{
    Fixture f;
    f.image.write64(f.data(0), 42);
    auto report = Recovery::run(f.image, f.map);
    EXPECT_TRUE(report.headerValid);
    EXPECT_EQ(report.validRecords, 0u);
    EXPECT_EQ(f.image.read64(f.data(0)), 42u);
    // One log region: no per-shard summaries.
    EXPECT_TRUE(report.shards.empty());
}

TEST(Recovery, InvalidHeaderIsRejected)
{
    Fixture f;
    f.image.write64(f.map.logBase(), 0x1234); // corrupt magic
    auto report = Recovery::run(f.image, f.map);
    EXPECT_FALSE(report.headerValid);
}

TEST(Recovery, RedoAppliesCommittedTx)
{
    Fixture f;
    f.image.write64(f.data(0), 1); // stale value in NVRAM
    f.log.append(LogRecord::update(0, 10, f.data(0), 8, 1, 99));
    f.log.append(LogRecord::commit(0, 10));
    auto report = Recovery::run(f.image, f.map);
    EXPECT_EQ(report.committedTxns, 1u);
    EXPECT_EQ(report.redoApplied, 1u);
    EXPECT_EQ(f.image.read64(f.data(0)), 99u);
}

TEST(Recovery, UndoRollsBackUncommittedTx)
{
    Fixture f;
    f.image.write64(f.data(1), 55); // partially-stolen new value
    f.log.append(LogRecord::update(0, 11, f.data(1), 8, 7, 55));
    // No commit record: crash mid-transaction.
    auto report = Recovery::run(f.image, f.map);
    EXPECT_EQ(report.uncommittedTxns, 1u);
    EXPECT_EQ(report.undoApplied, 1u);
    EXPECT_EQ(f.image.read64(f.data(1)), 7u);
}

TEST(Recovery, UndoAppliedInReverseOrder)
{
    Fixture f;
    f.image.write64(f.data(2), 30);
    // Same address updated twice by one uncommitted tx: 10 -> 20 ->
    // 30. Correct rollback restores 10.
    f.log.append(LogRecord::update(0, 12, f.data(2), 8, 10, 20));
    f.log.append(LogRecord::update(0, 12, f.data(2), 8, 20, 30));
    Recovery::run(f.image, f.map);
    EXPECT_EQ(f.image.read64(f.data(2)), 10u);
}

TEST(Recovery, MixedCommittedAndUncommitted)
{
    Fixture f;
    f.image.write64(f.data(0), 0);
    f.image.write64(f.data(1), 111); // uncommitted tx's dirty value
    f.log.append(LogRecord::update(0, 1, f.data(0), 8, 0, 5));
    f.log.append(LogRecord::update(1, 2, f.data(1), 8, 100, 111));
    f.log.append(LogRecord::commit(0, 1));
    auto report = Recovery::run(f.image, f.map);
    EXPECT_EQ(report.committedTxns, 1u);
    EXPECT_EQ(report.uncommittedTxns, 1u);
    EXPECT_EQ(f.image.read64(f.data(0)), 5u);   // redone
    EXPECT_EQ(f.image.read64(f.data(1)), 100u); // undone
}

TEST(Recovery, TornRecordIsIgnored)
{
    Fixture f;
    f.image.write64(f.data(3), 77);
    f.log.appendTorn(
        LogRecord::update(0, 13, f.data(3), 8, 1, 77));
    auto report = Recovery::run(f.image, f.map);
    // The torn record has no written marker: not replayed.
    EXPECT_EQ(report.validRecords, 0u);
    EXPECT_EQ(f.image.read64(f.data(3)), 77u);
}

TEST(Recovery, TornCommitRecordRollsTxBack)
{
    // A crash can tear the commit record itself. The transaction's
    // updates are intact, but without a durable commit marker the tx
    // must be treated as uncommitted and its stolen data undone —
    // treating a torn commit as committed would expose a non-atomic
    // state the differential oracle rejects.
    Fixture f;
    f.image.write64(f.data(9), 88); // stolen new value
    f.log.append(LogRecord::update(0, 60, f.data(9), 8, 44, 88));
    f.log.appendTorn(LogRecord::commit(0, 60));
    auto report = Recovery::run(f.image, f.map);
    EXPECT_EQ(report.committedTxns, 0u);
    EXPECT_EQ(report.uncommittedTxns, 1u);
    EXPECT_EQ(report.undoApplied, 1u);
    EXPECT_EQ(f.image.read64(f.data(9)), 44u);
}

TEST(Recovery, TornCommitFollowedByIntactCommitStillCommits)
{
    // Only the torn marker is ignored: if the commit record was
    // re-written intact later (e.g. a retried flush landed), the
    // transaction is committed and redo applies.
    Fixture f;
    f.image.write64(f.data(9), 44); // stale value
    f.log.append(LogRecord::update(0, 61, f.data(9), 8, 44, 88));
    f.log.appendTorn(LogRecord::commit(0, 61));
    f.log.append(LogRecord::commit(0, 61));
    auto report = Recovery::run(f.image, f.map);
    EXPECT_EQ(report.committedTxns, 1u);
    EXPECT_EQ(f.image.read64(f.data(9)), 88u);
}

TEST(Recovery, RacingTxsOnOneLineTornCommitUndoesOnlyTheLoser)
{
    // Two transactions raced on the same word (serialized by the CC
    // layer: tx 70 committed, then tx 71 overwrote and its commit
    // record tore in the crash). Recovery must undo only the loser —
    // restoring tx 70's committed value, not the original — and redo
    // the winner. This is the serializability oracle's crash rule in
    // log form: the surviving image equals a commit-order prefix.
    Fixture f;
    f.image.write64(f.data(3), 222); // tx 71's stolen value
    f.log.append(LogRecord::update(0, 70, f.data(3), 8, 100, 111));
    f.log.append(LogRecord::commit(0, 70));
    f.log.append(LogRecord::update(1, 71, f.data(3), 8, 111, 222));
    f.log.appendTorn(LogRecord::commit(1, 71));
    auto report = Recovery::run(f.image, f.map);
    EXPECT_EQ(report.committedTxns, 1u);
    EXPECT_EQ(report.uncommittedTxns, 1u);
    EXPECT_EQ(f.image.read64(f.data(3)), 111u);
}

TEST(Recovery, RacingTxsBothTornCommitsRollBackToTheirUndoChain)
{
    // Same race, but both commit records tore: both are uncommitted,
    // and the undo chain (applied newest-first across transactions)
    // walks the line back to its pre-race value.
    Fixture f;
    f.image.write64(f.data(3), 222);
    f.log.append(LogRecord::update(0, 72, f.data(3), 8, 100, 111));
    f.log.appendTorn(LogRecord::commit(0, 72));
    f.log.append(LogRecord::update(1, 73, f.data(3), 8, 111, 222));
    f.log.appendTorn(LogRecord::commit(1, 73));
    auto report = Recovery::run(f.image, f.map);
    EXPECT_EQ(report.committedTxns, 0u);
    EXPECT_EQ(report.uncommittedTxns, 2u);
    EXPECT_EQ(f.image.read64(f.data(3)), 100u);
}

TEST(Recovery, WindowSpansWrapInOrder)
{
    Fixture f;
    // Fill the log exactly once, then two more records of a second
    // pass. The oldest live records sit just past the wrap point.
    std::uint64_t n = f.log.slots;
    f.image.write64(f.data(4), 0);
    for (std::uint64_t i = 0; i < n; ++i) {
        f.log.append(
            LogRecord::update(0, 20, f.data(4), 8, i, i + 1));
    }
    f.log.append(
        LogRecord::update(0, 20, f.data(4), 8, n, n + 1));
    f.log.append(LogRecord::commit(0, 20));
    auto report = Recovery::run(f.image, f.map);
    EXPECT_EQ(report.committedTxns, 1u);
    // Redo must end at the newest value, which lives in pass 2.
    EXPECT_EQ(f.image.read64(f.data(4)), n + 1);
}

TEST(Recovery, CommitOnlyWindowIsHarmless)
{
    Fixture f;
    f.image.write64(f.data(5), 13);
    f.log.append(LogRecord::commit(0, 30));
    auto report = Recovery::run(f.image, f.map);
    EXPECT_EQ(report.committedTxns, 1u);
    EXPECT_EQ(report.redoApplied, 0u);
    EXPECT_EQ(f.image.read64(f.data(5)), 13u);
}

TEST(Recovery, TruncatesLogAfterReplay)
{
    Fixture f;
    f.log.append(LogRecord::update(0, 1, f.data(0), 8, 0, 1));
    f.log.append(LogRecord::commit(0, 1));
    Recovery::run(f.image, f.map);
    auto second = Recovery::run(f.image, f.map);
    EXPECT_EQ(second.validRecords, 0u);
}

TEST(Recovery, IdempotentWithoutTruncation)
{
    Fixture f;
    f.image.write64(f.data(0), 1);
    f.image.write64(f.data(1), 200);
    f.log.append(LogRecord::update(0, 1, f.data(0), 8, 1, 50));
    f.log.append(LogRecord::commit(0, 1));
    f.log.append(LogRecord::update(0, 2, f.data(1), 8, 2, 200));

    RecoveryOptions keep;
    keep.truncateLog = false;
    Recovery::run(f.image, f.map, keep);
    std::uint64_t v0 = f.image.read64(f.data(0));
    std::uint64_t v1 = f.image.read64(f.data(1));
    Recovery::run(f.image, f.map, keep);
    EXPECT_EQ(f.image.read64(f.data(0)), v0);
    EXPECT_EQ(f.image.read64(f.data(1)), v1);
    EXPECT_EQ(v0, 50u);
    EXPECT_EQ(v1, 2u);
}

TEST(Recovery, TxIdReuseSeparatedByCommit)
{
    Fixture f;
    f.image.write64(f.data(6), 3);
    // Generation 1 of txid 40 commits; generation 2 crashes.
    f.log.append(LogRecord::update(0, 40, f.data(6), 8, 1, 2));
    f.log.append(LogRecord::commit(0, 40));
    f.log.append(LogRecord::update(0, 40, f.data(6), 8, 2, 3));
    auto report = Recovery::run(f.image, f.map);
    EXPECT_EQ(report.committedTxns, 1u);
    EXPECT_EQ(report.uncommittedTxns, 1u);
    // Redo of gen 1 writes 2; undo of gen 2 also restores 2.
    EXPECT_EQ(f.image.read64(f.data(6)), 2u);
}

TEST(Recovery, CommittedUndoOnlyTxAppliesNothing)
{
    // Software undo logging: a committed transaction's records carry
    // no redo values (the data was clwb'd before the commit record),
    // so recovery must leave the in-NVRAM values untouched.
    Fixture f;
    f.image.write64(f.data(7), 999); // the flushed new value
    f.log.append(LogRecord::update(0, 50, f.data(7), 8, 9,
                                   std::nullopt));
    f.log.append(LogRecord::commit(0, 50));
    auto report = Recovery::run(f.image, f.map);
    EXPECT_EQ(report.committedTxns, 1u);
    EXPECT_EQ(report.redoApplied, 0u);
    EXPECT_EQ(f.image.read64(f.data(7)), 999u);
}

TEST(Recovery, UncommittedRedoOnlyTxCannotRollBack)
{
    // Redo-only logging cannot undo stolen data: recovery applies
    // nothing for the uncommitted tx (this is why redo logging alone
    // cannot tolerate steal, Section II-B).
    Fixture f;
    f.image.write64(f.data(8), 77); // stolen new value
    f.log.append(LogRecord::update(0, 51, f.data(8), 8,
                                   std::nullopt, 77));
    auto report = Recovery::run(f.image, f.map);
    EXPECT_EQ(report.uncommittedTxns, 1u);
    EXPECT_EQ(report.undoApplied, 0u);
    EXPECT_EQ(f.image.read64(f.data(8)), 77u);
}

// --------------- cross-shard commit atomicity (shardlab) ---------

namespace
{

/**
 * Hand-built multi-shard log image: one circular region per shard,
 * records appended per shard with the same torn-bit pass parity the
 * real LogRegion uses.
 */
class ShardedImageLog
{
  public:
    ShardedImageLog(mem::BackingStore &image, const AddressMap &map)
        : image(image), map(map), shards(map.logShards)
    {
        shardBytes = map.logSize / shards;
        slots = (shardBytes - LogRegion::kHeaderBytes) /
                LogRecord::kSlotBytes;
        tails.assign(shards, 0);
        passes.assign(shards, 1);
        for (std::uint32_t s = 0; s < shards; ++s) {
            std::uint64_t magic = LogRegion::kMagic;
            image.write(base(s), 8, &magic);
            image.write(base(s) + 8, 8, &slots);
        }
    }

    Addr base(std::uint32_t s) const
    {
        return map.logBase() + s * shardBytes;
    }

    void
    append(std::uint32_t s, const LogRecord &rec, bool torn = false)
    {
        std::uint8_t img[LogRecord::kSlotBytes];
        rec.serialize(img, (passes[s] & 1) != 0);
        Addr a = base(s) + LogRegion::kHeaderBytes +
                 tails[s] * LogRecord::kSlotBytes;
        if (torn) {
            // Payload only — the header word with the written
            // marker never arrived (a torn record).
            image.write(a + 8, sizeof(img) - 8, img + 8);
        } else {
            image.write(a, sizeof(img), img);
        }
        tails[s] = (tails[s] + 1) % slots;
        if (tails[s] == 0)
            ++passes[s];
    }

  private:
    mem::BackingStore &image;
    AddressMap map;
    std::uint32_t shards;
    std::uint64_t shardBytes = 0;
    std::uint64_t slots = 0;
    std::vector<std::uint64_t> tails;
    std::vector<std::uint64_t> passes;
};

struct ShardedFixture
{
    AddressMap map;
    mem::BackingStore image;
    ShardedImageLog log;

    explicit ShardedFixture(std::uint32_t shards)
        : map(makeMap(shards)), image(map.nvramBase, 1 << 22),
          log(image, map)
    {
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

    /** A heap data line owned by shard @p s (shard = line mod N). */
    Addr
    lineForShard(std::uint32_t s) const
    {
        for (std::uint64_t k = 0;; ++k) {
            Addr a = map.heapBase() + k * 64;
            if ((a >> 6) % map.logShards == s)
                return a;
        }
    }
};

/**
 * One cross-shard transaction, every persist boundary of the commit
 * protocol. The protocol's persist order is: per-shard update
 * records, then the participants' prepare records, then the owner's
 * masked commit. A crash after any strict prefix must recover
 * all-aborted; only the full sequence (commit durable) recovers
 * all-committed — never a mix.
 */
void
crossShardBoundarySweep(std::uint32_t shards)
{
    const std::uint64_t kOld = 0xAA00, kNew = 0xBB00;
    const std::uint64_t mask = (1ULL << shards) - 1;
    // Persist sequence: updates[0..N-1], prepares[1..N-1], commit.
    const std::size_t total = shards + (shards - 1) + 1;

    for (std::size_t prefix = 0; prefix <= total; ++prefix) {
        ShardedFixture f(shards);
        std::vector<Addr> lines(shards);
        std::size_t written = 0;
        auto inPrefix = [&] { return written++ < prefix; };

        for (std::uint32_t s = 0; s < shards; ++s) {
            lines[s] = f.lineForShard(s);
            bool logged = inPrefix();
            if (logged) {
                f.log.append(s, LogRecord::update(
                                    0, 1, lines[s], 8, kOld + s,
                                    kNew + s));
            }
            // Steal: the in-place write may be durable once (and
            // only once) its log record is — model the worst case.
            f.image.write64(lines[s], logged ? kNew + s : kOld + s);
        }
        for (std::uint32_t s = 1; s < shards; ++s) {
            if (inPrefix())
                f.log.append(s, LogRecord::prepare(0, 1, 1, 1));
        }
        bool committed = inPrefix();
        if (committed) {
            f.log.append(0,
                         LogRecord::commitMasked(0, 1, 1, 1, mask));
        }

        auto report = Recovery::run(f.image, f.map);
        for (std::uint32_t s = 0; s < shards; ++s) {
            EXPECT_EQ(f.image.read64(lines[s]),
                      committed ? kNew + s : kOld + s)
                << "shards=" << shards << " prefix=" << prefix
                << " shard=" << s << " mixed transaction state";
        }
        EXPECT_EQ(report.committedTxns, committed ? 1u : 0u)
            << "shards=" << shards << " prefix=" << prefix;

        // Re-entrant truncation: a second recovery over the
        // truncated shards is a no-op on the data image.
        auto again = Recovery::run(f.image, f.map);
        EXPECT_EQ(again.validRecords, 0u);
        for (std::uint32_t s = 0; s < shards; ++s) {
            EXPECT_EQ(f.image.read64(lines[s]),
                      committed ? kNew + s : kOld + s);
        }
    }
}

} // namespace

TEST(ShardedRecovery, CrossShardCommitBoundarySweepTwoShards)
{
    crossShardBoundarySweep(2);
}

TEST(ShardedRecovery, CrossShardCommitBoundarySweepFourShards)
{
    crossShardBoundarySweep(4);
}

TEST(ShardedRecovery, TornMaskedCommitAbortsAllShards)
{
    // The full protocol ran but the masked commit record itself is
    // torn: the atomic commit point never became durable, so every
    // shard's slice must roll back.
    for (std::uint32_t shards : {2u, 4u}) {
        ShardedFixture f(shards);
        std::vector<Addr> lines(shards);
        for (std::uint32_t s = 0; s < shards; ++s) {
            lines[s] = f.lineForShard(s);
            f.log.append(s, LogRecord::update(0, 1, lines[s], 8,
                                              0xAA00 + s,
                                              0xBB00 + s));
            f.image.write64(lines[s], 0xBB00 + s);
        }
        for (std::uint32_t s = 1; s < shards; ++s)
            f.log.append(s, LogRecord::prepare(0, 1, 1, 1));
        f.log.append(0,
                     LogRecord::commitMasked(0, 1, 1, 1,
                                             (1ULL << shards) - 1),
                     /*torn=*/true);

        auto report = Recovery::run(f.image, f.map);
        EXPECT_EQ(report.committedTxns, 0u);
        for (std::uint32_t s = 0; s < shards; ++s)
            EXPECT_EQ(f.image.read64(lines[s]), 0xAA00 + s)
                << "shards=" << shards << " shard=" << s;
    }
}

TEST(ShardedRecovery, RemappedImageReplaysEveryShard)
{
    // With a line remapped, the scan reads each shard's slot array
    // through the translating reader and classifies it in one scratch
    // run that the next shard reuses: every shard's records must
    // still replay, not the last shard's in their place.
    for (std::uint32_t shards : {2u, 4u}) {
        AddressMap map = ShardedFixture::makeMap(shards);
        map.remapSize = 2048;
        map.spareSize = 4096;
        mem::BackingStore image(map.nvramBase, map.nvramSize);
        ShardedImageLog log(image, map);
        std::vector<Addr> lines;
        for (Addr a = map.heapBase(); lines.size() < shards; a += 64)
            if ((a >> 6) % shards == lines.size())
                lines.push_back(a);
        for (std::uint32_t s = 0; s < shards; ++s) {
            const auto tx = static_cast<std::uint16_t>(s + 1);
            log.append(s, LogRecord::update(0, tx, lines[s], 8, 0xA0 + s,
                                            0xB0 + s));
            log.append(s, LogRecord::commit(0, tx, 1));
            image.write64(lines[s], 0xA0 + s);
        }
        mem::RemapTable remap(map.remapBase(), map.remapSize,
                              map.spareBase(), map.spareSize);
        ASSERT_TRUE(remap.add(map.heapBase() + 64 * 1024));
        ASSERT_TRUE(remap.persist(
            [&image](Addr a, std::uint64_t n, const void *d) {
                image.write(a, n, d);
            }));

        auto report = Recovery::run(image, map);
        EXPECT_FALSE(report.remapCorrupt);
        EXPECT_EQ(report.redoApplied, shards);
        for (std::uint32_t s = 0; s < shards; ++s)
            EXPECT_EQ(image.read64(lines[s]), 0xB0 + s)
                << "shards=" << shards << " shard=" << s;
    }
}

TEST(ShardedRecovery, TornPrepareQuarantinesInsteadOfMixing)
{
    // The commit record is durable but one participant's prepare is
    // torn while that shard still holds the tx's open update slice.
    // Replaying the other slices and leaving (or undoing) the torn
    // shard's would both produce a mixed image — the recovery must
    // quarantine the transaction and pin its slices instead.
    ShardedFixture f(2);
    Addr l0 = f.lineForShard(0), l1 = f.lineForShard(1);
    f.log.append(0, LogRecord::update(0, 1, l0, 8, 0xAA, 0xBB));
    f.log.append(1, LogRecord::update(0, 1, l1, 8, 0xCC, 0xDD));
    f.image.write64(l0, 0xBB);
    f.image.write64(l1, 0xDD);
    f.log.append(1, LogRecord::prepare(0, 1, 1, 1), /*torn=*/true);
    f.log.append(0, LogRecord::commitMasked(0, 1, 1, 1, 0b11));

    auto report = Recovery::run(f.image, f.map);
    EXPECT_EQ(report.quarantinedTxns, 1u);
    // Pinned: neither slice replayed nor rolled back — the image
    // keeps whatever the crash left (here: the stolen new values).
    EXPECT_EQ(f.image.read64(l0), 0xBBu);
    EXPECT_EQ(f.image.read64(l1), 0xDDu);
}

// ------------- recovery outputs on a wrapping TPC-C log ----------

namespace
{

/**
 * Content hash of a whole image in which an absent page and a
 * resident all-zero page read alike: only pages holding a nonzero
 * byte contribute, each keyed by its offset.
 */
std::uint64_t
contentHash(const mem::BackingStore &img)
{
    std::uint64_t h = 0;
    auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 0x9E3779B97F4A7C15ULL;
        h ^= h >> 29;
    };
    for (std::uint64_t off = 0; off < img.size();) {
        std::uint64_t avail = 0;
        const std::uint8_t *p = img.pageAt(img.base() + off, &avail);
        if (p && std::any_of(p, p + avail,
                             [](std::uint8_t b) { return b != 0; })) {
            mix(off);
            for (std::uint64_t i = 0; i < avail; i += 8) {
                std::uint64_t w = 0;
                std::memcpy(&w, p + i, std::min<std::uint64_t>(
                                           8, avail - i));
                mix(w);
            }
        }
        off += avail;
    }
    return h;
}

/** Report fields summed over every pass, and the images' hashes. */
struct RecoverySums
{
    std::uint64_t slotsScanned = 0;
    std::uint64_t emptySlots = 0;
    std::uint64_t validRecords = 0;
    std::uint64_t committedTxns = 0;
    std::uint64_t uncommittedTxns = 0;
    std::uint64_t redoApplied = 0;
    std::uint64_t undoApplied = 0;
    std::uint64_t writesIssued = 0;
    std::uint64_t writesApplied = 0;
    std::uint64_t imageHash = 0;

    void
    add(const RecoveryReport &r, const mem::BackingStore &img)
    {
        slotsScanned += r.slotsScanned;
        emptySlots += r.emptySlots;
        validRecords += r.validRecords;
        committedTxns += r.committedTxns;
        uncommittedTxns += r.uncommittedTxns;
        redoApplied += r.redoApplied;
        undoApplied += r.undoApplied;
        writesIssued += r.writesIssued;
        writesApplied += r.writesApplied;
        imageHash = (imageHash ^ contentHash(img)) * 0xFF51AFD7ED558CCDULL;
    }
};

/**
 * The TPC-C crash cell of sweep_perf's BM_CrashPointCheck (fwb/2PL, 4
 * threads, 4 warehouses, 256 customers per district, 130 tx per
 * thread; its 256 KB log wraps) on @p logShards log regions, crashed
 * at 8 seeded ticks. Each crash image is recovered by a canonical
 * pass, a non-truncating pass, and three passes cut short by
 * crashAfterWrites: inside replay, inside truncation, and one line
 * write before the end.
 */
RecoverySums
tpccRecoverySums(std::uint32_t logShards)
{
    workloads::WorkloadParams params;
    params.threads = 4;
    params.txPerThread = 130;
    params.footprint = 256;
    params.warehouses = 4;
    params.seed = 1;
    SystemConfig cfg = SystemConfig::scaled(params.threads);
    cfg.persist.ccMode = CcMode::TwoPhase;
    cfg.persist.crashJournal = true;
    cfg.persist.logShards = logShards;
    System sys(cfg, PersistMode::Fwb);
    oltp::TpccEngine eng;
    eng.setup(sys, params);
    for (CoreId c = 0; c < params.threads; ++c)
        sys.spawn(c, [&](Thread &t) -> sim::Co<void> {
            return eng.thread(sys, t, params);
        });
    const Tick end = sys.run();
    const AddressMap &map = sys.config().map;

    RecoverySums sums;
    sim::Rng rng(31);
    for (int k = 0; k < 8; ++k) {
        const mem::BackingStore crash =
            sys.crashSnapshot(rng.below(end) + 1);
        auto pass = [&](const RecoveryOptions &opts) {
            mem::BackingStore img = crash;
            RecoveryReport r = Recovery::run(img, map, opts);
            sums.add(r, img);
            return r;
        };
        const RecoveryReport canon = pass(RecoveryOptions{});
        RecoveryOptions keep;
        keep.truncateLog = false;
        const std::uint64_t replay = pass(keep).writesIssued;
        EXPECT_GT(replay, 1u) << "tick " << k << " replays nothing";
        EXPECT_GT(canon.writesIssued, replay + 2);
        for (std::uint64_t budget :
             {replay / 2, replay + (canon.writesIssued - replay) / 2,
              canon.writesIssued - 1}) {
            RecoveryOptions cut;
            cut.crashAfterWrites = budget;
            EXPECT_TRUE(pass(cut).interrupted);
        }
    }
    return sums;
}

void
expectSums(const RecoverySums &s, const RecoverySums &want)
{
    EXPECT_EQ(s.slotsScanned, want.slotsScanned);
    EXPECT_EQ(s.emptySlots, want.emptySlots);
    EXPECT_EQ(s.validRecords, want.validRecords);
    EXPECT_EQ(s.committedTxns, want.committedTxns);
    EXPECT_EQ(s.uncommittedTxns, want.uncommittedTxns);
    EXPECT_EQ(s.redoApplied, want.redoApplied);
    EXPECT_EQ(s.undoApplied, want.undoApplied);
    EXPECT_EQ(s.writesIssued, want.writesIssued);
    EXPECT_EQ(s.writesApplied, want.writesApplied);
    EXPECT_EQ(s.imageHash, want.imageHash)
        << std::hex << "0x" << s.imageHash;
}

} // namespace

// Pins what recovery writes and reports on a wrapping TPC-C log, at
// one and at four log regions, so a change to how a pass reads or
// writes the image cannot move a byte or a count unnoticed. The
// constants were captured before recovery batched its replay and
// truncation writes, and re-captured when FWB began draining each
// scan's write-backs in address order and again when a reclaim began
// trusting an older completed write-back that carried the store: each
// time the run ends sooner, so its crash ticks land elsewhere.
TEST(RecoveryGolden, WrappingTpccLogKeepsItsCountsAndImages)
{
    RecoverySums one;
    one.slotsScanned = 327600;
    one.emptySlots = 100795;
    one.validRecords = 226800;
    one.committedTxns = 8285;
    one.uncommittedTxns = 145;
    one.redoApplied = 215450;
    one.undoApplied = 3065;
    one.writesIssued = 349619;
    one.writesApplied = 278589;
    one.imageHash = 14384690031723033891ULL;
    expectSums(tpccRecoverySums(1), one);

    RecoverySums four;
    four.slotsScanned = 327360;
    four.emptySlots = 107730;
    four.validRecords = 219630;
    four.committedTxns = 7485;
    four.uncommittedTxns = 165;
    four.redoApplied = 194890;
    four.undoApplied = 3165;
    four.writesIssued = 329255;
    four.writesApplied = 260239;
    four.imageHash = 12621412069246075987ULL;
    expectSums(tpccRecoverySums(4), four);
}
