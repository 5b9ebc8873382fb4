/**
 * @file
 * Integration tests of the System facade and the thread API:
 * transaction semantics per mode, instruction accounting, instant
 * commits under FWB, locks and CAS, multi-word transfers, crash
 * snapshots, end-to-end recovery of a hand-built transaction, and
 * which write-backs let a log-full reclaim free a slot.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/system.hh"
#include "persist/recovery.hh"

using namespace snf;

namespace
{

struct Env
{
    SystemConfig cfg;
    System sys;
    Addr a;

    explicit Env(PersistMode mode, std::uint32_t cores = 2,
                 bool journal = false)
        : cfg(makeCfg(cores, journal)), sys(cfg, mode),
          a(sys.heap().alloc(4096, 64))
    {
    }

    static SystemConfig
    makeCfg(std::uint32_t cores, bool journal)
    {
        SystemConfig c = SystemConfig::scaled(cores);
        c.persist.crashJournal = journal;
        return c;
    }
};

sim::Co<void>
incrementLoop(Thread &t, Addr addr, int iters)
{
    for (int i = 0; i < iters; ++i) {
        co_await t.txBegin();
        std::uint64_t v = co_await t.load64(addr);
        co_await t.store64(addr, v + 1);
        co_await t.txCommit();
    }
}

sim::Co<void>
lockedIncrement(Thread &t, Addr lock, Addr addr, int iters)
{
    for (int i = 0; i < iters; ++i) {
        co_await t.lockAcquire(lock);
        co_await t.txBegin();
        std::uint64_t v = co_await t.load64(addr);
        co_await t.compute(5);
        co_await t.store64(addr, v + 1);
        co_await t.txCommit();
        co_await t.lockRelease(lock);
    }
}

sim::Co<void>
bytesRoundTrip(Thread &t, Addr addr, bool *ok)
{
    std::uint8_t in[100];
    for (std::size_t i = 0; i < sizeof(in); ++i)
        in[i] = static_cast<std::uint8_t>(i * 3 + 1);
    co_await t.txBegin();
    co_await t.storeBytes(addr + 4, in, sizeof(in)); // unaligned
    co_await t.txCommit();
    std::uint8_t out[100] = {};
    co_await t.loadBytes(addr + 4, out, sizeof(out));
    *ok = std::equal(in, in + sizeof(in), out);
}

/** What ending a transaction may cost, read between two ops. */
struct EndCosts
{
    std::uint64_t logStores = 0;
    std::uint64_t fences = 0;
    std::uint64_t nvramWrites = 0;
    std::uint64_t wcbFlushes = 0;
    std::size_t wcbEntries = 0;
    std::uint64_t commitRecords = 0;

    std::string
    str() const
    {
        return strfmt("log-stores=%llu fences=%llu nvram-writes=%llu "
                      "wcb-flushes=%llu wcb-entries=%zu",
                      static_cast<unsigned long long>(logStores),
                      static_cast<unsigned long long>(fences),
                      static_cast<unsigned long long>(nvramWrites),
                      static_cast<unsigned long long>(wcbFlushes),
                      wcbEntries);
    }
};

EndCosts
endCosts(System &sys, Thread &t)
{
    EndCosts c;
    c.logStores = t.context().instr.logStores;
    c.fences = t.context().instr.fences;
    c.nvramWrites = sys.mem().nvram().writes.value();
    c.wcbFlushes = sys.mem().wcb().flushes.value();
    c.wcbEntries = sys.mem().wcb().occupancy();
    c.commitRecords = sys.hwl() ? sys.hwl()->commitRecords.value()
                                : sys.swlog()->commitRecords.value();
    return c;
}

/**
 * A writer over eight lines, then a read-only commit and an abort
 * before any store. costs[0..1] bracket the commit, costs[2..3] the
 * abort. With @p repeat, further read-only transactions follow.
 */
sim::Co<void>
readOnlyEnds(System &sys, Thread &t, Addr a, EndCosts *costs,
             int repeat)
{
    co_await t.txBegin();
    for (std::uint64_t l = 0; l < 8; ++l)
        co_await t.store64(a + l * 64, l + 1);
    co_await t.txCommit();

    co_await t.txBegin();
    co_await t.load64(a);
    costs[0] = endCosts(sys, t);
    co_await t.txCommit();
    costs[1] = endCosts(sys, t);

    co_await t.txBegin();
    co_await t.load64(a + 64);
    costs[2] = endCosts(sys, t);
    co_await t.txAbort();
    costs[3] = endCosts(sys, t);

    for (int i = 0; i < repeat; ++i) {
        co_await t.txBegin();
        co_await t.load64(a + (i % 8) * 64);
        co_await t.txCommit();
    }
}

/** Writer transactions over eight lines each. */
sim::Co<void>
writerLoop(Thread &t, Addr a, int txs)
{
    for (int i = 0; i < txs; ++i) {
        co_await t.txBegin();
        for (std::uint64_t l = 0; l < 8; ++l)
            co_await t.store64(a + l * 64, i + l);
        co_await t.txCommit();
    }
}

sim::Co<void>
openForever(Thread &t, Addr addr)
{
    co_await t.txBegin();
    co_await t.store64(addr, 0xbad);
    co_await t.clwb(addr); // steal the line into NVRAM
    co_await t.fence();
    co_await t.compute(1000000); // never commits before crash
    co_await t.txCommit();
}

} // namespace

TEST(SystemFacade, RunsSingleTransaction)
{
    Env env(PersistMode::Fwb);
    env.sys.spawn(0, [&](Thread &t) {
        return incrementLoop(t, env.a, 1);
    });
    Tick end = env.sys.run();
    EXPECT_GT(end, 0u);
    EXPECT_EQ(env.sys.txns().committed.value(), 1u);
    EXPECT_EQ(env.sys.heap().peek64(env.a), 0u); // still cached
    env.sys.flushAll(end);
    EXPECT_EQ(env.sys.heap().peek64(env.a), 1u);
}

TEST(SystemFacade, StatsAggregateInstructionClasses)
{
    Env env(PersistMode::UndoClwb);
    env.sys.spawn(0, [&](Thread &t) {
        return incrementLoop(t, env.a, 10);
    });
    Tick end = env.sys.run();
    RunStats s = env.sys.collectStats(end);
    EXPECT_EQ(s.committedTx, 10u);
    EXPECT_EQ(s.instr.loads, 10u + s.instr.logLoads * 0); // 10 loads
    EXPECT_GT(s.instr.logStores, 0u);
    EXPECT_GT(s.instr.logLoads, 0u);
    EXPECT_GT(s.instr.clwbs, 0u);
    EXPECT_GT(s.instr.fences, 0u);
    EXPECT_GT(s.instr.txOverhead, 0u);
}

TEST(SystemFacade, FwbCommitInjectsNoFlushInstructions)
{
    Env env(PersistMode::Fwb);
    env.sys.spawn(0, [&](Thread &t) {
        return incrementLoop(t, env.a, 20);
    });
    Tick end = env.sys.run();
    RunStats s = env.sys.collectStats(end);
    // Instant commit: no clwb, no fences, no logging instructions.
    EXPECT_EQ(s.instr.clwbs, 0u);
    EXPECT_EQ(s.instr.fences, 0u);
    EXPECT_EQ(s.instr.logStores, 0u);
    EXPECT_EQ(s.instr.logLoads, 0u);
    // But the hardware wrote update + commit records.
    EXPECT_EQ(s.logRecords, 20u * 2);
}

TEST(SystemFacade, HwlFlushesWriteSetWithClwb)
{
    Env env(PersistMode::Hwl);
    env.sys.spawn(0, [&](Thread &t) {
        return incrementLoop(t, env.a, 5);
    });
    Tick end = env.sys.run();
    RunStats s = env.sys.collectStats(end);
    EXPECT_EQ(s.instr.clwbs, 5u); // one line per transaction
    EXPECT_EQ(s.instr.logStores, 0u);
}

TEST(SystemFacade, SoftwareLoggingInflatesInstructions)
{
    std::uint64_t base_instr = 0;
    {
        Env env(PersistMode::NonPers);
        env.sys.spawn(0, [&](Thread &t) {
            return incrementLoop(t, env.a, 50);
        });
        base_instr =
            env.sys.collectStats(env.sys.run()).instr.total;
    }
    Env env(PersistMode::UndoClwb);
    env.sys.spawn(0, [&](Thread &t) {
        return incrementLoop(t, env.a, 50);
    });
    std::uint64_t sw_instr =
        env.sys.collectStats(env.sys.run()).instr.total;
    EXPECT_GT(sw_instr, base_instr * 3 / 2); // well above 1.5x
}

TEST(SystemFacade, SoftwareLoggingEndsReadOnlyTransactionsWithNoRecord)
{
    for (PersistMode mode :
         {PersistMode::UndoClwb, PersistMode::RedoClwb,
          PersistMode::UnsafeUndo, PersistMode::Fwb, PersistMode::Hwl}) {
        SCOPED_TRACE(persistModeName(mode));
        {
            // One core, so nothing else moves the counters.
            Env env(mode);
            EndCosts costs[4];
            env.sys.spawn(0, [&](Thread &t) {
                return readOnlyEnds(env.sys, t, env.a, costs, 0);
            });
            env.sys.run();
            // The commit and the abort each still append a record
            // under hardware logging, and none under software logging.
            std::uint64_t records = isHardwareLogging(mode) ? 1 : 0;
            EXPECT_EQ(costs[1].commitRecords,
                      costs[0].commitRecords + records);
            EXPECT_EQ(costs[3].commitRecords,
                      costs[2].commitRecords + records);
            if (!isHardwareLogging(mode)) {
                // No log store, fence, NVRAM write or WCB flush; under
                // unsafe-undo the writer's commit record is still in
                // the WCB, and no drain takes it out.
                EXPECT_EQ(costs[0].str(), costs[1].str());
                EXPECT_EQ(costs[2].str(), costs[3].str());
            }
        }

        // Core 0 ends read-only transactions while core 1's writers
        // keep WCB flushes in flight.
        Env env(mode);
        System &sys = env.sys;
        std::map<std::uint64_t, Tick> initiated;
        struct End
        {
            std::uint64_t seq;
            Tick tick;
        };
        std::vector<End> ends;
        std::set<std::uint64_t> durable;
        sys.setProbe([&](sim::ProbeEvent e, Tick t, std::uint64_t arg) {
            if (e == sim::ProbeEvent::TxCommit ||
                e == sim::ProbeEvent::TxAbort)
                initiated[arg] = t;
            else if (e == sim::ProbeEvent::ReadOnlyEnd)
                ends.push_back({arg, t});
            else if (e == sim::ProbeEvent::CommitDurable)
                durable.insert(arg);
        });
        EndCosts costs[4];
        sys.spawn(0, [&](Thread &t) {
            return readOnlyEnds(sys, t, env.a, costs, 40);
        });
        sys.spawn(1, [&](Thread &t) {
            return writerLoop(t, env.a + 1024, 20);
        });
        sys.run();
        if (isHardwareLogging(mode)) {
            EXPECT_TRUE(ends.empty());
            continue;
        }
        // 41 read-only commits and one abort, each announced at its
        // TxCommit or TxAbort tick, whatever flushes are in flight.
        ASSERT_EQ(ends.size(), 42u);
        for (const End &e : ends) {
            EXPECT_EQ(e.tick, initiated.at(e.seq));
            EXPECT_EQ(durable.count(e.seq), 0u);
        }
    }
}

TEST(SystemFacade, LocksSerializeConflictingThreads)
{
    Env env(PersistMode::Fwb, 4);
    Addr lock = env.sys.dramHeap().alloc(8, 64);
    for (CoreId c = 0; c < 4; ++c) {
        env.sys.spawn(c, [&](Thread &t) {
            return lockedIncrement(t, lock, env.a, 25);
        });
    }
    Tick end = env.sys.run();
    env.sys.flushAll(end);
    EXPECT_EQ(env.sys.heap().peek64(env.a), 100u);
}

TEST(SystemFacade, UnlockedRacesLoseUpdates)
{
    // Negative control: without locks, read-modify-write races drop
    // increments, proving the scheduler interleaves at op level.
    Env env(PersistMode::NonPers, 4);
    for (CoreId c = 0; c < 4; ++c) {
        env.sys.spawn(c, [&](Thread &t) {
            return incrementLoop(t, env.a, 50);
        });
    }
    Tick end = env.sys.run();
    env.sys.flushAll(end);
    EXPECT_LT(env.sys.heap().peek64(env.a), 200u);
}

TEST(SystemFacade, StoreBytesLoadBytesRoundTrip)
{
    Env env(PersistMode::Fwb);
    bool ok = false;
    env.sys.spawn(0, [&](Thread &t) {
        return bytesRoundTrip(t, env.a + 256, &ok);
    });
    env.sys.run();
    EXPECT_TRUE(ok);
}

TEST(SystemFacade, CrashSnapshotExcludesVolatileState)
{
    Env env(PersistMode::Fwb, 1, /*journal=*/true);
    env.sys.spawn(0, [&](Thread &t) {
        return incrementLoop(t, env.a, 1);
    });
    Tick end = env.sys.run();
    // Without a flush the counter update may still be cached; the
    // snapshot sees only what reached NVRAM by `end`.
    mem::BackingStore snap = env.sys.crashSnapshot(end);
    EXPECT_EQ(snap.read64(env.a), 0u);
    // But the log records did reach NVRAM; recovery redoes them.
    auto report = persist::Recovery::run(snap, env.cfg.map);
    EXPECT_EQ(report.committedTxns, 1u);
    EXPECT_EQ(snap.read64(env.a), 1u);
}

TEST(SystemFacade, RecoveryUndoesUncommittedAtCrash)
{
    Env env(PersistMode::Fwb, 1, /*journal=*/true);
    // A transaction that stays open forever (simulates crashing
    // mid-transaction).
    env.sys.spawn(0, [a8 = env.a + 8](Thread &t) {
        return openForever(t, a8);
    });
    Tick crash = 50000;
    env.sys.run(crash);
    mem::BackingStore snap = env.sys.crashSnapshot(crash);
    EXPECT_EQ(snap.read64(env.a + 8), 0xbadu); // stolen
    auto report = persist::Recovery::run(snap, env.cfg.map);
    EXPECT_EQ(report.uncommittedTxns, 1u);
    EXPECT_EQ(snap.read64(env.a + 8), 0u); // rolled back
}

TEST(SystemFacade, OrderInvariantHoldsUnderLoad)
{
    Env env(PersistMode::Fwb, 4);
    for (CoreId c = 0; c < 4; ++c) {
        env.sys.spawn(c, [&, c](Thread &t) {
            return incrementLoop(t, env.a + 512 + c * 512, 200);
        });
    }
    Tick end = env.sys.run();
    RunStats s = env.sys.collectStats(end);
    EXPECT_EQ(s.orderViolations, 0u);
    EXPECT_EQ(s.overwriteHazards, 0u);
}

TEST(SystemFacade, DumpStatsMentionsComponents)
{
    Env env(PersistMode::Fwb);
    env.sys.spawn(0, [&](Thread &t) {
        return incrementLoop(t, env.a, 2);
    });
    env.sys.run();
    std::ostringstream os;
    env.sys.dumpStats(os);
    for (const char *key :
         {"mem.l1.0.hits", "mem.nvram.writes", "log.appends",
          "hwl.update_records", "fwb.scans", "txn.committed"})
        EXPECT_NE(os.str().find(key), std::string::npos) << key;
}

TEST(SystemFacade, ScaledAndPaperPresetsRun)
{
    for (auto make : {&SystemConfig::paper, &SystemConfig::scaled}) {
        SystemConfig cfg = make(2);
        System sys(cfg, PersistMode::Fwb);
        Addr a = sys.heap().alloc(64, 64);
        sys.spawn(0,
                  [&](Thread &t) { return incrementLoop(t, a, 3); });
        Tick end = sys.run();
        EXPECT_GT(end, 0u);
        EXPECT_EQ(sys.txns().committed.value(), 3u);
    }
}

// ------------------- reclaiming a slot's guarded line ---------------

namespace
{

/** A transactional store context of a transaction that is not active
 *  when its slots are reclaimed. */
mem::MemorySystem::StoreCtx
finishedTx()
{
    mem::MemorySystem::StoreCtx ctx;
    ctx.persistent = true;
    ctx.txSeq = 1000;
    return ctx;
}

/** Reserve commit records at @p now until the tail wraps to slot 0,
 *  then reclaim slot 0 with one more. */
void
reclaimSlotZero(persist::LogRegion &log, Tick now)
{
    do
        log.reserve(persist::LogRecord::commit(0, 1), now);
    while (log.tailSlot() != 0);
    log.reserve(persist::LogRecord::commit(0, 1), now);
}

sim::Co<void>
storeThenScanThenCommit(Thread &t, System &sys, Addr addr)
{
    co_await t.txBegin();
    co_await t.store64(addr, 3);
    // FWB's L2 pass writes back the copy the store's pull made, while
    // the store itself sits in core 0's L1.
    sys.mem().fwbScanAll(t.context().localTime, 0.0);
    co_await t.txCommit();
}

} // namespace

// Slot 0's store was carried by a completed clwb write-back; a newer
// write-back of the line is still queued at its bank when the slot is
// reclaimed. The reclaim must not wait for it.
TEST(ReclaimDurability, CompletedWritebackThatCarriedTheStoreFreesItsSlot)
{
    Env env(PersistMode::Hwl);
    mem::MemorySystem &ms = env.sys.mem();
    std::uint64_t v = 1;
    ms.store(0, env.a, 8, &v, 100, finishedTx()); // slot 0
    const Tick carried = ms.clwb(0, env.a, 200);
    v = 2;
    ms.store(0, env.a, 8, &v, 300);
    const Tick queued = ms.clwb(0, env.a, 400);
    ASSERT_LT(carried, queued - 1);

    persist::LogRegion &log = env.sys.logPartition(0);
    reclaimSlotZero(log, queued - 1);
    EXPECT_EQ(log.forcedWritebacks.value(), 0u);
    EXPECT_EQ(log.reclaimWaitCycles.value(), 0u);
    EXPECT_EQ(log.hazards.value(), 0u);
}

// FWB writes back the line's older L2 copy in the scan that only
// flags the L1 copy holding slot 0's store. That write-back completes
// after the store, yet does not carry it, so the reclaim must force
// the line back.
TEST(ReclaimDurability, FwbWritebackOfAnOlderL2CopyDoesNotCarryTheStore)
{
    Env env(PersistMode::Fwb);
    mem::MemorySystem &ms = env.sys.mem();
    std::uint64_t v = 1;
    ms.store(0, env.a, 8, &v, 100);
    ms.fwbScanAll(200, 0.0); // flags the L1 line
    ms.fwbScanAll(300, 0.0); // copies it to the L2, flags the L2 line
    v = 2;
    ms.store(0, env.a, 8, &v, 400, finishedTx()); // slot 0
    const mem::FwbScanResult scan = ms.fwbScanAll(500, 0.0);
    ASSERT_EQ(scan.linesFlagged, 1u);
    ASSERT_EQ(scan.linesWrittenBack, 1u);
    ASSERT_TRUE(ms.isLineDirtyAnywhere(env.a));

    persist::LogRegion &log = env.sys.logPartition(0);
    reclaimSlotZero(log, scan.lastWritebackDone);
    EXPECT_EQ(log.forcedWritebacks.value(), 1u);
    EXPECT_EQ(log.hazards.value(), 0u);
    EXPECT_FALSE(ms.isLineDirtyAnywhere(env.a));
}

// Software logging reserves slot 0 before the in-place store, whose
// fill pulls core 1's dirty copy into the L2. FWB then writes back
// that pulled copy while the store sits in core 0's L1; the commit's
// clwb write-back is still in flight at the reclaim. The pulled copy
// does not carry the store, so the reclaim must wait.
TEST(ReclaimDurability, PullBeforeASoftwareLoggedStoreDoesNotCarryIt)
{
    Env env(PersistMode::RedoClwb);
    mem::MemorySystem &ms = env.sys.mem();
    std::uint64_t v = 1;
    ms.store(1, env.a, 8, &v, 10);
    ms.fwbScanAll(20, 0.0); // flags core 1's L1 line
    ms.fwbScanAll(30, 0.0); // copies it to the L2, flags the L2 line
    v = 2;
    ms.store(1, env.a, 8, &v, 40); // dirty in core 1's L1 again
    env.sys.spawn(0, [&](Thread &t) {
        return storeThenScanThenCommit(t, env.sys, env.a);
    });
    env.sys.run();
    ASSERT_EQ(env.sys.txns().committed.value(), 1u);
    ASSERT_EQ(ms.stats().counterValue("cache_to_cache"), 1u);
    ASSERT_EQ(ms.l2Cache().writebacks.value(), 2u);

    persist::LogRegion &log = env.sys.logPartition(0);
    reclaimSlotZero(log, ms.monitor().lastWritebackOf(env.a) - 1);
    EXPECT_EQ(log.forcedWritebacks.value(), 1u);
    EXPECT_GT(log.reclaimWaitCycles.value(), 0u);
    EXPECT_EQ(log.hazards.value(), 0u);
}

// ------------------------------------------------------------------
// Commit sequences park at each fence: every fence in a commit or
// abort sequence ends a step of its op, and the last step releases
// the transaction.
// ------------------------------------------------------------------

TEST(CommitSteps, EachFenceEndsAStep)
{
    // One thread, ten update transactions of txBegin, load, store,
    // txCommit: the first three park once each, the commit once per
    // step. undo-clwb: clwbs + fence, record + fence, release;
    // redo-clwb: record + fence, clwbs + fence, release; hwl: record
    // + clwbs + fence, release; fwb has no fence.
    const std::pair<PersistMode, std::uint64_t> kSteps[] = {
        {PersistMode::UndoClwb, 3},
        {PersistMode::RedoClwb, 3},
        {PersistMode::Hwl, 2},
        {PersistMode::Fwb, 1},
    };
    for (const auto &[mode, steps] : kSteps) {
        SCOPED_TRACE(persistModeName(mode));
        Env env(mode, 1);
        env.sys.spawn(0, [&](Thread &t) {
            return incrementLoop(t, env.a, 10);
        });
        env.sys.run();
        EXPECT_EQ(env.sys.txns().committed.value(), 10u);
        EXPECT_EQ(env.sys.scheduler().ops.value(), 10 * (3 + steps));
    }
}

namespace
{

/** One update of @p addr's line in a transaction. */
sim::Co<void>
lockedUpdate(Thread &t, Addr addr)
{
    co_await t.txBegin();
    bool ok = co_await t.txStore64(addr, 1);
    EXPECT_TRUE(ok);
    co_await t.txCommit();
}

/** Idle, then probe @p addr's line for its lock at tick @p at (the
 *  clock starts at 0); *granted is the clock once it is granted. */
sim::Co<void>
lateLock(Thread &t, Addr addr, Tick at, Tick *granted)
{
    // txBegin retires 8 instructions, 2 cycles at 4 per cycle.
    co_await t.compute(4 * (at - 2));
    co_await t.txBegin();
    EXPECT_EQ(t.context().localTime, at);
    bool ok = co_await t.txLock64(addr);
    EXPECT_TRUE(ok);
    *granted = t.context().localTime;
    co_await t.txCommit();
}

} // namespace

TEST(CommitSteps, LocksAreHeldUntilTheLastStep)
{
    // Under undo-clwb/2PL thread 0's commit ends its first step at
    // the clwb fence and its second at the commit record's fence; the
    // third releases the line's lock at the commit's end. Thread 1
    // probes the line one cycle before that end, after the clwb
    // fence, and must wait for the release.
    struct Outcome
    {
        Tick end = 0;     ///< thread 0's CommitDurable tick
        Tick granted = 0; ///< thread 1's clock once granted
        std::uint64_t lockWaits = 0;
    };
    // Thread 1 (present when @p at is nonzero) moves none of thread
    // 0's ticks: it touches no memory before its lock is granted.
    auto run = [](Tick at) {
        SystemConfig cfg = SystemConfig::scaled(2);
        cfg.persist.ccMode = CcMode::TwoPhase;
        System sys(cfg, PersistMode::UndoClwb);
        Addr a = sys.heap().alloc(64, 64);
        Outcome o;
        sys.setProbe([&](sim::ProbeEvent e, Tick t, std::uint64_t) {
            if (e == sim::ProbeEvent::CommitDurable && o.end == 0)
                o.end = t;
        });
        sys.spawn(0, [&](Thread &t) { return lockedUpdate(t, a); });
        if (at != 0)
            sys.spawn(1, [&](Thread &t) {
                return lateLock(t, a, at, &o.granted);
            });
        sys.run();
        o.lockWaits = sys.txns().lockWaits.value();
        return o;
    };
    const Tick end = run(0).end;
    ASSERT_GT(end, 100u);
    Outcome o = run(end - 1);
    EXPECT_EQ(o.end, end);
    EXPECT_GE(o.lockWaits, 1u);
    EXPECT_GT(o.granted, end);
}

TEST(BumpAllocator, AlignsAndAdvances)
{
    BumpAllocator heap(0x1000, 0x1000);
    Addr a = heap.alloc(10, 8);
    Addr b = heap.alloc(1, 64);
    EXPECT_EQ(a % 8, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_GT(b, a);
    EXPECT_GE(heap.allocated(), 11u);
    heap.reset();
    EXPECT_EQ(heap.allocated(), 0u);
}
