/**
 * @file
 * Crash-model component tests: what exactly survives a power failure.
 *  - LogBuffer: un-drained groups are dropped, and the torn-record
 *    test mode makes mid-drain slots observable (payload without a
 *    written header word), which recovery must reject.
 *  - MemorySystem: a crash invalidates dirty cache lines and drops
 *    the write-combining buffer.
 *  - Scheduler: run(stopAt) executes nothing at or past the stop
 *    tick, and a stopped run resumed to completion is
 *    indistinguishable from an uninterrupted one.
 *  - Journaling: recording a run for crash tooling does not change
 *    the run it records.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "crashlab/trace.hh"
#include "persist/recovery.hh"
#include "workloads/driver.hh"

using namespace snf;
using namespace snf::workloads;

namespace
{

struct TracedRun
{
    TracedRun(PersistMode mode, std::uint32_t threads,
              std::uint64_t tx)
        : cfg(SystemConfig::scaled())
    {
        cfg.persist.crashJournal = true;
        sys = std::make_unique<System>(cfg, mode);
        wl = makeWorkload("sps");
        params.threads = threads;
        params.txPerThread = tx;
        params.seed = 5;
        wl->setup(*sys, params);
        sys->setProbe(trace.collector());
        for (CoreId c = 0; c < threads; ++c) {
            sys->spawn(c, [this](Thread &t) -> sim::Co<void> {
                return wl->thread(*sys, t, params);
            });
        }
    }

    SystemConfig cfg;
    WorkloadParams params;
    std::unique_ptr<System> sys;
    std::unique_ptr<Workload> wl;
    crashlab::CrashTrace trace;
};

} // namespace

// With the torn-record test mode (on whenever crashJournal is), a
// log-group drain lands payload bytes strictly before the slot's
// header word. Crashing between the two must hide the record (no
// written marker => rejected by the window scan), and the drain's
// completion tick must make it visible: the valid-record count
// strictly grows across at least one drain boundary, and recovery
// succeeds on both sides of every one.
TEST(CrashModel, LogDrainTornRecordObservability)
{
    TracedRun run(PersistMode::Fwb, 1, 20);
    Tick end = run.sys->run();
    run.trace.finalize();

    std::vector<Tick> drains;
    std::uint64_t drainedRecords = 0;
    for (const auto &e : run.trace.events()) {
        if (e.kind == sim::ProbeEvent::LogDrain && e.tick <= end) {
            drains.push_back(e.tick);
            drainedRecords += e.arg;
        }
    }
    ASSERT_GT(drains.size(), 2u);

    bool sawGrowth = false;
    std::uint64_t lastValid = 0;
    for (Tick t : drains) {
        mem::BackingStore before = run.sys->crashSnapshot(t - 1);
        mem::BackingStore after = run.sys->crashSnapshot(t);
        auto rb = persist::Recovery::run(before, run.sys->config().map);
        auto ra = persist::Recovery::run(after, run.sys->config().map);
        EXPECT_TRUE(rb.headerValid);
        EXPECT_TRUE(ra.headerValid);
        // A record becomes valid only once its header word lands.
        EXPECT_LE(rb.validRecords, ra.validRecords);
        if (ra.validRecords > rb.validRecords)
            sawGrowth = true;
        lastValid = ra.validRecords;
    }
    EXPECT_TRUE(sawGrowth);
    // No wraps in a 20-transaction run: everything ever drained is
    // still in the window at the last drain instant.
    EXPECT_EQ(lastValid, drainedRecords);
}

// Un-drained log-buffer contents die with the power: a snapshot
// never contains more records than the drains that completed by
// then, and LogBuffer::dropAll empties the buffer without touching
// NVRAM.
TEST(CrashModel, LogBufferDropAllLosesBufferedRecords)
{
    TracedRun run(PersistMode::Fwb, 1, 20);
    Tick end = run.sys->run();
    run.trace.finalize();

    // Crash halfway: the snapshot must hold exactly the records of
    // completed drains, nothing from the (volatile) buffer.
    Tick mid = end / 2;
    std::uint64_t drainedByMid = 0;
    for (const auto &e : run.trace.events())
        if (e.kind == sim::ProbeEvent::LogDrain && e.tick <= mid)
            drainedByMid += e.arg;
    mem::BackingStore snap = run.sys->crashSnapshot(mid);
    auto rep = persist::Recovery::run(snap, run.sys->config().map);
    EXPECT_EQ(rep.validRecords, drainedByMid);

    persist::LogBuffer *buf = run.sys->logBuffer();
    ASSERT_NE(buf, nullptr);
    std::size_t journalBefore =
        run.sys->mem().nvram().store().journalSize();
    buf->dropAll();
    EXPECT_EQ(buf->occupancy(end), 0u);
    EXPECT_EQ(run.sys->mem().nvram().store().journalSize(),
              journalBefore);
}

// A crash invalidates every cache: dirty lines are lost and
// subsequent loads see the NVRAM image, not the cached value.
TEST(CrashModel, InvalidateAllCachesDropsDirtyLines)
{
    SystemConfig cfg = SystemConfig::scaled();
    System sys(cfg, PersistMode::NonPers);
    Addr a = sys.heap().alloc(8);
    sys.heap().prewrite64(a, 0xAAu);

    std::uint64_t v = 0xBBu;
    sys.mem().store(0, a, 8, &v, 0);
    std::uint64_t cached = 0;
    Tick t = sys.mem().load(0, a, 8, &cached, 100).done;
    EXPECT_EQ(cached, 0xBBu);
    EXPECT_EQ(sys.mem().nvram().store().read64(a), 0xAAu);

    sys.mem().invalidateAllCaches();

    std::uint64_t seen = 0;
    sys.mem().load(0, a, 8, &seen, t + 100);
    EXPECT_EQ(seen, 0xAAu);
}

// The write-combining buffer is volatile too: pending uncacheable
// stores are dropped, and a later fence has nothing to drain.
TEST(CrashModel, InvalidateAllCachesDropsWcb)
{
    SystemConfig cfg = SystemConfig::scaled();
    System sys(cfg, PersistMode::UnsafeRedo);
    Addr a = sys.heap().alloc(64);
    sys.heap().prewrite64(a, 0u);

    std::uint64_t v = 0x1234u;
    sys.mem().wcb().append(a, 8, &v, 0);
    EXPECT_EQ(sys.mem().wcb().occupancy(), 1u);

    sys.mem().invalidateAllCaches();
    EXPECT_EQ(sys.mem().wcb().occupancy(), 0u);
    EXPECT_EQ(sys.mem().nvram().store().read64(a), 0u);
    sys.mem().drainWcb(1000);
    EXPECT_EQ(sys.mem().nvram().store().read64(a), 0u);
}

// run(stopAt) semantics: nothing executes at or past the stop tick —
// run(0) runs zero instructions — and resuming a stopped run yields
// exactly the uninterrupted run's end tick and final NVRAM image.
TEST(CrashModel, SchedulerStopAtTickAndResume)
{
    WorkloadParams params;
    params.threads = 2;
    params.txPerThread = 15;
    params.seed = 9;

    auto build = [&](System &sys, Workload &wl) {
        wl.setup(sys, params);
        for (CoreId c = 0; c < params.threads; ++c) {
            sys.spawn(c, [&](Thread &t) -> sim::Co<void> {
                return wl.thread(sys, t, params);
            });
        }
    };

    SystemConfig cfg = SystemConfig::scaled();

    // Uninterrupted reference.
    System ref(cfg, PersistMode::Fwb);
    auto wlRef = makeWorkload("sps");
    build(ref, *wlRef);
    Tick refEnd = ref.run();
    ref.flushAll(refEnd);

    // Stopped at tick 0 (nothing may run), then resumed.
    System stopped(cfg, PersistMode::Fwb);
    auto wlStop = makeWorkload("sps");
    build(stopped, *wlStop);
    Tick at0 = stopped.run(0);
    EXPECT_EQ(at0, 0u);
    RunStats none = stopped.collectStats(0);
    EXPECT_EQ(none.instr.total, 0u);
    EXPECT_EQ(none.committedTx, 0u);

    // Stop again mid-run, then run to completion.
    stopped.run(refEnd / 2);
    Tick resumedEnd = stopped.run();
    EXPECT_EQ(resumedEnd, refEnd);
    stopped.flushAll(resumedEnd);

    auto diff = stopped.mem().nvram().store().firstDifference(
        ref.mem().nvram().store(), cfg.map.nvramBase,
        cfg.map.nvramSize);
    EXPECT_FALSE(diff.has_value())
        << "resumed image differs at 0x" << std::hex << *diff;
}

namespace
{

/** Run @p spec with and without the crash journal; both runs must
 *  end at the same tick with the same statistics. */
void
expectJournalingChangesNothing(RunSpec spec)
{
    spec.sys.persist.crashJournal = false;
    std::ostringstream plainDump;
    const RunOutcome plain = runWorkload(spec, &plainDump);
    spec.sys.persist.crashJournal = true;
    std::ostringstream journaledDump;
    const RunOutcome journaled = runWorkload(spec, &journaledDump);

    EXPECT_TRUE(plain.verified) << plain.verifyMessage;
    EXPECT_TRUE(journaled.verified) << journaled.verifyMessage;
    EXPECT_GT(journaled.stats.journalEntries, 0u);
    EXPECT_EQ(journaled.endTick, plain.endTick);
    EXPECT_EQ(journaledDump.str(), plainDump.str());
    const RunStats &a = journaled.stats;
    const RunStats &b = plain.stats;
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committedTx, b.committedTx);
    EXPECT_EQ(a.abortedTx, b.abortedTx);
    EXPECT_EQ(a.instr.total, b.instr.total);
    EXPECT_EQ(a.nvramWrites, b.nvramWrites);
    EXPECT_EQ(a.nvramWriteBytes, b.nvramWriteBytes);
    EXPECT_EQ(a.logRecords, b.logRecords);
    EXPECT_EQ(a.logWraps, b.logWraps);
    EXPECT_EQ(a.logBufferStalls, b.logBufferStalls);
    EXPECT_EQ(a.forcedWritebacks, b.forcedWritebacks);
    EXPECT_EQ(a.reclaimWaitCycles, b.reclaimWaitCycles);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_DOUBLE_EQ(a.energy.memoryDynamicPj(),
                     b.energy.memoryDynamicPj());
}

} // namespace

// The crash journal lands each drained log record as payload, then
// header, inside the one drain access an unjournaled run makes, so a
// journaled run (every crash sweep's reference run) has the timing
// of the run it stands for.
TEST(CrashModel, JournalingLeavesSpsRunUnchanged)
{
    RunSpec spec;
    spec.workload = "sps";
    spec.mode = PersistMode::Fwb;
    spec.params.threads = 2;
    spec.params.txPerThread = 50;
    spec.sys = SystemConfig::scaled(2);
    expectJournalingChangesNothing(spec);
}

TEST(CrashModel, JournalingLeavesWrappingTpccRunUnchanged)
{
    RunSpec spec;
    spec.workload = "oltp-tpcc";
    spec.mode = PersistMode::Fwb;
    spec.params.threads = 4;
    spec.params.txPerThread = 130;
    spec.params.warehouses = 4;
    spec.params.footprint = 256;
    spec.sys = SystemConfig::scaled(4);
    spec.sys.persist.ccMode = CcMode::TwoPhase;
    spec.sys.map.logSize = 64 * 1024;
    RunSpec probe = spec;
    EXPECT_GT(runWorkload(probe).stats.logWraps, 0u);
    expectJournalingChangesNothing(spec);
}
