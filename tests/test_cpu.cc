/**
 * @file
 * Unit tests for the CPU layer: thread-context timing helpers (store
 * buffer, fences, retire width), the earliest-thread-first scheduler
 * (ordering, determinism, crash stop), event-queue interleaving, and
 * where two OLTP cells stand when System::run stops at a tick.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/system.hh"
#include "cpu/scheduler.hh"
#include "cpu/thread_context.hh"
#include "oltp/tpcc.hh"
#include "oltp/ycsb.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

using namespace snf;
using namespace snf::cpu;

TEST(ThreadContext, RetireComputeUsesIssueWidth)
{
    ThreadContext tc(0, /*width=*/4, /*sb=*/8);
    tc.retireCompute(8);
    EXPECT_EQ(tc.localTime, 2u);
    tc.retireCompute(1);
    EXPECT_EQ(tc.localTime, 3u); // rounds up
}

TEST(ThreadContext, StoreBufferAbsorbsUntilFull)
{
    ThreadContext tc(0, 4, /*sb=*/2);
    tc.localTime = 10;
    tc.noteStoreDrain(100);
    tc.noteStoreDrain(200);
    EXPECT_EQ(tc.localTime, 10u); // buffered, no stall
    tc.noteStoreDrain(300);       // full: stall to oldest drain
    EXPECT_EQ(tc.localTime, 100u);
}

TEST(ThreadContext, DrainedEntriesRetireSilently)
{
    ThreadContext tc(0, 4, 2);
    tc.noteStoreDrain(5);
    tc.noteStoreDrain(6);
    tc.localTime = 50; // both entries have drained by now
    tc.noteStoreDrain(60);
    EXPECT_EQ(tc.localTime, 50u); // no stall
}

TEST(ThreadContext, FenceWaitsForStoresAndPersists)
{
    ThreadContext tc(0, 4, 8);
    tc.localTime = 10;
    tc.noteStoreDrain(500);
    tc.notePendingPersist(900);
    tc.drainForFence();
    EXPECT_EQ(tc.localTime, 900u);
    // A second fence has nothing left to wait for.
    tc.drainForFence();
    EXPECT_EQ(tc.localTime, 900u);
}

namespace
{

struct CountOp : PendingOp
{
    std::vector<int> *order;
    int id;
    ThreadContext *tc;
    Tick advance;

    void
    execute() override
    {
        order->push_back(id);
        tc->localTime += advance;
    }
};

// A coroutine that parks `ops` operations, one at a time.
sim::Co<void>
opLoop(ThreadContext *tc, CountOp *op, int times)
{
    struct Await
    {
        ThreadContext *tc;
        CountOp *op;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h) noexcept
        {
            tc->pending = op;
            tc->resumePoint = h;
        }

        void await_resume() const noexcept {}
    };
    for (int i = 0; i < times; ++i)
        co_await Await{tc, op};
}

} // namespace

TEST(Scheduler, ExecutesEarliestThreadFirst)
{
    sim::EventQueue evq;
    Scheduler sched(evq);
    ThreadContext a(0, 4, 8), b(1, 4, 8);
    std::vector<int> order;

    CountOp opA{};
    opA.order = &order;
    opA.id = 0;
    opA.tc = &a;
    opA.advance = 100; // thread a is slow
    CountOp opB{};
    opB.order = &order;
    opB.id = 1;
    opB.tc = &b;
    opB.advance = 30; // thread b is fast

    sim::Co<void> ca = opLoop(&a, &opA, 2);
    sim::Co<void> cb = opLoop(&b, &opB, 6);
    a.rootHandle = ca.raw();
    b.rootHandle = cb.raw();
    sched.addThread(&a);
    sched.addThread(&b);
    Tick end = sched.run();

    EXPECT_TRUE(sched.allFinished());
    EXPECT_EQ(end, 200u);
    // b at times 0,30,60,90 runs before a's second op at 100, etc.
    std::vector<int> expected{0, 1, 1, 1, 1, 0, 1, 1};
    EXPECT_EQ(order, expected);
}

TEST(Scheduler, StopsAtCrashTick)
{
    sim::EventQueue evq;
    Scheduler sched(evq);
    ThreadContext a(0, 4, 8);
    std::vector<int> order;
    CountOp op{};
    op.order = &order;
    op.id = 0;
    op.tc = &a;
    op.advance = 50;
    sim::Co<void> ca = opLoop(&a, &op, 100);
    a.rootHandle = ca.raw();
    sched.addThread(&a);
    sched.run(/*stopAt=*/175);
    EXPECT_FALSE(sched.allFinished());
    // Ops at local times 0,50,100,150 executed; 200 >= 175 stops.
    EXPECT_EQ(order.size(), 4u);
}

TEST(Scheduler, DrainsEventsBeforeThreadSteps)
{
    sim::EventQueue evq;
    Scheduler sched(evq);
    ThreadContext a(0, 4, 8);
    std::vector<int> order;
    CountOp op{};
    op.order = &order;
    op.id = 7;
    op.tc = &a;
    op.advance = 100;
    std::vector<Tick> event_ticks;
    evq.schedule(150, [&](Tick when) { event_ticks.push_back(when); });
    sim::Co<void> ca = opLoop(&a, &op, 3);
    a.rootHandle = ca.raw();
    sched.addThread(&a);
    sched.run();
    // The event fired between the thread's 100-tick and 200-tick ops.
    ASSERT_EQ(event_ticks.size(), 1u);
    EXPECT_EQ(event_ticks[0], 150u);
}

TEST(Scheduler, DeterministicAcrossRuns)
{
    auto run_once = [] {
        SystemConfig cfg = SystemConfig::scaled(4);
        System sys(cfg, PersistMode::Fwb);
        Addr a = sys.heap().alloc(4096, 64);
        for (CoreId c = 0; c < 4; ++c) {
            sys.spawn(c, [&, c](Thread &t) -> sim::Co<void> {
                return [](Thread &t, Addr base,
                          CoreId core) -> sim::Co<void> {
                    sim::Rng rng(core + 1);
                    for (int i = 0; i < 100; ++i) {
                        co_await t.txBegin();
                        Addr slot =
                            base + (rng.below(64) + core * 64) * 8;
                        std::uint64_t v =
                            co_await t.load64(slot);
                        co_await t.store64(slot, v + 1);
                        co_await t.txCommit();
                    }
                }(t, a, c);
            });
        }
        return sys.run();
    };
    Tick t1 = run_once();
    Tick t2 = run_once();
    EXPECT_EQ(t1, t2);
}

TEST(InstructionCounts, AccumulateAcrossClasses)
{
    InstructionCounts a, b;
    a.total = 10;
    a.loads = 3;
    b.total = 5;
    b.stores = 2;
    a += b;
    EXPECT_EQ(a.total, 15u);
    EXPECT_EQ(a.loads, 3u);
    EXPECT_EQ(a.stores, 2u);
}

// ------------------------------------------------------------------
// The stop tick: System::run(stopAt) leaves every op a thread reaches
// at or past stopAt unexecuted, and runs every op below it, together
// with every event due by the last of them.
// ------------------------------------------------------------------

namespace
{

/** A load, 400 compute instructions, a load; *afterLoad is the clock
 *  once the first load has run. */
sim::Co<void>
loadComputeLoad(Thread &t, Addr a, Tick *afterLoad)
{
    co_await t.load64(a);
    *afterLoad = t.context().localTime;
    co_await t.compute(400);
    co_await t.load64(a);
}

/** The clock at which loadComputeLoad reaches its compute. */
Tick
computeTick()
{
    System sys(SystemConfig::scaled(1), PersistMode::NonPers);
    Addr a = sys.heap().alloc(64, 64);
    Tick afterLoad = 0;
    sys.spawn(0, [&](Thread &t) {
        return loadComputeLoad(t, a, &afterLoad);
    });
    sys.run();
    return afterLoad;
}

} // namespace

TEST(StopTick, ComputeReachedAtTheStopTickDoesNotRun)
{
    const Tick reached = computeTick();
    ASSERT_GT(reached, 0u);
    for (Tick stopAt : {Tick(1), reached}) {
        SCOPED_TRACE(stopAt);
        System sys(SystemConfig::scaled(1), PersistMode::NonPers);
        Addr a = sys.heap().alloc(64, 64);
        Tick afterLoad = 0;
        sys.spawn(0, [&](Thread &t) {
            return loadComputeLoad(t, a, &afterLoad);
        });
        sys.run(stopAt);
        const cpu::ThreadContext &ctx = sys.thread(0).context();
        EXPECT_EQ(afterLoad, reached);
        EXPECT_EQ(ctx.localTime, reached);
        EXPECT_EQ(ctx.instr.loads, 1u);
        EXPECT_EQ(ctx.instr.compute, 0u);

        // Running on executes the compute and the second load.
        sys.run();
        EXPECT_EQ(ctx.instr.compute, 400u);
        EXPECT_EQ(ctx.instr.loads, 2u);
    }
}

TEST(StopTick, ComputeBelowTheStopTickRunsAfterTheEventsDueByIt)
{
    // The compute is reached at `reached`, below the stop tick, and
    // the second load at reached + 100, past it. An event due between
    // the two loads' ticks fires before the stop, as it would if the
    // scheduler executed the compute itself.
    const Tick reached = computeTick();
    System sys(SystemConfig::scaled(1), PersistMode::NonPers);
    Addr a = sys.heap().alloc(64, 64);
    Tick afterLoad = 0;
    Tick fired = kTickNever;
    sys.events().schedule(reached, [&](Tick when) { fired = when; });
    sys.spawn(0, [&](Thread &t) {
        return loadComputeLoad(t, a, &afterLoad);
    });
    sys.run(reached + 1);
    const cpu::ThreadContext &ctx = sys.thread(0).context();
    EXPECT_EQ(ctx.instr.compute, 400u);
    EXPECT_EQ(ctx.localTime, reached + 100);
    EXPECT_EQ(ctx.instr.loads, 1u);
    EXPECT_EQ(fired, reached);
}

namespace
{

/**
 * Run an OLTP cell of @p Engine to @p stopAt and describe where it
 * stopped: committed and aborted transactions, executed events, and
 * each thread's clock, instructions, compute instructions and
 * transaction-overhead instructions (where CC probes are charged).
 */
template <class Engine>
std::string
stopState(PersistMode mode, CcMode cc,
          const workloads::WorkloadParams &params,
          Tick stopAt)
{
    SystemConfig cfg = SystemConfig::scaled(params.threads);
    cfg.persist.ccMode = cc;
    System sys(cfg, mode);
    Engine eng;
    eng.setup(sys, params);
    for (CoreId c = 0; c < params.threads; ++c)
        sys.spawn(c, [&](Thread &t) {
            return eng.thread(sys, t, params);
        });
    sys.run(stopAt);
    auto ull = [](std::uint64_t v) {
        return static_cast<unsigned long long>(v);
    };
    std::string s = strfmt("commit=%llu abort=%llu events=%llu",
                           ull(sys.txns().committed.value()),
                           ull(sys.txns().aborted.value()),
                           ull(sys.events().statExecuted()));
    for (CoreId c = 0; c < params.threads; ++c) {
        const cpu::ThreadContext &ctx = sys.thread(c).context();
        s += strfmt(" | clock=%llu instr=%llu compute=%llu tx=%llu",
                    ull(ctx.localTime), ull(ctx.instr.total),
                    ull(ctx.instr.compute), ull(ctx.instr.txOverhead));
    }
    return s;
}

} // namespace

TEST(StopTickGolden, OltpCellsStopWhereTheyStopped)
{
    // Captured while every op parked for the scheduler: where a
    // TPC-C fwb/2PL cell and a YCSB undo-clwb/TL2 cell stand when
    // System::run stops at four ticks each. An op that runs in place
    // must leave every value here as it was. The YCSB rows were
    // re-pinned when software-logged read-only transactions stopped
    // writing a commit record, and again when commit sequences began
    // to park at each fence.
    workloads::WorkloadParams tpcc;
    tpcc.threads = 4;
    tpcc.txPerThread = 130;
    tpcc.warehouses = 4;
    tpcc.footprint = 256;
    tpcc.seed = 3;
    const std::pair<Tick, const char *> kTpcc[] = {
        {43211,
         "commit=57 abort=0 events=2"
         " | clock=43353 instr=6936 compute=4685 tx=1512"
         " | clock=43215 instr=7295 compute=4940 tx=1598"
         " | clock=43288 instr=6784 compute=4530 tx=1536"
         " | clock=43272 instr=7466 compute=5010 tx=1690"},
        {130007,
         "commit=197 abort=0 events=7"
         " | clock=130328 instr=22004 compute=14700 tx=4932"
         " | clock=130054 instr=22472 compute=15050 tx=5000"
         " | clock=130062 instr=23514 compute=15460 tx=5540"
         " | clock=130320 instr=23505 compute=15585 tx=5464"},
        {216503,
         "commit=339 abort=0 events=12"
         " | clock=216586 instr=37789 compute=25100 tx=8594"
         " | clock=216503 instr=39192 compute=26045 tx=8922"
         " | clock=216507 instr=40619 compute=26715 tx=9594"
         " | clock=216726 instr=38477 compute=25565 tx=8804"},
        {303331,
         "commit=481 abort=1 events=16"
         " | clock=303427 instr=55153 compute=36600 tx=12548"
         " | clock=303589 instr=57379 compute=37970 tx=13194"
         " | clock=267734 instr=51167 compute=33715 tx=12024"
         " | clock=303435 instr=57297 compute=37870 tx=13248"},
    };
    for (const auto &[stopAt, want] : kTpcc)
        EXPECT_EQ(stopState<oltp::TpccEngine>(PersistMode::Fwb,
                                              CcMode::TwoPhase, tpcc,
                                              stopAt),
                  want)
            << "tpcc @" << stopAt;

    workloads::WorkloadParams ycsb;
    ycsb.threads = 4;
    ycsb.txPerThread = 150;
    ycsb.footprint = 1024;
    ycsb.zipfTheta = 0.99;
    ycsb.seed = 3;
    const std::pair<Tick, const char *> kYcsb[] = {
        {7841,
         "commit=68 abort=2 events=0"
         " | clock=7844 instr=3216 compute=1738 tx=604"
         " | clock=7841 instr=6861 compute=5794 tx=548"
         " | clock=8131 instr=5450 compute=4380 tx=484"
         " | clock=8075 instr=2858 compute=1514 tx=534"},
        {23519,
         "commit=211 abort=2 events=0"
         " | clock=23715 instr=9423 compute=5020 tx=1798"
         " | clock=23526 instr=11741 compute=8358 tx=1480"
         " | clock=23678 instr=17214 compute=14044 tx=1418"
         " | clock=23654 instr=9812 compute=5681 tx=1690"},
        {39203,
         "commit=380 abort=4 events=0"
         " | clock=39206 instr=17733 compute=10072 tx=3096"
         " | clock=39214 instr=25874 compute=19683 tx=2652"
         " | clock=39207 instr=33526 compute=27600 tx=2672"
         " | clock=39238 instr=19083 compute=11927 tx=3036"},
        {54907,
         "commit=551 abort=6 events=0"
         " | clock=55021 instr=26090 compute=15192 tx=4236"
         " | clock=54923 instr=32350 compute=23105 tx=3742"
         " | clock=55119 instr=44266 compute=34838 tx=4190"
         " | clock=51305 instr=27942 compute=17770 tx=4436"},
    };
    for (const auto &[stopAt, want] : kYcsb)
        EXPECT_EQ(stopState<oltp::YcsbEngine>(PersistMode::UndoClwb,
                                              CcMode::Tl2, ycsb,
                                              stopAt),
                  want)
            << "ycsb @" << stopAt;
}

namespace
{

/** An OLTP cell of @p Engine with the crash journal on. */
template <class Engine>
struct JournaledCell
{
    workloads::WorkloadParams params;
    Engine eng;
    std::unique_ptr<System> sys;

    JournaledCell(PersistMode mode, CcMode cc,
                  const workloads::WorkloadParams &p)
        : params(p)
    {
        SystemConfig cfg = SystemConfig::scaled(params.threads);
        cfg.persist.ccMode = cc;
        cfg.persist.crashJournal = true;
        sys = std::make_unique<System>(cfg, mode);
        eng.setup(*sys, params);
        for (CoreId c = 0; c < params.threads; ++c)
            sys->spawn(c, [this](Thread &t) {
                return eng.thread(*sys, t, params);
            });
    }

    // The threads' coroutines hold this object's address.
    JournaledCell(const JournaledCell &) = delete;
    JournaledCell &operator=(const JournaledCell &) = delete;
};

/** TPC-C fwb/2PL: 8 threads x 200 tx, 4 warehouses, 256 customers,
 *  seed 3. */
struct JournaledTpcc : JournaledCell<oltp::TpccEngine>
{
    static workloads::WorkloadParams
    cell()
    {
        workloads::WorkloadParams p;
        p.threads = 8;
        p.txPerThread = 200;
        p.warehouses = 4;
        p.footprint = 256;
        p.seed = 3;
        return p;
    }

    JournaledTpcc()
        : JournaledCell(PersistMode::Fwb, CcMode::TwoPhase, cell())
    {
    }
};

/** YCSB undo-clwb/TL2: 8 threads x 300 tx, 100 000 keys, Zipf 0.9,
 *  seed 3. */
struct JournaledYcsb : JournaledCell<oltp::YcsbEngine>
{
    static workloads::WorkloadParams
    cell()
    {
        workloads::WorkloadParams p;
        p.threads = 8;
        p.txPerThread = 300;
        p.footprint = 100000;
        p.zipfTheta = 0.9;
        p.seed = 3;
        return p;
    }

    JournaledYcsb()
        : JournaledCell(PersistMode::UndoClwb, CcMode::Tl2, cell())
    {
    }
};

/** The stopped run's NVRAM image at @p at equals the full run's. */
void
expectSameImage(System &full, System &stopped, Tick at)
{
    mem::BackingStore want = full.crashSnapshot(at);
    mem::BackingStore got = stopped.crashSnapshot(at);
    std::optional<Addr> diff =
        got.firstDifference(want, want.base(), want.size());
    EXPECT_FALSE(diff) << std::hex << "first difference at 0x"
                       << diff.value_or(0);
}

} // namespace

TEST(StopTick, StoppedRunHoldsTheFullRunsImage)
{
    // A run stopped at a tick must hold the NVRAM image a run to the
    // end journals by that tick. From 808 795 on, a thread's clock
    // jumps past the stop in one long reclaim wait while an FWB scan
    // falls due; a stopped run that did not fire it lacked its
    // write-backs (first difference: a log slot at 0x100010c00).
    // 95 152 is a control that always matched.
    JournaledTpcc full;
    ASSERT_EQ(full.sys->run(), 932494u);
    for (Tick at : {Tick{95152}, Tick{808795}, Tick{875402}}) {
        SCOPED_TRACE(at);
        JournaledTpcc stopped;
        stopped.sys->run(at);
        expectSameImage(*full.sys, *stopped.sys, at);
    }

    // An undo-clwb commit runs in three steps, parked at its clwb
    // fence and at its commit record's fence. Stop inside eight
    // update commits spread over the run, halfway between their
    // TxCommit and their CommitDurable: the committing thread is
    // parked between two steps, its transaction still active.
    JournaledYcsb ycsb;
    std::map<std::uint64_t, Tick> began;
    std::vector<std::pair<Tick, std::uint64_t>> inside;
    ycsb.sys->setProbe(
        [&](sim::ProbeEvent e, Tick t, std::uint64_t seq) {
            if (e == sim::ProbeEvent::TxCommit)
                began[seq] = t;
            else if (e == sim::ProbeEvent::CommitDurable)
                inside.push_back({began.at(seq) + (t - began.at(seq)) / 2,
                                  seq});
        });
    ycsb.sys->run();
    ASSERT_GT(inside.size(), 800u);
    const std::size_t stride = inside.size() / 8;
    for (std::size_t i = stride / 2; i < inside.size(); i += stride) {
        const auto [at, seq] = inside[i];
        SCOPED_TRACE(at);
        JournaledYcsb stopped;
        stopped.sys->run(at);
        EXPECT_TRUE(stopped.sys->txns().isActive(seq));
        expectSameImage(*ycsb.sys, *stopped.sys, at);
    }
}
