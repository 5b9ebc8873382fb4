/**
 * @file
 * google-benchmark harness for the snapshot engine behind the crash
 * sweeps: snapshotAt at scattered ticks over a journaled store,
 * repeated snapshotAt vs. the monotone Cursor along an ascending tick
 * walk, a small end-to-end runCrashSweep cell, and, on one TPC-C
 * crash image, one recovery pass, the consistency oracle every
 * oltp-tpcc crash point ends with and the whole per-point check
 * around them. CI runs this with
 * --benchmark_min_time=0.05s as the bench-smoke job; locally, plain
 * `sweep_perf` gives stable numbers.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "crashlab/sweep.hh"
#include "mem/backing_store.hh"
#include "oltp/tpcc.hh"
#include "sim/rng.hh"

using namespace snf;

namespace
{

constexpr Addr kBase = 0x100000;
constexpr std::uint64_t kSize = 8 << 20;
constexpr std::uint64_t kJournalEntries = 50000;

/**
 * A journaled store with a synthetic but realistically shaped write
 * stream: mostly small (<= 32 B) writes over a working set far
 * smaller than the range, completion ticks mildly out of issue order.
 * Built once and shared across iterations (snapshotAt is const).
 */
const mem::BackingStore &
journaledStore()
{
    static const mem::BackingStore store = [] {
        mem::BackingStore bs(kBase, kSize);
        bs.enableJournal();
        sim::Rng rng(1234);
        Tick now = 0;
        for (std::uint64_t i = 0; i < kJournalEntries; ++i) {
            now += rng.below(5);
            std::uint8_t buf[64];
            std::uint64_t len = rng.chance(0.9) ? 8 + 8 * rng.below(4)
                                                : 33 + rng.below(32);
            for (std::uint64_t b = 0; b < len; ++b)
                buf[b] = static_cast<std::uint8_t>(rng.next());
            Addr a = kBase + rng.below((1 << 20) - sizeof(buf));
            bs.write(a, len, buf, now + rng.below(3));
        }
        bs.buildSnapshotIndex();
        return bs;
    }();
    return store;
}

/** Upper bound on the synthetic stream's completion ticks (they
 *  advance by < 5 per entry plus a completion jitter of < 3). */
constexpr Tick kLastTick = kJournalEntries * 5 + 3;

/** snapshotAt at scattered ticks. */
void
BM_SnapshotAt(benchmark::State &state)
{
    const mem::BackingStore &bs = journaledStore();
    sim::Rng rng(7);
    for (auto _ : state) {
        mem::BackingStore snap = bs.snapshotAt(rng.below(kLastTick + 1));
        benchmark::DoNotOptimize(snap.read64(kBase));
    }
}
BENCHMARK(BM_SnapshotAt);

/**
 * An ascending 64-point walk — the access pattern of a crash sweep —
 * via independent snapshotAt calls.
 */
void
BM_AscendingWalk_SnapshotAt(benchmark::State &state)
{
    const mem::BackingStore &bs = journaledStore();
    for (auto _ : state) {
        std::uint64_t acc = 0;
        for (Tick t = 0; t <= kLastTick; t += kLastTick / 64)
            acc ^= bs.snapshotAt(t).read64(kBase);
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_AscendingWalk_SnapshotAt);

/** The same walk through the monotone Cursor (one replay total). */
void
BM_AscendingWalk_Cursor(benchmark::State &state)
{
    const mem::BackingStore &bs = journaledStore();
    for (auto _ : state) {
        mem::BackingStore::Cursor cursor(bs);
        std::uint64_t acc = 0;
        for (Tick t = 0; t <= kLastTick; t += kLastTick / 64)
            acc ^= cursor.imageAt(t).read64(kBase);
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_AscendingWalk_Cursor);

/**
 * End-to-end crash sweep of a small sps/fwb cell. Dominated by the
 * recovery + checker passes, so this is the number that tracks the
 * user-visible snfcrash speed.
 */
void
BM_CrashSweepEndToEnd(benchmark::State &state)
{
    for (auto _ : state) {
        crashlab::SweepConfig cfg;
        cfg.run.workload = "sps";
        cfg.run.mode = PersistMode::Fwb;
        cfg.run.params.threads = 2;
        cfg.run.params.txPerThread = 30;
        cfg.run.params.seed = 1;
        cfg.run.sys = SystemConfig::scaled(2);
        cfg.jobs = 1;
        cfg.maxPoints = 100;
        crashlab::SweepResult res = crashlab::runCrashSweep(cfg);
        benchmark::DoNotOptimize(res.pointsTested);
        state.counters["points"] =
            static_cast<double>(res.pointsTested);
        state.counters["replayed"] =
            static_cast<double>(res.perf.entriesReplayed);
    }
}
BENCHMARK(BM_CrashSweepEndToEnd)->Unit(benchmark::kMillisecond);

/**
 * The crash image of a TPC-C cell (fwb/2PL, 4 threads, 4 warehouses,
 * 256 customers per district, 130 tx per thread, crashed at tick
 * 1 000 000 of ~2 019 000: 10 240 customer and 33 792 stock rows, the
 * tables a crash-tpcc point's oracle walks), with the reference
 * trace's facts at the crash, as a sweep derives them, and the cell
 * whose engine's oracle checks it. Built once, outside every timed
 * loop.
 */
struct TpccCrash
{
    std::unique_ptr<workloads::LiveCell> live;
    mem::BackingStore image;
    crashlab::CrashFacts facts;

    const AddressMap &map() const { return live->system().config().map; }
};

const TpccCrash &
tpccCrash()
{
    static const TpccCrash cell = [] {
        workloads::RunSpec spec;
        spec.workload = "oltp-tpcc";
        spec.mode = PersistMode::Fwb;
        spec.params.threads = 4;
        spec.params.txPerThread = 130;
        spec.params.footprint = 256;
        spec.params.warehouses = 4;
        spec.params.seed = 1;
        spec.sys = SystemConfig::scaled(spec.params.threads);
        spec.sys.persist.ccMode = CcMode::TwoPhase;
        spec.sys.persist.crashJournal = true;
        spec.crashAt = 1000000;
        auto live = std::make_unique<workloads::LiveCell>(spec);
        System &sys = live->system();
        crashlab::CrashTrace trace;
        sys.setProbe(trace.collector());
        live->run();
        sys.setProbe({});
        trace.finalize();
        const Tick at = *spec.crashAt;
        crashlab::CrashFacts facts = crashlab::crashFactsAt(
            trace, at, spec.params.threads, sys.collectStats(at).logWraps,
            PersistMode::Fwb);
        mem::BackingStore image = sys.crashSnapshot(at);
        return TpccCrash{std::move(live), std::move(image), facts};
    }();
    return cell;
}

/** checkTpccConsistency over the recovered TpccCrash image. */
void
BM_TpccOracle(benchmark::State &state)
{
    static const mem::BackingStore recovered = [] {
        mem::BackingStore image = tpccCrash().image;
        persist::Recovery::run(image, tpccCrash().map());
        return image;
    }();
    const oltp::TpccLayout &layout =
        dynamic_cast<const oltp::TpccEngine &>(tpccCrash().live->workload())
            .layout();
    for (auto _ : state) {
        std::string why;
        bool ok = oltp::checkTpccConsistency(recovered, layout, &why);
        if (!ok)
            state.SkipWithError(why.c_str());
        benchmark::DoNotOptimize(ok);
    }
}
BENCHMARK(BM_TpccOracle)->Unit(benchmark::kMicrosecond);

/**
 * One recovery pass over the TpccCrash image, each on a fresh
 * copy-on-write copy, as a crash point's checks run it: a canonical
 * pass (replay, then truncation) and a non-truncating one. The
 * counters are the pages each pass unshares from the crash image
 * (the pagesCloned() delta of its copy), which the sweep's
 * pages_cloned, counting the reference store's clones, never sees.
 */
void
BM_RecoveryPass(benchmark::State &state)
{
    const TpccCrash &cell = tpccCrash();
    persist::RecoveryOptions keep;
    keep.truncateLog = false;
    std::uint64_t clonedCanonical = 0;
    std::uint64_t clonedReplay = 0;
    for (auto _ : state) {
        for (bool truncate : {true, false}) {
            mem::BackingStore img = cell.image;
            const std::uint64_t before = img.pagesCloned();
            persist::Recovery::run(img, cell.map(),
                                   truncate ? persist::RecoveryOptions{}
                                            : keep);
            (truncate ? clonedCanonical : clonedReplay) +=
                img.pagesCloned() - before;
            benchmark::DoNotOptimize(img.read64(img.base()));
        }
    }
    const auto iterations = static_cast<double>(state.iterations());
    state.counters["clones_canonical"] =
        static_cast<double>(clonedCanonical) / iterations;
    state.counters["clones_replay"] =
        static_cast<double>(clonedReplay) / iterations;
}
BENCHMARK(BM_RecoveryPass)->Unit(benchmark::kMicrosecond);

/**
 * Every check of one crash point, as a crash-tpcc sweep runs them on
 * the TpccCrash image: recovery passes, idempotence diffs and the
 * TPC-C oracle.
 */
void
BM_CrashPointCheck(benchmark::State &state)
{
    const TpccCrash &cell = tpccCrash();
    for (auto _ : state) {
        std::vector<crashlab::Violation> v = crashlab::checkCrashPoint(
            cell.image, cell.map(), cell.live->workload(), cell.facts,
            persist::RecoveryOptions{});
        if (!v.empty())
            state.SkipWithError(
                (v.front().invariant + ": " + v.front().detail).c_str());
        benchmark::DoNotOptimize(v.data());
    }
}
BENCHMARK(BM_CrashPointCheck)->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
