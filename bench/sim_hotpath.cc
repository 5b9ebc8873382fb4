/**
 * @file
 * google-benchmark microbenchmarks of the simulator tick machinery
 * after the hot-path overhaul: the calendar event queue (near-future
 * bucket ring, far-future overflow heap, same-tick FIFO merge,
 * reschedule-from-callback), the small-buffer callback (inline vs
 * heap-spilled captures), queue clear/reuse between runs, the
 * idle-tick skip probe, the cache tag-array lookup fast path, an FWB
 * scan over a mostly clean hierarchy, and nested coroutine awaits
 * through the frame pool.
 *
 * Deterministic counters (allocations per scheduled event, heap
 * spills) are exported as benchmark counters so the perf-smoke lane
 * can gate on them without trusting wall-clock.
 */

#include <benchmark/benchmark.h>

#include <cstdint>

#include "core/system_config.hh"
#include "mem/cache.hh"
#include "mem/memory_system.hh"
#include "sim/coro.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/small_callback.hh"

using namespace snf;

namespace
{

/// Near-future scheduling: every event lands in the bucket ring.
void
BM_CalendarRing(benchmark::State &state)
{
    sim::EventQueue q;
    Tick now = 0;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            q.schedule(now + 1 + (i * 7) % 32,
                       [&fired](Tick) { ++fired; });
        now += 32;
        q.runUntil(now);
    }
    benchmark::DoNotOptimize(fired);
    state.counters["alloc_per_event"] = benchmark::Counter(
        static_cast<double>(q.statCallbackHeapAllocs()) /
        static_cast<double>(q.statScheduled() ? q.statScheduled() : 1));
    state.counters["heap_spill_frac"] = benchmark::Counter(
        static_cast<double>(q.statHeapSpills()) /
        static_cast<double>(q.statScheduled() ? q.statScheduled() : 1));
}
BENCHMARK(BM_CalendarRing);

/// Far-future scheduling: every event overflows to the heap, then
/// drains through the merged (tick, seq) pop path.
void
BM_CalendarHeapSpill(benchmark::State &state)
{
    sim::EventQueue q;
    Tick now = 0;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            q.schedule(now + 2048 + (i * 131) % 512,
                       [&fired](Tick) { ++fired; });
        now += 4096;
        q.runUntil(now);
    }
    benchmark::DoNotOptimize(fired);
    state.counters["heap_spill_frac"] = benchmark::Counter(
        static_cast<double>(q.statHeapSpills()) /
        static_cast<double>(q.statScheduled() ? q.statScheduled() : 1));
}
BENCHMARK(BM_CalendarHeapSpill);

/// Many events on one tick: exercises the per-bucket FIFO drain.
void
BM_CalendarSameTickFifo(benchmark::State &state)
{
    sim::EventQueue q;
    Tick now = 0;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        for (int i = 0; i < 256; ++i)
            q.schedule(now + 1, [&fired](Tick) { ++fired; });
        now += 1;
        q.runUntil(now);
    }
    benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_CalendarSameTickFifo);

/// A periodic self-rescheduling event (the LogScrubber/FwbEngine
/// pattern): each callback schedules its successor from inside the
/// drain loop.
void
BM_CalendarReschedule(benchmark::State &state)
{
    sim::EventQueue q;
    Tick now = 0;
    std::uint64_t fired = 0;
    struct Periodic
    {
        sim::EventQueue &q;
        std::uint64_t &fired;
        void
        operator()(Tick t) const
        {
            ++fired;
            q.schedule(t + 3, Periodic{q, fired});
        }
    };
    q.schedule(1, Periodic{q, fired});
    for (auto _ : state) {
        now += 512;
        q.runUntil(now);
    }
    benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_CalendarReschedule);

/// Inline-capture callback: construct + invoke, no heap traffic.
void
BM_SmallCallbackInline(benchmark::State &state)
{
    std::uint64_t acc = 0;
    for (auto _ : state) {
        sim::SmallCallback cb([&acc](Tick t) { acc += t; });
        benchmark::DoNotOptimize(cb.onHeap()); // false: 8-byte capture
        cb(7);
    }
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_SmallCallbackInline);

/// Oversized capture: spills to the heap (the slow path the queue's
/// allocations-per-event counter tracks).
void
BM_SmallCallbackHeapSpill(benchmark::State &state)
{
    std::uint64_t acc = 0;
    struct Big
    {
        std::uint64_t pad[16];
    };
    Big big{};
    for (auto _ : state) {
        sim::SmallCallback cb(
            [&acc, big](Tick t) { acc += t + big.pad[0]; });
        benchmark::DoNotOptimize(cb.onHeap()); // true: 136-byte capture
        cb(7);
    }
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_SmallCallbackHeapSpill);

/// clear() between runs: O(pending) teardown with capacity retained,
/// the harness reuse pattern (one queue, many simulations).
void
BM_QueueClearReuse(benchmark::State &state)
{
    sim::EventQueue q;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        for (int i = 0; i < 128; ++i)
            q.schedule(1 + (i % 64), [&fired](Tick) { ++fired; });
        q.clear();
    }
    benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_QueueClearReuse);

/// The scheduler's idle-skip probe: nextEventTick() on a queue with a
/// single far-future event must be O(1), not a scan.
void
BM_NextEventTickProbe(benchmark::State &state)
{
    sim::EventQueue q;
    q.schedule(1u << 20, [](Tick) {});
    Tick acc = 0;
    for (auto _ : state)
        acc ^= q.nextEventTick();
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_NextEventTickProbe);

/// Cache lookup fast path: the tag-array probe on a hot working set.
void
BM_CacheTagProbe(benchmark::State &state)
{
    CacheConfig cfg;
    cfg.sizeBytes = 32 * 1024;
    mem::Cache cache("bench_l1", cfg);
    sim::Rng rng(7);
    for (int i = 0; i < 256; ++i) {
        Addr line = rng.below(512) * 64;
        mem::CacheLine *slot = cache.victimFor(line);
        if (slot->valid)
            cache.invalidate(slot);
        cache.install(slot, line);
    }
    std::uint64_t hits = 0;
    sim::Rng probe(11);
    for (auto _ : state) {
        if (cache.find(probe.below(512) * 64) != nullptr)
            ++hits;
    }
    benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_CacheTagProbe);

/// One FWB pass over the scaled(8) hierarchy (9 216 tags) while only
/// a few dozen NVRAM lines are dirty: each iteration re-dirties 48
/// lines spread over the eight L1s, then scans once. The walk visits
/// only dirty lines, so the scan costs far less than one tag read per
/// line.
void
BM_FwbScanMostlyClean(benchmark::State &state)
{
    mem::MemorySystem ms(SystemConfig::scaled(8));
    const SystemConfig &cfg = ms.config();
    const Addr base = cfg.map.nvramBase + (1u << 20);
    constexpr int kDirty = 48;
    Tick now = 0;
    std::uint64_t flagged = 0;
    std::uint64_t writtenBack = 0;
    for (auto _ : state) {
        for (int i = 0; i < kDirty; ++i) {
            std::uint64_t v = now + static_cast<std::uint64_t>(i);
            ms.store(static_cast<CoreId>(i % cfg.numCores),
                     base + static_cast<Addr>(i) * 4096, 8, &v, now);
        }
        now += 10000;
        mem::FwbScanResult r = ms.fwbScanAll(now, 0.0);
        flagged += r.linesFlagged;
        writtenBack += r.linesWrittenBack;
        now += 10000;
    }
    const double iters = static_cast<double>(state.iterations());
    state.counters["flagged_per_scan"] =
        benchmark::Counter(static_cast<double>(flagged) / iters);
    state.counters["written_back_per_scan"] =
        benchmark::Counter(static_cast<double>(writtenBack) / iters);
}
BENCHMARK(BM_FwbScanMostlyClean);

sim::Co<bool>
nestedLeaf(std::uint64_t v)
{
    co_return (v & 1) != 0;
}

sim::Co<bool>
nestedMid(std::uint64_t v)
{
    co_return co_await nestedLeaf(v + 1);
}

sim::Co<bool>
nestedTop(std::uint64_t v)
{
    co_return co_await nestedMid(v + 1);
}

sim::Co<void>
nestedRoot(std::uint64_t v, bool *out)
{
    *out = co_await nestedTop(v);
}

/// The shape of every simulated memory operation: three nested
/// Co<bool> awaits (four frames) per iteration. Once warm, every
/// frame comes from the pool's free lists, so frames_from_heap is 0.
void
BM_NestedCoAwait(benchmark::State &state)
{
    using sim::detail::FramePool;
    std::uint64_t odd = 0;
    std::uint64_t i = 0;
    {
        bool warm = false;
        sim::Co<void> root = nestedRoot(0, &warm);
        root.raw().resume();
    }
    const std::int64_t upstream = FramePool::upstreamFrames();
    for (auto _ : state) {
        bool out = false;
        sim::Co<void> root = nestedRoot(i++, &out);
        root.raw().resume();
        odd += out ? 1 : 0;
    }
    benchmark::DoNotOptimize(odd);
    state.counters["frames_from_heap"] = benchmark::Counter(
        static_cast<double>(FramePool::upstreamFrames() - upstream));
}
BENCHMARK(BM_NestedCoAwait);

} // namespace

BENCHMARK_MAIN();
