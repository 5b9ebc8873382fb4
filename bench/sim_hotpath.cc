/**
 * @file
 * google-benchmark microbenchmarks of the simulator tick machinery:
 * the scheduler's idle-tick probe of the event queue, the cache
 * tag-array lookup fast path, an FWB scan over a mostly clean
 * hierarchy, and nested coroutine awaits through the frame pool.
 *
 * Deterministic counters (lines flagged and written back per scan,
 * frames taken from the heap) ride along as benchmark counters.
 */

#include <benchmark/benchmark.h>

#include <cstdint>

#include "core/system_config.hh"
#include "mem/cache.hh"
#include "mem/memory_system.hh"
#include "sim/coro.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

using namespace snf;

namespace
{

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
