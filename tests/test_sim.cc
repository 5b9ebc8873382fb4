/**
 * @file
 * Unit tests for the simulation kernel: event queue, PRNG, CRC32,
 * stats, the coroutine task type and its frame pool, the JSON writer
 * the tools' reports go through, and the flat per-line table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/coro.hh"
#include "sim/crc32.hh"
#include "sim/event_queue.hh"
#include "sim/json.hh"
#include "sim/line_table.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

using namespace snf;
using namespace snf::sim;

namespace
{

// What the global operator new/delete below saw of requests above the
// frame pool's largest size class.
std::atomic<std::size_t> largeNews{0};
std::atomic<void *> lastLargeNew{nullptr};
std::atomic<bool> lastLargeNewFreed{false};

} // namespace

// Replaced for this binary only, to observe the frame pool handing
// oversized frames to ::operator new / ::operator delete. Not inlined,
// so callers never see the malloc behind a later operator delete.
[[gnu::noinline]] void *
operator new(std::size_t n)
{
    void *p = std::malloc(n != 0 ? n : 1);
    if (!p)
        throw std::bad_alloc();
    if (n > detail::FramePool::kMaxPooledBytes) {
        ++largeNews;
        lastLargeNew = p;
        lastLargeNewFreed = false;
    }
    return p;
}

void
operator delete(void *p) noexcept
{
    if (p != nullptr && p == lastLargeNew.load())
        lastLargeNewFreed = true;
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&](Tick) { order.push_back(3); });
    q.schedule(10, [&](Tick) { order.push_back(1); });
    q.schedule(20, [&](Tick) { order.push_back(2); });
    EXPECT_EQ(q.nextEventTick(), 10u);
    EXPECT_EQ(q.runUntil(25), 2u);
    EXPECT_EQ(q.runUntil(100), 1u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        q.schedule(5, [&, i](Tick) { order.push_back(i); });
    q.runUntil(5);
    ASSERT_EQ(order.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CallbackMayReschedule)
{
    EventQueue q;
    int fired = 0;
    std::function<void(Tick)> tick = [&](Tick when) {
        if (++fired < 5)
            q.schedule(when + 10, tick);
    };
    q.schedule(0, tick);
    q.runUntil(1000);
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(q.nextEventTick(), kTickNever);
}

TEST(EventQueue, EventsReceiveTheirScheduledTick)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(42, [&](Tick when) { seen = when; });
    q.runUntil(100);
    EXPECT_EQ(seen, 42u);
}

/**
 * Randomized schedule traces — near and far ticks, same-tick bursts,
 * past ticks, and callbacks that schedule more — held to the queue's
 * contract: each runUntil(now) runs exactly the pending events with
 * tick <= now, each at its own tick, always the least pending (tick,
 * schedule order) next.
 */
TEST(EventQueue, RandomTracesRunInTickThenScheduleOrder)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        SCOPED_TRACE(seed);
        EventQueue q;
        Rng rng(seed);
        // What the queue holds, as (tick, schedule order).
        std::set<std::pair<Tick, std::uint64_t>> pending;
        std::uint64_t scheduled = 0;
        std::uint64_t ran = 0;
        Tick now = 0;   // where each round's events are spawned
        Tick bound = 0; // the running runUntil's argument

        std::function<void(Tick)> spawn = [&](Tick base) {
            // Near ticks, far ticks, the caller's own tick, and
            // occasionally one already past.
            std::uint64_t kind = rng.below(8);
            Tick when = base;
            if (kind < 4)
                when = base + rng.below(64);
            else if (kind < 6)
                when = base + 900 + rng.below(4000);
            else if (kind == 7 && base > 50)
                when = base - rng.below(50);
            const std::uint64_t seq = scheduled++;
            const bool respawn = rng.below(4) == 0;
            pending.emplace(when, seq);
            q.schedule(when, [&, when, seq, respawn](Tick t) {
                EXPECT_EQ(t, when);
                EXPECT_LE(t, bound);
                ASSERT_FALSE(pending.empty());
                EXPECT_EQ(*pending.begin(), std::make_pair(when, seq));
                pending.erase({when, seq});
                ++ran;
                if (respawn && scheduled < 400)
                    spawn(t + 1 + seq % 7);
            });
        };

        for (int round = 0; round < 13; ++round) {
            if (round < 12) {
                for (int n = 0; n < 16; ++n)
                    spawn(now);
                now += 128;
            } else {
                now += 100000;
            }
            // First up to the least pending tick, so that a bound
            // equal to an event's tick is run, then up to now.
            const Tick least =
                pending.empty() ? now : pending.begin()->first;
            for (Tick b : {std::min(least, now), now}) {
                bound = b;
                const std::uint64_t before = ran;
                const std::size_t n = q.runUntil(bound);
                EXPECT_EQ(n, ran - before);
                EXPECT_TRUE(pending.empty() ||
                            pending.begin()->first > bound);
                EXPECT_EQ(q.nextEventTick(), pending.empty()
                                                 ? kTickNever
                                                 : pending.begin()->first);
            }
        }
        EXPECT_TRUE(pending.empty());
        EXPECT_EQ(q.statScheduled(), scheduled);
        EXPECT_EQ(q.statExecuted(), ran);
    }
}

TEST(EventQueue, CountsSchedulingActivity)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&](Tick) { ++fired; });
    q.schedule(5000, [&](Tick) { ++fired; });
    q.runUntil(10000);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.statScheduled(), 2u);
    EXPECT_EQ(q.statExecuted(), 2u);
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123), c(124);
    bool all_equal = true;
    bool any_diff_seed = false;
    for (int i = 0; i < 100; ++i) {
        std::uint64_t va = a.next();
        all_equal &= (va == b.next());
        any_diff_seed |= (va != c.next());
    }
    EXPECT_TRUE(all_equal);
    EXPECT_TRUE(any_diff_seed);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        std::uint64_t v = rng.range(3, 6);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 6u);
        saw_lo |= v == 3;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, StrLengthAndCharset)
{
    Rng rng(13);
    std::string s = rng.str(64);
    EXPECT_EQ(s.size(), 64u);
    for (char c : s)
        EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)));
}

TEST(Rng, SplitIsIndependentOfDrawOrder)
{
    // The regression the split() API exists for: drawing from the
    // parent (or a sibling) before splitting must not change what a
    // child stream produces.
    Rng fresh(42);
    Rng drained(42);
    for (int i = 0; i < 57; ++i)
        drained.next();
    Rng sibling = drained.split(9);
    (void)sibling.next();

    Rng a = fresh.split(3);
    Rng b = drained.split(3);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, SplitStreamsAreDistinct)
{
    Rng root(42);
    Rng a = root.split(0);
    Rng b = root.split(1);
    bool differsFromSibling = false;
    bool differsFromParent = false;
    Rng parent(42);
    for (int i = 0; i < 100; ++i) {
        std::uint64_t va = a.next();
        differsFromSibling |= va != b.next();
        differsFromParent |= va != parent.next();
    }
    EXPECT_TRUE(differsFromSibling);
    EXPECT_TRUE(differsFromParent);
}

TEST(Rng, SplitNestsDeterministically)
{
    Rng a = Rng(7).split(1).split(2);
    Rng b = Rng(7).split(1).split(2);
    Rng other = Rng(7).split(2).split(1);
    bool pathMatters = false;
    for (int i = 0; i < 100; ++i) {
        std::uint64_t va = a.next();
        ASSERT_EQ(va, b.next());
        pathMatters |= va != other.next();
    }
    EXPECT_TRUE(pathMatters);
}

TEST(Zipf, SkewsTowardsSmallKeys)
{
    Rng rng(17);
    Zipf zipf(1000, 0.9);
    std::uint64_t low = 0, total = 20000;
    for (std::uint64_t i = 0; i < total; ++i) {
        std::uint64_t k = zipf.sample(rng);
        ASSERT_LT(k, 1000u);
        if (k < 10)
            ++low;
    }
    // The 1% hottest keys should draw far more than 1% of samples.
    EXPECT_GT(low, total / 10);
}

namespace
{

/** Bit-at-a-time CRC32 (reflected, poly 0xEDB88320): the reference. */
std::uint32_t
bitwiseCrc32(const std::uint8_t *data, std::size_t n)
{
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i) {
        crc ^= data[i];
        for (int b = 0; b < 8; ++b)
            crc = (crc >> 1) ^ (0xedb88320u & (~(crc & 1u) + 1u));
    }
    return ~crc;
}

} // namespace

TEST(Crc32, MatchesBitwiseReferenceOnRandomData)
{
    Rng rng(0xc4c32);
    std::uint8_t buf[64 + 7];
    for (int round = 0; round < 8; ++round) {
        for (auto &b : buf)
            b = static_cast<std::uint8_t>(rng.next());
        // Every length 0..64 from every start offset 0..7, so the word
        // loop sees unaligned loads and every tail length.
        for (std::size_t off = 0; off < 8; ++off)
            for (std::size_t len = 0; len <= 64; ++len)
                ASSERT_EQ(sim::crc32(buf + off, len),
                          bitwiseCrc32(buf + off, len))
                    << "round " << round << " offset " << off
                    << " length " << len;
    }
}

TEST(Crc32, StandardCheckValueAndExactChaining)
{
    const char *check = "123456789";
    EXPECT_EQ(sim::crc32(check, 9), 0xcbf43926u);
    EXPECT_EQ(sim::crc32(check, 0), 0u);
    for (std::size_t cut = 0; cut <= 9; ++cut) {
        std::uint32_t head = sim::crc32(check, cut);
        EXPECT_EQ(sim::crc32(check + cut, 9 - cut, head), 0xcbf43926u)
            << "split at " << cut;
    }
}

TEST(Stats, CountersAndScalars)
{
    StatGroup g("test");
    g.counter("events").inc();
    g.counter("events").inc(4);
    g.scalar("energy").add(2.5);
    EXPECT_EQ(g.counterValue("events"), 5u);
    EXPECT_DOUBLE_EQ(g.scalarValue("energy"), 2.5);
    EXPECT_EQ(g.counterValue("missing"), 0u);
}

TEST(Stats, DumpIncludesChildren)
{
    StatGroup parent("mem");
    StatGroup child("l1");
    parent.addChild(&child);
    child.counter("hits").inc(3);
    std::ostringstream os;
    parent.dump(os);
    EXPECT_NE(os.str().find("mem.l1.hits = 3"), std::string::npos);
}

TEST(Stats, ResetAllClearsRecursively)
{
    StatGroup parent("p");
    StatGroup child("c");
    parent.addChild(&child);
    parent.counter("x").inc(2);
    child.scalar("y").set(9);
    parent.resetAll();
    EXPECT_EQ(parent.counterValue("x"), 0u);
    EXPECT_DOUBLE_EQ(child.scalarValue("y"), 0.0);
}

TEST(Logging, Strfmt)
{
    EXPECT_EQ(strfmt("a%db", 7), "a7b");
    EXPECT_EQ(strfmt("%s-%s", "x", "y"), "x-y");
}

namespace
{

Co<int>
leaf(int v)
{
    co_return v * 2;
}

Co<int>
branch(int v)
{
    int a = co_await leaf(v);
    int b = co_await leaf(v + 1);
    co_return a + b;
}

struct ManualResume
{
    std::coroutine_handle<> handle;

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h) noexcept
    {
        handle = h;
    }

    void await_resume() const noexcept {}
};

} // namespace

namespace
{

// Coroutine arguments are copied into the frame, so pointer/reference
// parameters are the safe way to observe state (capturing-lambda
// coroutines dangle once the closure dies).
Co<void>
nestedRoot(int *result)
{
    *result = co_await branch(10);
}

Co<void>
gatedRoot(ManualResume *gate, int *stage)
{
    *stage = 1;
    co_await *gate;
    *stage = 2;
}

Co<int>
thrower()
{
    throw std::runtime_error("boom");
    co_return 0;
}

Co<void>
catcher(bool *caught)
{
    try {
        co_await thrower();
    } catch (const std::runtime_error &) {
        *caught = true;
    }
}

} // namespace

TEST(Coro, NestedValueTasks)
{
    int result = 0;
    Co<void> root = nestedRoot(&result);
    root.raw().resume();
    EXPECT_TRUE(root.done());
    EXPECT_EQ(result, 20 + 22);
}

TEST(Coro, SuspendAndResumeThroughAwaiter)
{
    ManualResume gate;
    int stage = 0;
    Co<void> root = gatedRoot(&gate, &stage);
    EXPECT_EQ(stage, 0); // lazy start
    root.raw().resume();
    EXPECT_EQ(stage, 1);
    EXPECT_FALSE(root.done());
    gate.handle.resume();
    EXPECT_EQ(stage, 2);
    EXPECT_TRUE(root.done());
}

TEST(Coro, ExceptionPropagatesToAwaiter)
{
    bool caught = false;
    Co<void> root = catcher(&caught);
    root.raw().resume();
    EXPECT_TRUE(caught);
}

namespace
{

using detail::FramePool;

Co<int>
pooledLeaf(int v)
{
    co_return v + 1;
}

// The buffer lives across a suspension point, so it is part of the
// frame, which is then larger than the largest size class.
Co<int>
oversizedFrame(ManualResume *gate)
{
    std::array<char, 2 * FramePool::kMaxPooledBytes> buf{};
    buf.back() = 3;
    co_await *gate;
    co_return buf.front() + buf.back();
}

} // namespace

TEST(FramePool, CompletedFrameIsReusedForTheNextOfItsClass)
{
    void *first = nullptr;
    {
        Co<int> a = pooledLeaf(1);
        first = a.raw().address();
        a.raw().resume();
        ASSERT_TRUE(a.done());
        EXPECT_EQ(a.raw().promise().result, 2);
    }
    const std::size_t cached = FramePool::cachedFrames();
    ASSERT_GT(cached, 0u);
    Co<int> b = pooledLeaf(2);
    EXPECT_EQ(b.raw().address(), first);
    EXPECT_EQ(FramePool::cachedFrames(), cached - 1);
}

TEST(FramePool, FrameAboveTheLargestClassBypassesThePool)
{
    const std::size_t cached = FramePool::cachedFrames();
    const std::int64_t upstream = FramePool::upstreamFrames();
    const std::size_t news = largeNews;
    {
        ManualResume gate;
        Co<int> big = oversizedFrame(&gate);
        EXPECT_EQ(largeNews, news + 1);
        EXPECT_EQ(lastLargeNew.load(), big.raw().address());
        big.raw().resume();
        gate.handle.resume();
        ASSERT_TRUE(big.done());
        EXPECT_EQ(big.raw().promise().result, 3);
        EXPECT_EQ(FramePool::upstreamFrames(), upstream);
    }
    EXPECT_TRUE(lastLargeNewFreed);
    EXPECT_EQ(FramePool::cachedFrames(), cached);
    EXPECT_EQ(FramePool::upstreamFrames(), upstream);
}

TEST(FramePool, ExitingThreadReleasesItsLists)
{
    const std::int64_t upstream = FramePool::upstreamFrames();
    std::size_t cachedInWorker = 0;
    std::thread worker([&cachedInWorker] {
        for (int i = 0; i < 4; ++i) {
            int result = 0;
            Co<void> root = nestedRoot(&result);
            root.raw().resume();
            EXPECT_EQ(result, 42);
        }
        cachedInWorker = FramePool::cachedFrames();
    });
    worker.join();
    EXPECT_GT(cachedInWorker, 0u);
    EXPECT_EQ(FramePool::upstreamFrames(), upstream);
}

TEST(FramePool, ThreadThatOnlyDestroysFramesReleasesThem)
{
    // Allocated here, destroyed by a worker that never allocates a
    // frame itself: the worker caches it, then releases it at exit.
    Co<int> handed = pooledLeaf(7);
    handed.raw().resume();
    const std::int64_t upstream = FramePool::upstreamFrames();
    std::size_t cachedInWorker = 0;
    std::thread worker([&handed, &cachedInWorker] {
        handed = Co<int>();
        cachedInWorker = FramePool::cachedFrames();
    });
    worker.join();
    EXPECT_EQ(cachedInWorker, 1u);
    EXPECT_EQ(FramePool::upstreamFrames(), upstream - 1);
}

TEST(FramePool, FrameReturnsToTheDestroyingThread)
{
    // Created (and run) on a worker, destroyed here: the frame joins
    // this thread's list and outlives the worker's release.
    Co<int> moved;
    std::thread worker([&moved] {
        moved = pooledLeaf(5);
        moved.raw().resume();
    });
    worker.join();
    const std::size_t cached = FramePool::cachedFrames();
    void *frame = moved.raw().address();
    moved = Co<int>();
    EXPECT_EQ(FramePool::cachedFrames(), cached + 1);
    Co<int> again = pooledLeaf(6);
    EXPECT_EQ(again.raw().address(), frame);
}

// ---- JSON writer ----

TEST(JsonWriter, BlockAndInlineLayouts)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("tool", "snfsim");
    w.field("threads", 2u);
    w.key("empty").beginArray().end();
    w.key("cells").beginArray();
    w.beginObject();
    w.field("ok", true);
    w.key("types").beginArray();
    w.beginObject(JsonWriter::Layout::Inline);
    w.field("type", "a");
    w.key("v").beginArray().value(1).value(-2).end();
    w.end();
    w.end();
    w.end();
    w.end();
    w.end();
    EXPECT_EQ(os.str(), "{\n"
                        "  \"tool\": \"snfsim\",\n"
                        "  \"threads\": 2,\n"
                        "  \"empty\": [],\n"
                        "  \"cells\": [\n"
                        "    {\n"
                        "      \"ok\": true,\n"
                        "      \"types\": [\n"
                        "        {\"type\": \"a\", \"v\": [1, -2]}\n"
                        "      ]\n"
                        "    }\n"
                        "  ]\n"
                        "}\n");
}

TEST(JsonWriter, NumbersPrintAsTheStreamDoes)
{
    for (double d : {0.9, 1.0 / 3.0, 1e-7, 123456789.0, 0.0}) {
        std::ostringstream want;
        want << d;
        std::ostringstream os;
        JsonWriter(os).value(d);
        EXPECT_EQ(os.str(), want.str());
    }
    std::ostringstream os;
    JsonWriter(os).fixed(0.0461237, 6);
    EXPECT_EQ(os.str(), "0.046124");
    std::ostringstream big;
    JsonWriter(big).value(std::uint64_t{18446744073709551615ULL});
    EXPECT_EQ(big.str(), "18446744073709551615");
}

TEST(JsonWriter, EscapesStrings)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject(JsonWriter::Layout::Inline);
    w.field("k\"ey", std::string("tab\there\r\n\\ \x1f"));
    w.end();
    EXPECT_EQ(os.str(),
              "{\"k\\\"ey\": \"tab\\there\\r\\n\\\\ \\u001f\"}\n");
}

// ----------------------------- LineTable ------------------------

TEST(LineTable, GrowthKeepsEveryEntry)
{
    LineTable<std::uint64_t> t;
    std::size_t initial = t.capacity();
    constexpr std::uint64_t kLines = 50000;
    for (std::uint64_t i = 0; i < kLines; ++i)
        t[0x100000000ULL + i * 64] = i + 1;
    EXPECT_EQ(t.size(), kLines);
    EXPECT_GT(t.capacity(), initial);
    EXPECT_GE(3 * t.capacity(), 4 * kLines)
        << "at most three-quarters full";
    for (std::uint64_t i = 0; i < kLines; ++i) {
        const std::uint64_t *v = t.find(0x100000000ULL + i * 64);
        ASSERT_NE(v, nullptr) << i;
        ASSERT_EQ(*v, i + 1);
    }
    // Re-inserting a present key keeps its value and the size.
    EXPECT_FALSE(t.insert(0x100000000ULL));
    EXPECT_EQ(t[0x100000000ULL], 1u);
    EXPECT_EQ(t.size(), kLines);
}

TEST(LineTable, AbsentLookupsInsertNothing)
{
    LineTable<std::uint64_t> t;
    const LineTable<std::uint64_t> &ct = t;
    std::size_t cap = t.capacity();
    for (Addr a = 0; a < 1000; ++a) {
        EXPECT_EQ(t.find(a * 64), nullptr);
        EXPECT_EQ(ct.find(a * 64), nullptr);
        EXPECT_FALSE(t.contains(a * 64));
    }
    EXPECT_FALSE(t.erase(0x40));
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.capacity(), cap);

    // Inserting one key makes only that key visible, with V{}.
    EXPECT_EQ(t[0x40], 0u);
    EXPECT_EQ(t.size(), 1u);
    EXPECT_NE(t.find(0x40), nullptr);
    EXPECT_EQ(t.find(0x80), nullptr);
    EXPECT_EQ(t.size(), 1u);
}

TEST(LineTable, AcceptsAddressesOutsideNvram)
{
    // The tables serve classes built without an address map, so any
    // key but the free marker is legal: zero, unaligned values,
    // DRAM-range lines and the top line.
    LineTable<std::uint64_t> t;
    const Addr keys[] = {0,      0x40,       0x1000,
                         0x7,    0x80000000, ~Addr{0} - 63};
    std::uint64_t v = 1;
    for (Addr k : keys)
        t[k] = v++;
    EXPECT_EQ(t.size(), std::size(keys));
    v = 1;
    for (Addr k : keys) {
        ASSERT_NE(t.find(k), nullptr) << std::hex << k;
        EXPECT_EQ(*t.find(k), v++);
    }
    EXPECT_TRUE(t.erase(~Addr{0} - 63));
    EXPECT_FALSE(t.contains(~Addr{0} - 63));
    EXPECT_TRUE(t.erase(0));
    EXPECT_FALSE(t.contains(0));
    EXPECT_EQ(t.size(), std::size(keys) - 2);
    EXPECT_EQ(*t.find(0x1000), 3u);
}

TEST(LineTable, EraseMatchesAReferenceMap)
{
    // Seeded inserts, overwrites and erases over a small key range
    // (long probe runs, many backward shifts) against
    // std::unordered_map; a set variant rides along.
    LineTable<std::uint64_t> t;
    LineSet set;
    std::unordered_map<Addr, std::uint64_t> ref;
    Rng rng(17);
    for (int step = 0; step < 200000; ++step) {
        Addr key = rng.below(512) * 64;
        switch (rng.below(3)) {
          case 0:
            t[key] = static_cast<std::uint64_t>(step);
            ref[key] = static_cast<std::uint64_t>(step);
            set.insert(key);
            break;
          case 1:
            ASSERT_EQ(t.erase(key), ref.erase(key) == 1);
            set.erase(key);
            break;
          default: {
            const std::uint64_t *v = t.find(key);
            auto it = ref.find(key);
            ASSERT_EQ(v != nullptr, it != ref.end()) << step;
            if (v) {
                ASSERT_EQ(*v, it->second);
            }
            ASSERT_EQ(set.contains(key), it != ref.end());
          }
        }
        ASSERT_EQ(t.size(), ref.size());
        ASSERT_EQ(set.size(), ref.size());
    }
    for (const auto &[key, value] : ref)
        EXPECT_EQ(*t.find(key), value);
    std::size_t cap = t.capacity();
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.capacity(), cap);
    for (const auto &kv : ref)
        EXPECT_FALSE(t.contains(kv.first));
}
