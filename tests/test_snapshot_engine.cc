/**
 * @file
 * Property tests of the checkpointed copy-on-write snapshot engine
 * (the `perf` ctest label): the checkpointed/COW `snapshotAt` must be
 * byte-identical to a naive full-replay reference at every sampled
 * tick, COW images must never alias their parent or siblings, and the
 * monotone Cursor must agree with snapshotAt along an ascending tick
 * walk.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/backing_store.hh"
#include "sim/rng.hh"

using namespace snf;
using namespace snf::mem;

namespace
{

constexpr Addr kBase = 0x100000;
constexpr std::uint64_t kSize = 1 << 20;

/**
 * Build two identically journaled stores — one with checkpoints every
 * @p interval entries, one naive (interval 0, full replay) — from the
 * same deterministic write stream. Completion ticks are issued out of
 * order in bursts, like a real memory bus.
 */
struct EnginePair
{
    BackingStore ckpt{kBase, kSize};
    BackingStore naive{kBase, kSize};
    std::vector<Tick> doneTicks; // every journaled completion tick
    Tick lastTick = 0;

    EnginePair(std::size_t interval, std::uint64_t entries,
               std::uint64_t seed)
    {
        sim::Rng rng(seed);
        // Pre-journal contents become the tick-0 baseline.
        for (int i = 0; i < 32; ++i) {
            std::uint64_t v = rng.next();
            Addr a = kBase + (rng.next() % (kSize - 8)) / 8 * 8;
            ckpt.write(a, sizeof(v), &v);
            naive.write(a, sizeof(v), &v);
        }
        ckpt.setCheckpointInterval(interval);
        naive.setCheckpointInterval(0);
        ckpt.enableJournal();
        naive.enableJournal();

        Tick now = 0;
        for (std::uint64_t i = 0; i < entries; ++i) {
            // Bursts of writes completing around a common instant,
            // deliberately out of issue order.
            now += rng.next() % 7;
            Tick done = now + rng.next() % 5;
            std::uint8_t buf[48];
            std::uint64_t len = 1 + rng.next() % sizeof(buf);
            for (std::uint64_t b = 0; b < len; ++b)
                buf[b] = static_cast<std::uint8_t>(rng.next());
            Addr a = kBase + rng.next() % (kSize - sizeof(buf));
            ckpt.write(a, len, buf, done);
            naive.write(a, len, buf, done);
            doneTicks.push_back(done);
            lastTick = std::max(lastTick, done);
        }
    }
};

} // namespace

TEST(SnapshotEngine, CheckpointedMatchesNaiveAtSampledTicks)
{
    constexpr std::size_t kInterval = 64;
    EnginePair eng(kInterval, 1000, 42);

    // Checkpoint-boundary-straddling ticks: the completion ticks in
    // sorted order; checkpoints land every kInterval entries, so the
    // ticks at sorted positions K-1, K, K+1 (for each multiple K)
    // straddle a materialized checkpoint.
    std::vector<Tick> sorted = eng.doneTicks;
    std::sort(sorted.begin(), sorted.end());
    std::vector<Tick> samples{0, 1, eng.lastTick,
                              eng.lastTick + 1000};
    for (std::size_t k = kInterval; k < sorted.size();
         k += kInterval) {
        samples.push_back(sorted[k - 1]);
        samples.push_back(sorted[k]);
        if (k + 1 < sorted.size())
            samples.push_back(sorted[k + 1]);
    }
    sim::Rng rng(7);
    for (int i = 0; i < 40; ++i)
        samples.push_back(rng.next() % (eng.lastTick + 2));

    eng.ckpt.buildSnapshotIndex();
    ASSERT_GT(eng.ckpt.checkpointCount(), 0u)
        << "test must actually exercise checkpoints";
    EXPECT_EQ(eng.naive.checkpointCount(), 0u);

    for (Tick t : samples) {
        BackingStore a = eng.ckpt.snapshotAt(t);
        BackingStore b = eng.naive.snapshotAt(t);
        EXPECT_EQ(a.firstDifference(b, kBase, kSize), std::nullopt)
            << "checkpointed and naive snapshots diverge at tick "
            << t;
    }
}

TEST(SnapshotEngine, CursorMatchesSnapshotAtAlongAscendingWalk)
{
    EnginePair eng(32, 600, 99);

    std::vector<Tick> walk{0};
    sim::Rng rng(5);
    for (int i = 0; i < 50; ++i)
        walk.push_back(rng.next() % (eng.lastTick + 2));
    walk.push_back(eng.lastTick);
    std::sort(walk.begin(), walk.end());

    BackingStore::Cursor cursor(eng.ckpt);
    for (Tick t : walk) {
        BackingStore inc = cursor.imageAt(t);
        BackingStore ref = eng.naive.snapshotAt(t);
        EXPECT_EQ(inc.firstDifference(ref, kBase, kSize),
                  std::nullopt)
            << "cursor image diverges from naive replay at tick "
            << t;
    }
}

TEST(SnapshotEngine, SnapshotMutationNeverLeaksIntoParentOrSiblings)
{
    EnginePair eng(16, 200, 7);
    Tick mid = eng.lastTick / 2;

    BackingStore sibling = eng.ckpt.snapshotAt(mid);
    BackingStore victim = eng.ckpt.snapshotAt(mid);
    ASSERT_EQ(victim.firstDifference(sibling, kBase, kSize),
              std::nullopt);

    // Mutate every page of one snapshot; the sibling (same tick) and
    // the parent's future snapshots must not observe any of it.
    sim::Rng rng(3);
    for (Addr a = kBase; a < kBase + kSize; a += 4096) {
        std::uint64_t v = rng.next() | 1;
        victim.write64(a, v);
        EXPECT_EQ(victim.read64(a), v);
    }
    EXPECT_EQ(sibling.firstDifference(eng.naive.snapshotAt(mid),
                                      kBase, kSize),
              std::nullopt)
        << "sibling snapshot observed a write to another snapshot";
    EXPECT_EQ(eng.ckpt.snapshotAt(mid).firstDifference(sibling, kBase,
                                                       kSize),
              std::nullopt)
        << "parent store observed a write to a snapshot";

    // And the reverse: mutating the parent must not change images
    // already taken (checkpoint sharing included).
    std::uint64_t marker = 0xfeedfacecafebeefULL;
    BackingStore before = eng.ckpt.snapshotAt(mid);
    eng.ckpt.write64(kBase + 512, marker, eng.lastTick + 10);
    eng.naive.write64(kBase + 512, marker, eng.lastTick + 10);
    EXPECT_EQ(before.firstDifference(sibling, kBase, kSize),
              std::nullopt)
        << "parent mutation leaked into an existing snapshot";
}

TEST(SnapshotEngine, InlineAndHeapJournalPayloadsRoundTrip)
{
    BackingStore bs(kBase, kSize);
    bs.enableJournal();

    // <= 32 bytes stores inline, > 32 bytes on the heap; both must
    // replay byte-exactly (and survive the journal's vector growth).
    std::vector<std::uint8_t> small(32), large(200);
    for (std::size_t i = 0; i < small.size(); ++i)
        small[i] = static_cast<std::uint8_t>(0xa0 + i);
    for (std::size_t i = 0; i < large.size(); ++i)
        large[i] = static_cast<std::uint8_t>(i * 3 + 1);
    bs.write(kBase + 64, small.size(), small.data(), 10);
    bs.write(kBase + 4096 - 50, large.size(), large.data(), 20);
    for (int i = 0; i < 1000; ++i) // force reallocations
        bs.write64(kBase + 8 * i, i, 30 + i);

    BackingStore snap = bs.snapshotAt(25);
    std::vector<std::uint8_t> out(large.size());
    snap.read(kBase + 64, small.size(), out.data());
    EXPECT_TRUE(std::equal(small.begin(), small.end(), out.begin()));
    snap.read(kBase + 4096 - 50, large.size(), out.data());
    EXPECT_EQ(out, large);
    // Tick 15: the large write (done 20) must not be visible yet.
    BackingStore early = bs.snapshotAt(15);
    early.read(kBase + 4096 - 50, large.size(), out.data());
    for (std::size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], 0) << "at offset " << i;
}

TEST(SnapshotEngine, IdenticalWritesAreJournaledAndReplayed)
{
    // Two writes of one value to one word, completing out of issue
    // order: the second changes no live byte, but it completes first,
    // so it alone decides the word between the two completions. The
    // same holds for zeros written over a never-written page.
    BackingStore bs(kBase, kSize);
    bs.setCheckpointInterval(0);
    bs.enableJournal();
    const Addr y = kBase + 64;
    const Addr z = kBase + 5 * 4096;
    bs.write64(y, 7, 50);
    bs.write64(y, 7, 20); // identical to the live word
    bs.write64(z, 0, 40); // zeros over an absent page
    bs.write64(z, 9, 30);
    EXPECT_EQ(bs.journalSize(), 4u);

    EXPECT_EQ(bs.snapshotAt(10).read64(y), 0u);
    EXPECT_EQ(bs.snapshotAt(25).read64(y), 7u);
    EXPECT_EQ(bs.snapshotAt(35).read64(z), 9u);
    EXPECT_EQ(bs.snapshotAt(45).read64(z), 0u);
    EXPECT_EQ(bs.snapshotAt(60).read64(y), 7u);

    const std::uint64_t before = bs.entriesReplayed();
    (void)bs.snapshotAt(60);
    EXPECT_EQ(bs.entriesReplayed() - before, 4u);

    BackingStore::Cursor cursor(bs);
    EXPECT_EQ(cursor.imageAt(25).read64(y), 7u);
    EXPECT_EQ(cursor.imageAt(35).read64(z), 9u);
    EXPECT_EQ(cursor.imageAt(45).read64(z), 0u);
}

TEST(SnapshotEngine, CheckpointedMatchesNaiveWithIdenticalRewrites)
{
    EnginePair eng(32, 300, 23);
    // Append writes that each put back the bytes the live image holds
    // (no-ops on the live image), completing at random earlier ticks,
    // so in the snapshots they land out of order and do matter.
    sim::Rng rng(29);
    for (int i = 0; i < 300; ++i) {
        std::uint8_t buf[48];
        std::uint64_t len = 1 + rng.next() % sizeof(buf);
        Addr a = kBase + rng.next() % (kSize - sizeof(buf));
        eng.ckpt.read(a, len, buf);
        Tick done = rng.next() % (eng.lastTick + 1);
        eng.ckpt.write(a, len, buf, done);
        eng.naive.write(a, len, buf, done);
    }
    ASSERT_EQ(eng.ckpt.journalSize(), 600u);

    BackingStore::Cursor cursor(eng.ckpt);
    for (Tick t = 0; t <= eng.lastTick + 1; t += 1 + eng.lastTick / 60) {
        BackingStore ref = eng.naive.snapshotAt(t);
        EXPECT_EQ(eng.ckpt.snapshotAt(t).firstDifference(ref, kBase,
                                                         kSize),
                  std::nullopt)
            << "checkpointed and naive snapshots diverge at tick " << t;
        EXPECT_EQ(cursor.imageAt(t).firstDifference(ref, kBase, kSize),
                  std::nullopt)
            << "cursor image diverges from naive replay at tick " << t;
    }
}

TEST(SnapshotEngine, ReplayCountersShrinkWithCheckpoints)
{
    EnginePair eng(64, 1000, 11);
    eng.ckpt.buildSnapshotIndex();
    eng.naive.buildSnapshotIndex();

    std::uint64_t ck0 = eng.ckpt.entriesReplayed();
    std::uint64_t nv0 = eng.naive.entriesReplayed();
    Tick late = eng.lastTick - 1;
    (void)eng.ckpt.snapshotAt(late);
    (void)eng.naive.snapshotAt(late);
    std::uint64_t ckDelta = eng.ckpt.entriesReplayed() - ck0;
    std::uint64_t nvDelta = eng.naive.entriesReplayed() - nv0;
    EXPECT_LT(ckDelta, nvDelta)
        << "a late-tick snapshot should replay only the delta past "
           "the nearest checkpoint";
    EXPECT_LE(ckDelta, eng.ckpt.checkpointInterval());
}
