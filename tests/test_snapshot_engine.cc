/**
 * @file
 * Property tests of the copy-on-write snapshot engine (the `perf`
 * ctest label): `snapshotAt` and the monotone Cursor must be
 * byte-identical to a reference replay written here — the journal's
 * records sorted by (completion tick, issue order) and applied to a
 * copy of the pre-journal image — at every sampled tick, COW images
 * must never alias their parent or siblings, and journal payloads of
 * every size must replay byte-exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
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
 * A journaled store, the image it held when journaling began, and a
 * deterministic write stream whose completion ticks come in bursts,
 * out of issue order, like a real memory bus.
 */
struct Journaled
{
    BackingStore store{kBase, kSize};
    BackingStore base{kBase, kSize};
    std::vector<Tick> doneTicks; // every journaled completion tick
    Tick lastTick = 0;

    Journaled(std::uint64_t entries, std::uint64_t seed)
    {
        sim::Rng rng(seed);
        // Pre-journal contents become the tick-0 baseline.
        for (int i = 0; i < 32; ++i) {
            std::uint64_t v = rng.next();
            Addr a = kBase + (rng.next() % (kSize - 8)) / 8 * 8;
            store.write(a, sizeof(v), &v);
        }
        base = store;
        store.enableJournal();

        Tick now = 0;
        for (std::uint64_t i = 0; i < entries; ++i) {
            now += rng.next() % 7;
            Tick done = now + rng.next() % 5;
            std::uint8_t buf[48];
            std::uint64_t len = 1 + rng.next() % sizeof(buf);
            for (std::uint64_t b = 0; b < len; ++b)
                buf[b] = static_cast<std::uint8_t>(rng.next());
            Addr a = kBase + rng.next() % (kSize - sizeof(buf));
            store.write(a, len, buf, done);
            doneTicks.push_back(done);
            lastTick = std::max(lastTick, done);
        }
    }

    /**
     * The reference image at @p t: every journal record with
     * done <= t, sorted by (done, seq), written over a copy of the
     * pre-journal image.
     */
    BackingStore
    replayTo(Tick t) const
    {
        std::vector<BackingStore::JournalRecord> recs;
        store.forEachJournalRecord(
            [&](const BackingStore::JournalRecord &r) {
                recs.push_back(r);
            });
        std::sort(recs.begin(), recs.end(),
                  [](const BackingStore::JournalRecord &a,
                     const BackingStore::JournalRecord &b) {
                      if (a.done != b.done)
                          return a.done < b.done;
                      return a.seq < b.seq;
                  });
        BackingStore image = base;
        for (const BackingStore::JournalRecord &r : recs)
            if (r.done <= t)
                image.write(r.addr, r.size, r.data);
        return image;
    }
};

/** Ticks 0, 1, the last completion tick, beyond it, and samples. */
std::vector<Tick>
sampleTicks(const Journaled &j, std::uint64_t seed)
{
    std::vector<Tick> ticks{0, 1, j.lastTick, j.lastTick + 1000};
    sim::Rng rng(seed);
    for (int i = 0; i < 40; ++i)
        ticks.push_back(rng.next() % (j.lastTick + 2));
    for (int i = 0; i < 20; ++i)
        ticks.push_back(j.doneTicks[rng.next() % j.doneTicks.size()]);
    std::sort(ticks.begin(), ticks.end());
    return ticks;
}

} // namespace

TEST(SnapshotEngine, SnapshotAtMatchesReferenceReplay)
{
    Journaled j(1000, 42);
    // Some write completes before one issued ahead of it.
    ASSERT_FALSE(std::is_sorted(j.doneTicks.begin(), j.doneTicks.end()));
    for (Tick t : sampleTicks(j, 7)) {
        EXPECT_EQ(j.store.snapshotAt(t).firstDifference(j.replayTo(t),
                                                        kBase, kSize),
                  std::nullopt)
            << "snapshotAt diverges from the reference replay at tick "
            << t;
    }
}

TEST(SnapshotEngine, CursorMatchesSnapshotAtAlongAscendingWalk)
{
    Journaled j(600, 99);
    BackingStore::Cursor cursor(j.store);
    for (Tick t : sampleTicks(j, 5)) {
        BackingStore inc = cursor.imageAt(t);
        EXPECT_EQ(inc.firstDifference(j.replayTo(t), kBase, kSize),
                  std::nullopt)
            << "cursor image diverges from the reference replay at tick "
            << t;
        EXPECT_EQ(inc.firstDifference(j.store.snapshotAt(t), kBase,
                                      kSize),
                  std::nullopt)
            << "cursor image diverges from snapshotAt at tick " << t;
    }
}

TEST(SnapshotEngine, IdenticalRewritesMatchReferenceReplay)
{
    Journaled j(300, 23);
    // Append writes that each put back the bytes the live image holds
    // (no-ops on the live image), completing at random earlier ticks,
    // so in the snapshots they land out of order and do matter.
    sim::Rng rng(29);
    for (int i = 0; i < 300; ++i) {
        std::uint8_t buf[48];
        std::uint64_t len = 1 + rng.next() % sizeof(buf);
        Addr a = kBase + rng.next() % (kSize - sizeof(buf));
        j.store.read(a, len, buf);
        j.store.write(a, len, buf, rng.next() % (j.lastTick + 1));
    }
    ASSERT_EQ(j.store.journalSize(), 600u);

    BackingStore::Cursor cursor(j.store);
    for (Tick t = 0; t <= j.lastTick + 1; t += 1 + j.lastTick / 60) {
        BackingStore ref = j.replayTo(t);
        EXPECT_EQ(j.store.snapshotAt(t).firstDifference(ref, kBase,
                                                        kSize),
                  std::nullopt)
            << "snapshotAt diverges from the reference replay at tick "
            << t;
        EXPECT_EQ(cursor.imageAt(t).firstDifference(ref, kBase, kSize),
                  std::nullopt)
            << "cursor image diverges from the reference replay at tick "
            << t;
    }
}

TEST(SnapshotEngine, SnapshotMutationNeverLeaksIntoParentOrSiblings)
{
    Journaled j(200, 7);
    Tick mid = j.lastTick / 2;

    BackingStore sibling = j.store.snapshotAt(mid);
    BackingStore victim = j.store.snapshotAt(mid);
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
    EXPECT_EQ(sibling.firstDifference(j.replayTo(mid), kBase, kSize),
              std::nullopt)
        << "sibling snapshot observed a write to another snapshot";
    EXPECT_EQ(j.store.snapshotAt(mid).firstDifference(sibling, kBase,
                                                      kSize),
              std::nullopt)
        << "parent store observed a write to a snapshot";

    // And the reverse: mutating the parent must not change images
    // already taken (journal-base sharing included).
    std::uint64_t marker = 0xfeedfacecafebeefULL;
    BackingStore before = j.store.snapshotAt(mid);
    j.store.write64(kBase + 512, marker, j.lastTick + 10);
    EXPECT_EQ(before.firstDifference(sibling, kBase, kSize),
              std::nullopt)
        << "parent mutation leaked into an existing snapshot";
}

TEST(SnapshotEngine, InlineAndHeapJournalPayloadsRoundTrip)
{
    BackingStore bs(kBase, kSize);
    bs.enableJournal();

    // One payload of each size, the page-crossing ones straddling a
    // page boundary, each followed by 1 000 word writes so the byte
    // arena regrows after it: every payload must replay byte-exactly,
    // from its completion tick on and not before.
    const std::uint64_t sizes[] = {1, 8, 32, 33, 64, 200};
    constexpr std::size_t kPayloads = std::size(sizes);
    std::vector<std::vector<std::uint8_t>> payloads;
    std::vector<Addr> addrs;
    std::vector<Tick> ticks;
    Tick now = 0;
    for (std::size_t k = 0; k < kPayloads; ++k) {
        std::vector<std::uint8_t> p(sizes[k]);
        for (std::size_t i = 0; i < p.size(); ++i)
            p[i] = static_cast<std::uint8_t>(k * 37 + i * 3 + 1);
        addrs.push_back(kBase + 4096 * (k + 1) - 50);
        ticks.push_back(++now);
        bs.write(addrs[k], p.size(), p.data(), now);
        payloads.push_back(std::move(p));
        for (int i = 0; i < 1000; ++i)
            bs.write64(kBase + 0x10000 + 8 * i, k * 1000 + i, ++now);
    }

    std::size_t seen = 0;
    bs.forEachJournalRecord([&](const BackingStore::JournalRecord &r) {
        for (std::size_t k = 0; k < kPayloads; ++k) {
            if (r.addr != addrs[k])
                continue;
            ++seen;
            ASSERT_EQ(r.size, payloads[k].size());
            EXPECT_TRUE(std::equal(payloads[k].begin(),
                                   payloads[k].end(), r.data))
                << "journal record of the " << r.size
                << "-byte payload";
        }
    });
    EXPECT_EQ(seen, kPayloads);

    std::vector<std::uint8_t> out;
    for (std::size_t k = 0; k < kPayloads; ++k) {
        out.assign(payloads[k].size(), 0xff);
        bs.snapshotAt(ticks[k] - 1)
            .read(addrs[k], out.size(), out.data());
        EXPECT_EQ(out, std::vector<std::uint8_t>(out.size(), 0))
            << "the " << out.size() << "-byte payload before its tick";
        bs.snapshotAt(ticks[k]).read(addrs[k], out.size(), out.data());
        EXPECT_EQ(out, payloads[k])
            << "the " << out.size() << "-byte payload at its tick";
        bs.snapshotAt(now).read(addrs[k], out.size(), out.data());
        EXPECT_EQ(out, payloads[k])
            << "the " << out.size() << "-byte payload at the end";
    }
}

TEST(SnapshotEngine, IdenticalWritesAreJournaledAndReplayed)
{
    // Two writes of one value to one word, completing out of issue
    // order: the second changes no live byte, but it completes first,
    // so it alone decides the word between the two completions. The
    // same holds for zeros written over a never-written page.
    BackingStore bs(kBase, kSize);
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
