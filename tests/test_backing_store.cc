/**
 * @file
 * Unit tests for the sparse backing store and its crash journal.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <tuple>
#include <vector>

#include "mem/backing_store.hh"
#include "sim/rng.hh"

using namespace snf;
using namespace snf::mem;

TEST(BackingStore, ZeroFilledByDefault)
{
    BackingStore bs(0x1000, 1 << 20);
    std::uint8_t buf[16] = {0xff};
    bs.read(0x2000, sizeof(buf), buf);
    for (auto b : buf)
        EXPECT_EQ(b, 0);
}

TEST(BackingStore, ReadBackWrites)
{
    BackingStore bs(0, 1 << 20);
    const char msg[] = "hello, nvram";
    bs.write(123, sizeof(msg), msg);
    char out[sizeof(msg)] = {};
    bs.read(123, sizeof(msg), out);
    EXPECT_STREQ(out, msg);
}

TEST(BackingStore, CrossPageAccess)
{
    BackingStore bs(0, 1 << 20);
    std::vector<std::uint8_t> data(10000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7);
    bs.write(4000, data.size(), data.data()); // spans 3+ pages
    std::vector<std::uint8_t> out(data.size());
    bs.read(4000, out.size(), out.data());
    EXPECT_EQ(out, data);
}

TEST(BackingStore, Read64Write64)
{
    BackingStore bs(0x100000000ULL, 1 << 20);
    bs.write64(0x100000040ULL, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(bs.read64(0x100000040ULL), 0xdeadbeefcafef00dULL);
}

TEST(BackingStore, ContainsChecksBounds)
{
    BackingStore bs(0x1000, 0x1000);
    EXPECT_TRUE(bs.contains(0x1000, 1));
    EXPECT_TRUE(bs.contains(0x1fff, 1));
    EXPECT_FALSE(bs.contains(0x1fff, 2));
    EXPECT_FALSE(bs.contains(0xfff, 1));
}

TEST(BackingStoreJournal, SnapshotExcludesLaterWrites)
{
    BackingStore bs(0, 1 << 20);
    bs.write64(0, 1, 0);
    bs.enableJournal();
    bs.write64(8, 2, 100);
    bs.write64(16, 3, 200);
    bs.write64(8, 4, 300); // overwrites the tick-100 value

    BackingStore snap = bs.snapshotAt(250);
    EXPECT_EQ(snap.read64(0), 1u);  // pre-journal base
    EXPECT_EQ(snap.read64(8), 2u);  // tick-100 write visible
    EXPECT_EQ(snap.read64(16), 3u); // tick-200 write visible
    EXPECT_EQ(bs.read64(8), 4u);    // live store has the newest
}

TEST(BackingStoreJournal, SnapshotAtZeroIsBaseImage)
{
    BackingStore bs(0, 1 << 20);
    bs.write64(0, 42, 0);
    bs.enableJournal();
    bs.write64(0, 43, 10);
    BackingStore snap = bs.snapshotAt(5);
    EXPECT_EQ(snap.read64(0), 42u);
}

TEST(BackingStoreJournal, OrderedReplayOfSameAddress)
{
    BackingStore bs(0, 1 << 20);
    bs.enableJournal();
    for (std::uint64_t t = 1; t <= 10; ++t)
        bs.write64(64, t, t * 10);
    for (std::uint64_t t = 1; t <= 10; ++t)
        EXPECT_EQ(bs.snapshotAt(t * 10).read64(64), t);
}

TEST(BackingStoreJournal, JournalSizeCounts)
{
    BackingStore bs(0, 1 << 20);
    bs.enableJournal();
    EXPECT_EQ(bs.journalSize(), 0u);
    bs.write64(0, 1, 1);
    bs.write64(8, 2, 2);
    EXPECT_EQ(bs.journalSize(), 2u);
}

TEST(BackingStoreJournal, OutOfOrderCompletionReplaysByDoneTick)
{
    // Writes can complete out of issue order (bank conflicts, read
    // priority). The device ends up holding the value of the
    // *latest-completing* write, so a snapshot must replay by
    // completion tick, not journal insertion order.
    BackingStore bs(0, 1 << 20);
    bs.enableJournal();
    bs.write64(128, 0xAA, 50); // issued first, completes last
    bs.write64(128, 0xBB, 20); // issued second, completes first
    EXPECT_EQ(bs.snapshotAt(10).read64(128), 0u);
    EXPECT_EQ(bs.snapshotAt(20).read64(128), 0xBBu);
    EXPECT_EQ(bs.snapshotAt(50).read64(128), 0xAAu);
    EXPECT_EQ(bs.snapshotAt(1000).read64(128), 0xAAu);
}

TEST(BackingStore, FirstDifferenceFindsLowestMismatch)
{
    BackingStore a(0, 1 << 20);
    BackingStore b(0, 1 << 20);
    EXPECT_FALSE(a.firstDifference(b, 0, 1 << 20).has_value());

    // A page present in one store but all-zero matches an absent one.
    // (Zeros written over an absent page are a no-op, so make the
    // page resident with a nonzero word first.)
    std::uint64_t avail = 0;
    a.write64(4096, 1, 0);
    a.write64(4096, 0, 0);
    ASSERT_NE(a.pageAt(4096, &avail), nullptr);
    ASSERT_EQ(b.pageAt(4096, &avail), nullptr);
    EXPECT_FALSE(a.firstDifference(b, 0, 1 << 20).has_value());
    EXPECT_FALSE(b.firstDifference(a, 0, 1 << 20).has_value());

    b.write64(8192 + 16, 7, 0);
    a.write64(65536, 9, 0);
    auto diff = a.firstDifference(b, 0, 1 << 20);
    ASSERT_TRUE(diff.has_value());
    EXPECT_EQ(*diff, 8192u + 16u);

    // Range can exclude the mismatch.
    EXPECT_FALSE(a.firstDifference(b, 0, 8192).has_value());
    auto d2 = a.firstDifference(b, 16384, (1 << 20) - 16384);
    ASSERT_TRUE(d2.has_value());
    EXPECT_EQ(*d2, 65536u);
}

namespace
{

constexpr std::uint64_t kPage = 4096;
/** Pages per page-table leaf (2 MB of address space). */
constexpr std::uint64_t kLeafPages = 512;
constexpr std::uint64_t kLeafBytes = kLeafPages * kPage;

void
writeByte(BackingStore &bs, Addr a, std::uint8_t v)
{
    bs.write(a, 1, &v);
}

} // namespace

TEST(BackingStore, FirstDifferenceInAPagesLastByte)
{
    BackingStore a(0, 1 << 20);
    BackingStore b(0, 1 << 20);
    // Present in one store only.
    writeByte(a, 3 * kPage + kPage - 1, 0x5a);
    EXPECT_EQ(a.firstDifference(b, 0, 1 << 20), 3 * kPage + kPage - 1);
    EXPECT_EQ(b.firstDifference(a, 0, 1 << 20), 3 * kPage + kPage - 1);
    // Present in both, equal everywhere but the last byte.
    writeByte(a, 7 * kPage, 1);
    writeByte(b, 7 * kPage, 1);
    writeByte(b, 3 * kPage + kPage - 1, 0x5a);
    writeByte(a, 7 * kPage + kPage - 1, 2);
    writeByte(b, 7 * kPage + kPage - 1, 3);
    EXPECT_EQ(a.firstDifference(b, 0, 1 << 20), 7 * kPage + kPage - 1);
    // A range ending just before that byte sees no difference.
    EXPECT_FALSE(a.firstDifference(b, 0, 8 * kPage - 1).has_value());
}

TEST(BackingStore, FirstDifferenceRangeStartsAndEndsMidPage)
{
    BackingStore a(0, 1 << 20);
    BackingStore b(0, 1 << 20);
    for (Addr off : {Addr{100}, Addr{4200}, Addr{8300}})
        writeByte(a, off, 0xee);

    // [150, 4150): mid page 0 to mid page 1, every mismatch outside.
    EXPECT_FALSE(a.firstDifference(b, 150, 4000).has_value());
    // [150, 4250) reaches the mismatch at 4200.
    EXPECT_EQ(a.firstDifference(b, 150, 4100), 4200u);
    // [4201, 8300): the end is exclusive, so 8300 is outside.
    EXPECT_FALSE(a.firstDifference(b, 4201, 8300 - 4201).has_value());
    EXPECT_EQ(a.firstDifference(b, 4201, 8301 - 4201), 8300u);
    // A one-byte range exactly on a mismatch, and an empty range.
    EXPECT_EQ(a.firstDifference(b, 4200, 1), 4200u);
    EXPECT_FALSE(a.firstDifference(b, 4200, 0).has_value());
}

TEST(BackingStore, FirstDifferenceAcrossALeafBoundary)
{
    const std::uint64_t size = 4 * kLeafBytes;
    BackingStore a(0x100000000ULL, size);
    BackingStore b(0x100000000ULL, size);
    const Addr base = a.base();
    const Addr page511 = base + 511 * kPage;
    const Addr page512 = base + 512 * kPage; // first page of leaf 1

    // Present in both stores, identical, on each side of the boundary.
    a.write64(page511 + 8, 7);
    b.write64(page511 + 8, 7);
    writeByte(a, page512 + 5, 9);
    EXPECT_EQ(a.firstDifference(b, base, size), page512 + 5);
    // A range ending at the boundary excludes leaf 1.
    EXPECT_FALSE(a.firstDifference(b, base, 512 * kPage).has_value());
    // A range straddling the boundary, starting mid-page 511.
    EXPECT_EQ(a.firstDifference(b, page511 + 100, kPage), page512 + 5);

    // A difference in the last byte of leaf 0 wins over leaf 1.
    writeByte(b, page512 - 1, 1);
    EXPECT_EQ(a.firstDifference(b, base, size), page512 - 1);
    EXPECT_EQ(b.firstDifference(a, page511, 2 * kPage), page512 - 1);
}

TEST(BackingStore, CowSiblingsDivergingInOneLeafShareTheRest)
{
    const std::uint64_t size = 4 * kLeafBytes;
    BackingStore parent(0, size);
    for (std::uint64_t leaf = 0; leaf < 3; ++leaf)
        parent.write64(leaf * kLeafBytes + 64, leaf + 1);
    BackingStore x = parent;
    BackingStore y = parent;
    ASSERT_FALSE(x.firstDifference(y, 0, size).has_value());

    const Addr hit = kLeafBytes + 17 * kPage + 40; // leaf 1 only
    x.write64(hit, 0xabcdefULL);
    EXPECT_EQ(x.firstDifference(y, 0, size), hit);
    EXPECT_EQ(y.firstDifference(x, 0, size), hit);
    EXPECT_FALSE(y.firstDifference(parent, 0, size).has_value());

    // The untouched leaves' pages are still the parent's.
    std::uint64_t ax = 0, ay = 0;
    for (std::uint64_t leaf : {0ULL, 2ULL})
        EXPECT_EQ(x.pageAt(leaf * kLeafBytes + 64, &ax),
                  y.pageAt(leaf * kLeafBytes + 64, &ay));
    EXPECT_NE(x.pageAt(hit, &ax), y.pageAt(hit, &ay));
    EXPECT_EQ(parent.read64(hit), 0u);
}

TEST(BackingStore, IdenticalWriteToSharedPageClonesNothing)
{
    BackingStore parent(0, 1 << 22);
    parent.write64(64, 0xabcULL);
    // Words either side of the page 1 / page 2 boundary.
    parent.write64(2 * kPage - 8, 0x1122334455667788ULL);
    parent.write64(2 * kPage, 0x99aabbccddeeff00ULL);
    BackingStore child = parent;
    const std::uint64_t cloned = child.pagesCloned();

    child.write64(64, 0xabcULL);  // same bytes as the shared page
    child.write64(5 * kPage, 0);  // zeros over an absent page
    std::uint8_t run[16];
    child.read(56, sizeof(run), run); // write bytes 56..71 back as-is
    child.write(56, sizeof(run), run);
    // An 8-byte write straddling the boundary, both halves unchanged.
    std::uint8_t word[8];
    child.read(2 * kPage - 4, sizeof(word), word);
    child.write(2 * kPage - 4, sizeof(word), word);
    EXPECT_EQ(child.pagesCloned(), cloned);
    std::uint64_t ac = 0, ap = 0;
    EXPECT_EQ(child.pageAt(64, &ac), parent.pageAt(64, &ap));
    EXPECT_EQ(child.pageAt(kPage, &ac), parent.pageAt(kPage, &ap));
    EXPECT_EQ(child.pageAt(2 * kPage, &ac), parent.pageAt(2 * kPage, &ap));
    EXPECT_EQ(child.pageAt(5 * kPage, &ac), nullptr);

    // One changed byte clones the page, and only in the child.
    child.write64(64, 0xabdULL);
    EXPECT_EQ(child.pagesCloned(), cloned + 1);
    EXPECT_NE(child.pageAt(64, &ac), parent.pageAt(64, &ap));
    EXPECT_EQ(parent.read64(64), 0xabcULL);
    EXPECT_EQ(child.read64(64), 0xabdULL);

    // Changing only the straddling write's page-2 half clones page 2
    // alone; page 1 stays shared.
    word[6] ^= 0xff;
    child.write(2 * kPage - 4, sizeof(word), word);
    EXPECT_EQ(child.pagesCloned(), cloned + 2);
    EXPECT_EQ(child.pageAt(kPage, &ac), parent.pageAt(kPage, &ap));
    EXPECT_NE(child.pageAt(2 * kPage, &ac), parent.pageAt(2 * kPage, &ap));
    EXPECT_EQ(parent.read64(2 * kPage), 0x99aabbccddeeff00ULL);
    EXPECT_EQ(child.read64(2 * kPage), 0x99aabbccddeeff00ULL ^ 0xff0000ULL);
}

TEST(BackingStore, WriteIntoSharedLeafLeavesParentByteIdentical)
{
    const std::uint64_t size = 4 * kLeafBytes;
    BackingStore parent(0, size);
    std::vector<std::uint8_t> fill(6 * kPage);
    for (std::size_t i = 0; i < fill.size(); ++i)
        fill[i] = static_cast<std::uint8_t>(i * 13 + 1);
    const Addr start = kLeafBytes - 3 * kPage; // pages 509..514
    parent.write(start, fill.size(), fill.data());
    const BackingStore pristine = parent;

    // A child write straddling the leaf 0 / leaf 1 boundary, plus one
    // into a page of leaf 1 the parent never wrote.
    BackingStore child = parent;
    std::vector<std::uint8_t> patch(2 * kPage, 0x77);
    child.write(kLeafBytes - kPage, patch.size(), patch.data());
    child.write64(kLeafBytes + 100 * kPage, 5);

    std::vector<std::uint8_t> out(fill.size());
    parent.read(start, out.size(), out.data());
    EXPECT_EQ(out, fill);
    EXPECT_FALSE(parent.firstDifference(pristine, 0, size).has_value());
    EXPECT_EQ(parent.read64(kLeafBytes + 100 * kPage), 0u);
    EXPECT_EQ(parent.firstDifference(child, 0, size),
              kLeafBytes - kPage);
    child.read(kLeafBytes - kPage, patch.size(), out.data());
    EXPECT_TRUE(std::equal(patch.begin(), patch.end(), out.begin()));

    // And the reverse: the parent's writes stay out of the child.
    parent.write64(kLeafBytes + 8, 0xfeedULL);
    EXPECT_EQ(child.read64(kLeafBytes + 8), 0x7777777777777777ULL);
}

TEST(BackingStore, NvramSizedStoreLastPageSurvivesWriteAndCopy)
{
    const Addr base = 0x100000000ULL;
    const std::uint64_t size = 8ULL << 30; // the default NVRAM range
    BackingStore bs(base, size);
    const Addr last = base + size - 8;
    bs.write64(last, 0x1122334455667788ULL);
    EXPECT_EQ(bs.read64(last), 0x1122334455667788ULL);
    std::uint64_t avail = 0;
    ASSERT_NE(bs.pageAt(last, &avail), nullptr);
    EXPECT_EQ(avail, 8u);

    BackingStore copy = bs;
    EXPECT_EQ(copy.read64(last), 0x1122334455667788ULL);
    EXPECT_FALSE(copy.firstDifference(bs, base, size).has_value());
    copy.write64(last, 1);
    EXPECT_EQ(bs.read64(last), 0x1122334455667788ULL);
    EXPECT_EQ(copy.firstDifference(bs, base, size), last);
}

// --------------- batch operations against a loop of write() -----------

namespace
{

/** The batch tests touch pages [kFirstPage, kFirstPage + kSpanPages),
 *  which straddle the leaf 0 / leaf 1 boundary. */
constexpr std::uint64_t kFirstPage = kLeafPages - 12;
constexpr std::uint64_t kSpanPages = 24;
constexpr std::uint64_t kStoreBytes = 2 * kLeafBytes;

/**
 * A seeded image over those pages: some absent, some resident and
 * all zero, the rest random bytes. Two calls with one seed give equal
 * stores that share no page.
 */
BackingStore
seededImage(std::uint64_t seed)
{
    BackingStore bs(0, kStoreBytes);
    sim::Rng rng(seed);
    std::vector<std::uint8_t> bytes(kPage);
    for (std::uint64_t p = kFirstPage; p < kFirstPage + kSpanPages; ++p) {
        switch (rng.below(4)) {
          case 0: // absent
            break;
          case 1: // resident, all zero
            writeByte(bs, p * kPage, 1);
            writeByte(bs, p * kPage, 0);
            break;
          default:
            for (auto &b : bytes)
                b = rng.chance(0.5) ? 0
                                    : static_cast<std::uint8_t>(rng.next());
            bs.write(p * kPage, kPage, bytes.data());
            break;
        }
    }
    return bs;
}

/**
 * @p n words over the seeded pages: sizes 1 to 8, runs on one page,
 * words straddling a page end (often as the first change of a run,
 * followed by a word putting back the bytes it changed on its first
 * page, which must compare against the straddle's result), repeated
 * addresses, values the image already holds, zeros, and bytes above a
 * word's size left random (write() ignores them, so the batch must
 * too).
 */
std::vector<BackingStore::Word>
seededWords(sim::Rng &rng, std::size_t n, const BackingStore &img)
{
    std::vector<BackingStore::Word> words;
    std::uint64_t page = kFirstPage;
    for (std::size_t i = 0; i < n; ++i) {
        BackingStore::Word w{};
        if (!words.empty() && rng.chance(0.15)) {
            w = words[rng.below(words.size())];
        } else {
            w.size = static_cast<std::uint32_t>(1 + rng.below(8));
            if (rng.chance(0.3))
                page = kFirstPage + rng.below(kSpanPages);
            std::uint64_t in = rng.below(kPage - w.size + 1);
            if (w.size > 1 && rng.chance(0.1))
                in = kPage - 1 - rng.below(w.size - 1); // straddles
            w.addr = page * kPage + in;
        }
        w.value = rng.next();
        if (rng.chance(0.2))
            img.read(w.addr, w.size, &w.value); // likely a no-op
        else if (rng.chance(0.1))
            w.value = 0;
        const bool bracket =
            w.addr % kPage + w.size > kPage && rng.chance(0.5);
        if (bracket) {
            // Open the run with a word that likely changes nothing, so
            // the straddle is the run's first change.
            BackingStore::Word noop{w.addr - w.addr % kPage, 0, 8};
            img.read(noop.addr, noop.size, &noop.value);
            words.push_back(noop);
        }
        words.push_back(w);
        if (bracket) {
            // Put back the straddle's first-page bytes.
            w.size = static_cast<std::uint32_t>(kPage - w.addr % kPage);
            img.read(w.addr, w.size, &w.value);
            words.push_back(w);
        }
    }
    return words;
}

/** One journal record with its payload, comparable. */
using JournalRow = std::tuple<Tick, Tick, Addr, std::uint32_t, int,
                              std::uint32_t, std::vector<std::uint8_t>>;

std::vector<JournalRow>
journalRows(const BackingStore &bs)
{
    std::vector<JournalRow> rows;
    bs.forEachJournalRecord([&rows](const BackingStore::JournalRecord &r) {
        rows.emplace_back(r.issue, r.done, r.addr, r.size,
                          static_cast<int>(r.origin), r.seq,
                          std::vector<std::uint8_t>(r.data,
                                                    r.data + r.size));
    });
    return rows;
}

} // namespace

TEST(BackingStoreBatch, WriteWordsMatchesAWriteLoop)
{
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        SCOPED_TRACE(seed);
        sim::Rng rng(seed * 7919);
        const BackingStore pristine = seededImage(seed);
        const BackingStore parent = seededImage(seed);
        const BackingStore sibling = parent; // shares every leaf and page
        const std::size_t n =
            seed % 3 == 0 ? rng.below(9) : 1 + rng.below(800);
        const auto words = seededWords(rng, n, parent);

        BackingStore batched = parent;
        BackingStore looped = parent;
        batched.writeWords(words);
        for (const auto &w : words)
            looped.write(w.addr, w.size, &w.value);

        EXPECT_EQ(batched.firstDifference(looped, 0, kStoreBytes),
                  std::nullopt);
        // Each page unshared once, at its first changed byte.
        EXPECT_EQ(batched.pagesCloned(), looped.pagesCloned());
        EXPECT_EQ(sibling.firstDifference(pristine, 0, kStoreBytes),
                  std::nullopt);
        EXPECT_EQ(parent.firstDifference(pristine, 0, kStoreBytes),
                  std::nullopt);
    }
}

TEST(BackingStoreBatch, ZeroRangeMatchesWritingZerosAndDropsWholePages)
{
    const Addr spanLo = kFirstPage * kPage;
    const Addr spanHi = (kFirstPage + kSpanPages) * kPage;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        SCOPED_TRACE(seed);
        sim::Rng rng(seed * 104729);
        const BackingStore pristine = seededImage(seed);
        const BackingStore parent = seededImage(seed);
        const BackingStore sibling = parent;
        Addr lo = spanLo + rng.below(spanHi - spanLo);
        Addr hi = lo + 1 + rng.below(spanHi - lo);
        const bool wholePages = seed % 3 == 0;
        if (wholePages) {
            lo -= lo % kPage;
            hi += (kPage - hi % kPage) % kPage;
        }

        BackingStore zeroed = parent;
        BackingStore looped = parent;
        zeroed.zeroRange(lo, hi - lo);
        const std::vector<std::uint8_t> zeros(hi - lo);
        looped.write(lo, hi - lo, zeros.data());

        EXPECT_EQ(zeroed.firstDifference(looped, 0, kStoreBytes),
                  std::nullopt);
        EXPECT_LE(zeroed.pagesCloned(), looped.pagesCloned());
        if (wholePages) {
            EXPECT_EQ(zeroed.pagesCloned(), parent.pagesCloned());
        }
        for (Addr p = lo - lo % kPage; p < hi; p += kPage) {
            std::uint64_t avail = 0;
            const bool whole = p >= lo && p + kPage <= hi;
            if (whole || parent.pageAt(p, &avail) == nullptr) {
                EXPECT_EQ(zeroed.pageAt(p, &avail), nullptr)
                    << "page at 0x" << std::hex << p;
            }
        }
        // The sibling sharing the leaves keeps every page it had.
        for (Addr p = spanLo; p < spanHi; p += kPage) {
            std::uint64_t a = 0, b = 0;
            EXPECT_EQ(sibling.pageAt(p, &a), parent.pageAt(p, &b));
        }
        EXPECT_EQ(sibling.firstDifference(pristine, 0, kStoreBytes),
                  std::nullopt);
        EXPECT_EQ(parent.firstDifference(pristine, 0, kStoreBytes),
                  std::nullopt);
    }
}

TEST(BackingStoreBatch, JournaledStoreJournalsWhatWriteJournals)
{
    BackingStore batched = seededImage(5);
    BackingStore looped = seededImage(5);
    batched.enableJournal();
    looped.enableJournal();
    sim::Rng rng(17);
    const std::uint64_t v = 0x0123456789abcdefULL;
    const Addr lo = (kFirstPage + 2) * kPage + 100;
    const std::uint64_t n = 5 * kPage;
    for (int round = 0; round < 3; ++round) {
        for (BackingStore *bs : {&batched, &looped})
            bs->write(lo + 8 * round, 8, &v, 10 + round, 5 + round,
                      PersistOrigin::Data);
        const auto words = seededWords(rng, 200, batched);
        batched.writeWords(words);
        for (const auto &w : words)
            looped.write(w.addr, w.size, &w.value);
        batched.zeroRange(lo + round * kPage, n);
        const std::vector<std::uint8_t> zeros(n);
        looped.write(lo + round * kPage, n, zeros.data());
    }

    EXPECT_EQ(journalRows(batched), journalRows(looped));
    EXPECT_EQ(batched.firstDifference(looped, 0, kStoreBytes),
              std::nullopt);
    for (Tick t : {Tick{0}, Tick{10}, Tick{11}, Tick{100}})
        EXPECT_EQ(batched.snapshotAt(t).firstDifference(
                      looped.snapshotAt(t), 0, kStoreBytes),
                  std::nullopt)
            << "tick " << t;
    // Nothing is released from a journaled store: the pages the zeroed
    // ranges covered whole stay resident, as write() leaves them.
    std::uint64_t a = 0, b = 0;
    for (Addr p = lo - lo % kPage + kPage; p + kPage <= lo + n; p += kPage)
        EXPECT_EQ(batched.pageAt(p, &a) != nullptr,
                  looped.pageAt(p, &b) != nullptr);
}
