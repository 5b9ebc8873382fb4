/**
 * @file
 * Unit tests for the passive cache array: lookup, install, LRU
 * victim selection, invalidation, the fwb tag bit, the dirty-slot
 * index and the contiguous line data.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mem/cache.hh"

using namespace snf;
using namespace snf::mem;

namespace
{

CacheConfig
smallConfig()
{
    CacheConfig cfg;
    cfg.sizeBytes = 1024; // 16 lines
    cfg.ways = 4;         // 4 sets
    cfg.lineBytes = 64;
    cfg.latency = 4;
    return cfg;
}

void
installLine(Cache &c, Addr lineAddr)
{
    CacheLine *slot = c.victimFor(lineAddr);
    if (slot->valid)
        c.invalidate(slot);
    c.install(slot, lineAddr);
}

} // namespace

TEST(Cache, MissThenHit)
{
    Cache c("t", smallConfig());
    EXPECT_EQ(c.find(0x1000), nullptr);
    installLine(c, 0x1000);
    ASSERT_NE(c.find(0x1000), nullptr);
    EXPECT_EQ(c.find(0x1000)->lineAddr, 0x1000u);
}

TEST(Cache, LineOfMasksOffset)
{
    Cache c("t", smallConfig());
    EXPECT_EQ(c.lineOf(0x1234), 0x1200u);
    EXPECT_EQ(c.lineOf(0x1240), 0x1240u);
}

TEST(Cache, InstallStartsCleanAndValid)
{
    Cache c("t", smallConfig());
    installLine(c, 0x40);
    CacheLine *l = c.find(0x40);
    EXPECT_TRUE(l->valid);
    EXPECT_FALSE(l->dirty());
    EXPECT_FALSE(l->fwb());
    EXPECT_EQ(l->sharers, 0u);
}

TEST(Cache, LruVictimIsLeastRecentlyTouched)
{
    Cache c("t", smallConfig());
    // Fill one set: set index = (addr/64) % 4; use set 0.
    Addr lines[4] = {0 * 256, 1 * 256, 2 * 256, 3 * 256};
    for (Addr a : lines)
        installLine(c, a);
    // Touch all but lines[2].
    c.touch(c.find(lines[0]));
    c.touch(c.find(lines[1]));
    c.touch(c.find(lines[3]));
    CacheLine *victim = c.victimFor(4 * 256);
    EXPECT_EQ(victim->lineAddr, lines[2]);
}

TEST(Cache, VictimPrefersInvalidWay)
{
    Cache c("t", smallConfig());
    installLine(c, 0);
    installLine(c, 256);
    CacheLine *victim = c.victimFor(512);
    EXPECT_FALSE(victim->valid);
}

TEST(Cache, InvalidateClearsAllState)
{
    Cache c("t", smallConfig());
    installLine(c, 0x80);
    CacheLine *l = c.find(0x80);
    c.setDirty(l);
    c.setFwb(l);
    l->sharers = 0b101;
    c.invalidate(l);
    EXPECT_FALSE(l->valid);
    EXPECT_FALSE(l->dirty());
    EXPECT_FALSE(l->fwb());
    EXPECT_EQ(l->sharers, 0u);
    EXPECT_EQ(c.find(0x80), nullptr);
    std::size_t visited = 0;
    c.forEachDirtyLine([&](CacheLine &) { ++visited; });
    EXPECT_EQ(visited, 0u);
}

TEST(Cache, InvalidateAll)
{
    Cache c("t", smallConfig());
    for (Addr a = 0; a < 16 * 64; a += 64)
        installLine(c, a);
    c.invalidateAll();
    for (Addr a = 0; a < 16 * 64; a += 64)
        EXPECT_EQ(c.find(a), nullptr);
}

TEST(Cache, ForEachLineVisitsAllSlots)
{
    Cache c("t", smallConfig());
    std::size_t n = 0;
    c.forEachLine([&](CacheLine &) { ++n; });
    EXPECT_EQ(n, 16u);
}

TEST(Cache, SetsDoNotAlias)
{
    Cache c("t", smallConfig());
    installLine(c, 0);   // set 0
    installLine(c, 64);  // set 1
    installLine(c, 128); // set 2
    installLine(c, 192); // set 3
    EXPECT_NE(c.find(0), nullptr);
    EXPECT_NE(c.find(64), nullptr);
    EXPECT_NE(c.find(128), nullptr);
    EXPECT_NE(c.find(192), nullptr);
}

TEST(Cache, DataSizedToLine)
{
    // Each line owns exactly lineBytes() of the contiguous array:
    // filling one line end to end leaves its neighbours zero.
    Cache c("t", smallConfig());
    for (Addr a = 0; a < 3 * 64; a += 64)
        installLine(c, a);
    CacheLine *mid = c.find(64);
    std::memset(mid->data(), 0xff, c.lineBytes());
    const std::vector<std::uint8_t> zeros(c.lineBytes(), 0);
    EXPECT_EQ(std::memcmp(c.find(0)->data(), zeros.data(), zeros.size()),
              0);
    EXPECT_EQ(
        std::memcmp(c.find(128)->data(), zeros.data(), zeros.size()), 0);
    EXPECT_EQ(mid->data()[0], 0xff);
    EXPECT_EQ(mid->data()[c.lineBytes() - 1], 0xff);
}

TEST(Cache, ClearDirtyAlsoClearsFwb)
{
    Cache c("t", smallConfig());
    installLine(c, 0x40);
    CacheLine *l = c.find(0x40);
    c.setDirty(l);
    c.setFwb(l);
    EXPECT_TRUE(l->dirty());
    EXPECT_TRUE(l->fwb());
    c.clearDirty(l);
    EXPECT_FALSE(l->dirty());
    EXPECT_FALSE(l->fwb());
    EXPECT_TRUE(l->valid);
}

TEST(Cache, DirtyWalkVisitsDirtySlotsInSlotOrder)
{
    CacheConfig cfg = smallConfig();
    cfg.sizeBytes = 64 * 256; // 256 lines: four index words
    cfg.ways = 1;
    Cache c("t", cfg);
    for (Addr a = 0; a < 256 * 64; a += 64)
        installLine(c, a);
    const std::vector<Addr> dirty = {0, 63 * 64, 64 * 64, 200 * 64,
                                     255 * 64};
    for (auto it = dirty.rbegin(); it != dirty.rend(); ++it)
        c.setDirty(c.find(*it));
    std::vector<Addr> seen;
    c.forEachDirtyLine([&](CacheLine &l) { seen.push_back(l.lineAddr); });
    EXPECT_EQ(seen, dirty);
}

TEST(Cache, DirtyWalkSeesChangesAheadOfTheCursor)
{
    // Slot i holds line i × 64 (direct-mapped), so slot order is
    // address order. Visiting slot 1 dirties slot 5 in the same index
    // word and slot 70 in the next, and cleans slot 3: the walk must
    // visit 5 and 70 and skip 3, exactly like a full-array walk.
    CacheConfig cfg = smallConfig();
    cfg.sizeBytes = 64 * 128;
    cfg.ways = 1;
    Cache c("t", cfg);
    for (Addr a = 0; a < 128 * 64; a += 64)
        installLine(c, a);
    for (Addr slot : {1, 3, 63})
        c.setDirty(c.find(slot * 64));
    std::vector<Addr> seen;
    c.forEachDirtyLine([&](CacheLine &l) {
        seen.push_back(l.lineAddr / 64);
        if (l.lineAddr == 64) {
            c.setDirty(c.find(5 * 64));
            c.setDirty(c.find(70 * 64));
            c.clearDirty(c.find(3 * 64));
            c.setDirty(c.find(0)); // behind the cursor: not visited
        }
        if (l.lineAddr == 63 * 64)
            c.clearDirty(&l); // cleaning the current line is fine
    });
    EXPECT_EQ(seen, (std::vector<Addr>{1, 5, 63, 70}));
}
