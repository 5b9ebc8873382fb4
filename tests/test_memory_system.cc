/**
 * @file
 * Unit tests for the memory-system protocol layer: hierarchy fills,
 * write-allocate, coherence between private L1s, clwb, the FWB scan
 * state machine, eviction write-backs, and the persistent-store hook,
 * plus a seeded differential of the dirty-line walk and the in-L2
 * sharer directory against full-array reference walks.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/memory_system.hh"
#include "sim/rng.hh"

using namespace snf;
using namespace snf::mem;

namespace
{

SystemConfig
cfg4()
{
    return SystemConfig::scaled(4);
}

struct RecordingHook : PersistentStoreHook
{
    struct Event
    {
        CoreId core;
        std::uint64_t txSeq;
        Addr addr;
        std::uint64_t oldVal;
        std::uint64_t newVal;
    };

    std::vector<Event> events;

    Tick
    onPersistentStore(CoreId core, std::uint64_t txSeq, Addr addr,
                      std::uint32_t, std::uint64_t oldVal,
                      std::uint64_t newVal, Tick now) override
    {
        events.push_back({core, txSeq, addr, oldVal, newVal});
        return now;
    }
};

} // namespace

class MemorySystemTest : public ::testing::Test
{
  protected:
    MemorySystemTest() : ms(cfg4()), nv(ms.config().map.nvramBase) {}

    MemorySystem ms;
    Addr nv; ///< first NVRAM address (log base; fine for raw tests)
};

TEST_F(MemorySystemTest, StoreThenLoadRoundTrip)
{
    std::uint64_t v = 0xabcdef;
    ms.store(0, nv + 8, 8, &v, 0);
    std::uint64_t out = 0;
    auto r = ms.load(0, nv + 8, 8, &out, 100);
    EXPECT_EQ(out, v);
    EXPECT_EQ(r.level, HitLevel::L1);
}

TEST_F(MemorySystemTest, FirstAccessMissesToMemory)
{
    std::uint64_t out = 0;
    auto r = ms.load(0, nv + 4096, 8, &out, 0);
    EXPECT_EQ(r.level, HitLevel::Memory);
    EXPECT_GT(r.done, 200u); // paid the NVRAM conflict read
}

TEST_F(MemorySystemTest, SecondCoreHitsInL2)
{
    std::uint64_t v = 5;
    ms.store(0, nv + 4096, 8, &v, 0);
    // Evict nothing; core 1 misses L1 but the line sits in L2.
    std::uint64_t out = 0;
    // Write-back of core 0's dirty copy happens via cache-to-cache.
    auto r = ms.load(1, nv + 4096, 8, &out, 1000);
    EXPECT_EQ(out, 5u);
    EXPECT_EQ(r.level, HitLevel::L2);
}

TEST_F(MemorySystemTest, DirtyCopyMigratesBetweenCores)
{
    std::uint64_t v = 7;
    ms.store(0, nv + 8192, 8, &v, 0);
    std::uint64_t out = 0;
    ms.load(1, nv + 8192, 8, &out, 100);
    EXPECT_EQ(out, 7u);
    // Now core 1 stores: core 0's copy must be invalidated.
    std::uint64_t v2 = 9;
    ms.store(1, nv + 8192, 8, &v2, 200);
    ms.load(0, nv + 8192, 8, &out, 300);
    EXPECT_EQ(out, 9u);
}

TEST_F(MemorySystemTest, StoreExclusivityNoTwoDirtyCopies)
{
    std::uint64_t v = 1;
    ms.store(0, nv + 256, 8, &v, 0);
    v = 2;
    ms.store(1, nv + 256, 8, &v, 100);
    v = 3;
    ms.store(0, nv + 256, 8, &v, 200); // would assert on 2 dirty
    std::uint64_t out = 0;
    ms.load(3, nv + 256, 8, &out, 300);
    EXPECT_EQ(out, 3u);
}

TEST_F(MemorySystemTest, ClwbPersistsDirtyLine)
{
    std::uint64_t v = 0x77;
    Addr a = nv + 16384;
    ms.store(0, a, 8, &v, 0);
    EXPECT_TRUE(ms.isLineDirtyAnywhere(a));
    Tick done = ms.clwb(0, a, 100);
    EXPECT_GT(done, 100u);
    EXPECT_FALSE(ms.isLineDirtyAnywhere(a));
    // The device now has the data.
    std::uint64_t out = 0;
    ms.nvram().functionalRead(a, 8, &out);
    EXPECT_EQ(out, 0x77u);
}

TEST_F(MemorySystemTest, ClwbKeepsLineValid)
{
    std::uint64_t v = 3;
    Addr a = nv + 16384;
    ms.store(0, a, 8, &v, 0);
    ms.clwb(0, a, 100);
    std::uint64_t out = 0;
    auto r = ms.load(0, a, 8, &out, 200);
    EXPECT_EQ(r.level, HitLevel::L1);
    EXPECT_EQ(out, 3u);
}

TEST_F(MemorySystemTest, ClwbOnCleanLineIsCheap)
{
    std::uint64_t out = 0;
    Addr a = nv + 32768;
    ms.load(0, a, 8, &out, 0);
    Tick done = ms.clwb(0, a, 1000);
    EXPECT_LT(done, 1100u); // no device write needed
}

TEST_F(MemorySystemTest, ClwbWaitsForTheLinesWritebackInFlight)
{
    // Core 0's clwb finds core 1's store dirty in core 1's L1 and
    // writes it back. Core 1's own clwb, issued before that write-back
    // completes, finds the line clean; its store is durable only once
    // the write-back lands, so a fence after it must wait that long.
    std::uint64_t v = 1;
    Addr a = nv + 16384;
    ms.store(0, a, 8, &v, 0);
    v = 2;
    ms.store(1, a, 8, &v, 100);
    const Tick first = ms.clwb(0, a, 200);
    const Tick second_at = 210;
    ASSERT_GT(first, second_at + ms.l2Cache().latency());
    EXPECT_GE(ms.clwb(1, a, second_at), first);
}

TEST_F(MemorySystemTest, FwbScanFlagsThenWritesBack)
{
    std::uint64_t v = 0x1234;
    Addr a = nv + 65536;
    ms.store(0, a, 8, &v, 0);

    auto s1 = ms.fwbScanAll(1000, 0.0);
    EXPECT_GE(s1.linesFlagged, 1u);
    EXPECT_TRUE(ms.isLineDirtyAnywhere(a)); // only flagged so far

    auto s2 = ms.fwbScanAll(2000, 0.0);
    EXPECT_GE(s2.linesWrittenBack, 1u);
    // After L1 FWB the line is dirty in L2; two more scans push it
    // to NVRAM.
    ms.fwbScanAll(3000, 0.0);
    ms.fwbScanAll(4000, 0.0);
    EXPECT_FALSE(ms.isLineDirtyAnywhere(a));
    std::uint64_t out = 0;
    ms.nvram().functionalRead(a, 8, &out);
    EXPECT_EQ(out, 0x1234u);
}

TEST_F(MemorySystemTest, FwbScanDrainsItsBatchInAddressOrder)
{
    // Two NVRAM rows 32 KB apart: the same bank (rows 16 apart) and
    // the same L2 sets (512 sets of 64 B), so the tag walk meets
    // A0 B0 A1 B1 ... and every write would close the other's row.
    constexpr int kLines = 8;
    const Addr rowA = nv + (1u << 20);
    const Addr rowB = rowA + 32 * 1024;
    for (Addr row : {rowA, rowB}) {
        for (int i = 0; i < kLines; ++i) {
            std::uint64_t v = row + i;
            ms.store(0, row + 64 * i, 8, &v, 0);
        }
    }
    ms.fwbScanAll(1000, 0.0); // flag the L1 lines
    ms.fwbScanAll(2000, 0.0); // move them into the L2, flag them there
    const FwbScanResult s = ms.fwbScanAll(3000, 0.0);
    EXPECT_EQ(s.linesWrittenBack, 2u * kLines);
    EXPECT_EQ(ms.nvram().dataWrites.value(), 2u * kLines);
    // In address order only each row's first write misses: the fills
    // left row B open, so A0 and B0 conflict and the rest hit.
    EXPECT_EQ(ms.nvram().dataRowHits.value(), 2u * kLines - 2);
    Tick prev = 0;
    for (Addr row : {rowA, rowB}) {
        for (int i = 0; i < kLines; ++i) {
            const Tick done = ms.monitor().lastWritebackOf(row + 64 * i);
            EXPECT_GT(done, prev) << "line " << i;
            prev = done;
            EXPECT_FALSE(ms.isLineDirtyAnywhere(row + 64 * i));
        }
    }
    EXPECT_EQ(s.lastWritebackDone, prev);
}

TEST_F(MemorySystemTest, FwbIgnoresDramLines)
{
    std::uint64_t v = 9;
    Addr d = ms.config().map.dramBase + 4096;
    ms.store(0, d, 8, &v, 0);
    for (int i = 0; i < 4; ++i)
        ms.fwbScanAll(1000 * (i + 1), 0.0);
    // DRAM line is still dirty: FWB only guards NVRAM data.
    EXPECT_TRUE(ms.isLineDirtyAnywhere(d));
}

TEST_F(MemorySystemTest, FwbScanChargesPortBusyTime)
{
    ms.fwbScanAll(100, 1.0);
    EXPECT_GT(ms.l1(0).busyUntil, 100u);
    EXPECT_GT(ms.l2Cache().busyUntil, 100u);
}

TEST_F(MemorySystemTest, WriteAllocatePreservesNeighbours)
{
    // Preload the full line in NVRAM, store one word, check the
    // neighbouring bytes survived the write-allocate.
    Addr line = nv + 131072;
    std::uint64_t a = 0x1111, b = 0x2222;
    ms.nvram().functionalWrite(line, 8, &a);
    ms.nvram().functionalWrite(line + 8, 8, &b);
    std::uint64_t v = 0x3333;
    ms.store(0, line, 8, &v, 0);
    std::uint64_t out = 0;
    ms.load(0, line + 8, 8, &out, 100);
    EXPECT_EQ(out, 0x2222u);
}

TEST_F(MemorySystemTest, HookSeesOldAndNewValues)
{
    RecordingHook hook;
    ms.setStoreHook(&hook);
    Addr a = nv + 262144;
    std::uint64_t init = 10;
    ms.nvram().functionalWrite(a, 8, &init);

    MemorySystem::StoreCtx ctx;
    ctx.persistent = true;
    ctx.txSeq = 77;
    std::uint64_t v = 20;
    ms.store(2, a, 8, &v, 0, ctx);

    ASSERT_EQ(hook.events.size(), 1u);
    EXPECT_EQ(hook.events[0].core, 2u);
    EXPECT_EQ(hook.events[0].txSeq, 77u);
    EXPECT_EQ(hook.events[0].oldVal, 10u);
    EXPECT_EQ(hook.events[0].newVal, 20u);
}

TEST_F(MemorySystemTest, HookSkipsNonPersistentAndDram)
{
    RecordingHook hook;
    ms.setStoreHook(&hook);
    std::uint64_t v = 1;
    ms.store(0, nv + 512, 8, &v, 0); // non-persistent ctx
    MemorySystem::StoreCtx ctx;
    ctx.persistent = true;
    ctx.txSeq = 1;
    ms.store(0, ms.config().map.dramBase + 64, 8, &v, 0, ctx);
    EXPECT_TRUE(hook.events.empty());
}

TEST_F(MemorySystemTest, InvalidateAllModelsCrash)
{
    std::uint64_t v = 123;
    Addr a = nv + 524288;
    ms.store(0, a, 8, &v, 0);
    ms.invalidateAllCaches();
    EXPECT_FALSE(ms.isLineDirtyAnywhere(a));
    // The store never reached NVRAM: the device still reads zero.
    std::uint64_t out = 99;
    ms.nvram().functionalRead(a, 8, &out);
    EXPECT_EQ(out, 0u);
}

TEST_F(MemorySystemTest, FlushAllDirtyPersistsEverything)
{
    std::vector<Addr> addrs;
    for (int i = 0; i < 50; ++i)
        addrs.push_back(nv + 1048576 + 64 * i);
    std::uint64_t v = 0;
    for (Addr a : addrs) {
        ++v;
        ms.store(0, a, 8, &v, 0);
    }
    ms.flushAllDirty(10000);
    v = 0;
    for (Addr a : addrs) {
        std::uint64_t out = 0;
        ms.nvram().functionalRead(a, 8, &out);
        EXPECT_EQ(out, ++v);
    }
}

TEST_F(MemorySystemTest, EvictionWritesBackThroughHierarchy)
{
    // Stream enough lines through one L1 set to force evictions all
    // the way out, then check data integrity via another core.
    SystemConfig c = cfg4();
    std::uint64_t stride =
        c.l1.numSets() * c.l1.lineBytes; // same L1 set
    for (std::uint64_t i = 0; i < 64; ++i) {
        std::uint64_t v = i + 1;
        ms.store(0, nv + 2097152 + i * stride, 8, &v, i * 10);
    }
    for (std::uint64_t i = 0; i < 64; ++i) {
        std::uint64_t out = 0;
        ms.load(1, nv + 2097152 + i * stride, 8, &out, 100000 + i);
        EXPECT_EQ(out, i + 1);
    }
}

TEST_F(MemorySystemTest, UncacheableWritesReachDeviceOnDrain)
{
    std::uint64_t v = 0x55;
    Addr a = nv + 64; // log region area; raw device range
    ms.uncacheableWrite(a, 8, &v, 0);
    Tick done = ms.drainWcb(100);
    EXPECT_GE(done, 100u);
    std::uint64_t out = 0;
    ms.nvram().functionalRead(a, 8, &out);
    EXPECT_EQ(out, 0x55u);
}

TEST_F(MemorySystemTest, LoadsTrackHitLevels)
{
    Addr a = nv + 4194304;
    std::uint64_t out = 0;
    EXPECT_EQ(ms.load(0, a, 8, &out, 0).level, HitLevel::Memory);
    EXPECT_EQ(ms.load(0, a, 8, &out, 1000).level, HitLevel::L1);
    EXPECT_EQ(ms.load(1, a, 8, &out, 2000).level, HitLevel::L2);
}

namespace
{

/** Tag state of one slot as a reference walk sees it. */
struct SlotState
{
    Addr lineAddr = 0;
    bool valid = false;
    bool dirty = false;
    bool fwb = false;

    bool
    operator==(const SlotState &o) const
    {
        return valid == o.valid && dirty == o.dirty && fwb == o.fwb &&
               (!valid || lineAddr == o.lineAddr);
    }
};

std::vector<SlotState>
tagsOf(Cache &c)
{
    std::vector<SlotState> out;
    c.forEachLine([&](CacheLine &l) {
        out.push_back({l.lineAddr, l.valid, l.dirty(), l.fwb()});
    });
    return out;
}

/**
 * Every structural invariant of the hierarchy, checked over the full
 * tag arrays: the dirty index names exactly the dirty slots, no clean
 * line carries fwb, each valid L2 line's sharer mask is exactly the set
 * of L1s holding it, and inclusion holds. Empty when all hold.
 */
std::string
hierarchyViolation(MemorySystem &ms)
{
    std::ostringstream why;
    const SystemConfig &cfg = ms.config();
    auto check_cache = [&](Cache &c) {
        std::vector<const CacheLine *> flagged;
        c.forEachLine([&](CacheLine &l) {
            if (l.dirty())
                flagged.push_back(&l);
            if (l.dirty() && !l.valid)
                why << c.name() << ": dirty invalid line; ";
            if (l.fwb() && !l.dirty())
                why << c.name() << ": clean line " << l.lineAddr
                    << " carries fwb; ";
            if (l.fwb() && !cfg.map.isNvram(l.lineAddr))
                why << c.name() << ": DRAM line carries fwb; ";
        });
        std::vector<const CacheLine *> indexed;
        c.forEachDirtyLine([&](CacheLine &l) { indexed.push_back(&l); });
        if (indexed != flagged)
            why << c.name() << ": dirty index has " << indexed.size()
                << " slots, dirty bits " << flagged.size() << "; ";
    };
    for (CoreId core = 0; core < cfg.numCores; ++core) {
        check_cache(ms.l1(core));
        ms.l1(core).forEachLine([&](CacheLine &l) {
            if (l.sharers != 0)
                why << "L1 line carries sharers; ";
            if (l.valid && ms.l2Cache().find(l.lineAddr) == nullptr)
                why << "inclusion: L1." << core << " line "
                    << l.lineAddr << " not in L2; ";
        });
    }
    check_cache(ms.l2Cache());
    ms.l2Cache().forEachLine([&](CacheLine &l) {
        std::uint64_t holders = 0;
        for (CoreId core = 0; core < cfg.numCores; ++core) {
            if (l.valid && ms.l1(core).find(l.lineAddr) != nullptr)
                holders |= 1ULL << core;
        }
        if (l.sharers != holders)
            why << "L2 line " << l.lineAddr << " sharers " << l.sharers
                << " but held by " << holders << "; ";
    });
    return why.str();
}

/** Reference prediction of one FWB pass (paper Figure 5). */
struct ScanReference
{
    std::vector<std::vector<SlotState>> l1;
    std::vector<SlotState> l2;
    FwbScanResult counts;
    std::vector<std::pair<CoreId, Addr>> l1Writebacks;
    std::vector<Addr> l2Writebacks;
    std::vector<Tick> busyUntil; ///< L1s by core, then the L2
};

/**
 * Walk every slot of every cache, as the hardware scanner does, and
 * apply the per-line {fwb, dirty} state machine to a copy of the tags.
 * An L1 forced write-back dirties the line's L2 copy, which the L2 pass
 * that follows then sees.
 */
ScanReference
referenceScan(MemorySystem &ms, Tick now, double costPerLine)
{
    const SystemConfig &cfg = ms.config();
    ScanReference ref;
    auto walk = [&](std::vector<SlotState> &slots, Cache &cache,
                    auto &&forceWriteback) {
        for (SlotState &s : slots) {
            ++ref.counts.linesScanned;
            if (!s.valid || !cfg.map.isNvram(s.lineAddr) || !s.dirty) {
                s.fwb = false;
                continue;
            }
            if (!s.fwb) {
                s.fwb = true;
                ++ref.counts.linesFlagged;
                continue;
            }
            s.dirty = false;
            s.fwb = false;
            forceWriteback(s.lineAddr);
            ++ref.counts.linesWrittenBack;
        }
        ref.busyUntil.push_back(
            std::max(cache.busyUntil, now) +
            static_cast<Tick>(static_cast<double>(cache.numLines()) *
                              costPerLine));
    };
    ref.l2 = tagsOf(ms.l2Cache());
    for (CoreId core = 0; core < cfg.numCores; ++core) {
        ref.l1.push_back(tagsOf(ms.l1(core)));
        walk(ref.l1.back(), ms.l1(core), [&](Addr line) {
            ref.l1Writebacks.emplace_back(core, line);
            for (SlotState &s : ref.l2) {
                if (s.valid && s.lineAddr == line)
                    s.dirty = true;
            }
        });
    }
    walk(ref.l2, ms.l2Cache(),
         [&](Addr line) { ref.l2Writebacks.push_back(line); });
    return ref;
}

std::string
scanMismatch(MemorySystem &ms, const ScanReference &ref,
             const FwbScanResult &got)
{
    std::ostringstream why;
    const SystemConfig &cfg = ms.config();
    if (got.linesScanned != ref.counts.linesScanned ||
        got.linesFlagged != ref.counts.linesFlagged ||
        got.linesWrittenBack != ref.counts.linesWrittenBack)
        why << "counts scanned/flagged/written " << got.linesScanned
            << "/" << got.linesFlagged << "/" << got.linesWrittenBack
            << ", reference " << ref.counts.linesScanned << "/"
            << ref.counts.linesFlagged << "/"
            << ref.counts.linesWrittenBack << "; ";
    for (CoreId core = 0; core < cfg.numCores; ++core) {
        if (tagsOf(ms.l1(core)) != ref.l1[core])
            why << "L1." << core << " tags differ from reference; ";
        if (ms.l1(core).busyUntil != ref.busyUntil[core])
            why << "L1." << core << " busyUntil; ";
    }
    if (tagsOf(ms.l2Cache()) != ref.l2)
        why << "L2 tags differ from reference; ";
    if (ms.l2Cache().busyUntil != ref.busyUntil.back())
        why << "L2 busyUntil; ";
    // An L1 forced write-back leaves the L2 copy equal to the L1 one.
    for (auto [core, line] : ref.l1Writebacks) {
        const CacheLine *l1line = ms.l1(core).find(line);
        const CacheLine *l2line = ms.l2Cache().find(line);
        if (!l1line || !l2line ||
            std::memcmp(l1line->data(), l2line->data(),
                        ms.lineBytes()) != 0)
            why << "L1 write-back of " << line << " not in L2; ";
    }
    // An L2 forced write-back reaches NVRAM, and the pass reports the
    // latest completion among them.
    Tick last = 0;
    for (Addr line : ref.l2Writebacks) {
        last = std::max(last, ms.monitor().lastWritebackOf(line));
        std::vector<std::uint8_t> dev(ms.lineBytes());
        ms.nvram().functionalRead(line, dev.size(), dev.data());
        const CacheLine *l2line = ms.l2Cache().find(line);
        if (!l2line ||
            std::memcmp(dev.data(), l2line->data(), dev.size()) != 0)
            why << "L2 write-back of " << line << " not in NVRAM; ";
    }
    if (got.lastWritebackDone != last)
        why << "lastWritebackDone " << got.lastWritebackDone
            << ", reference " << last << "; ";
    return why.str();
}

/** Small caches so conflict evictions are frequent at both levels. */
SystemConfig
tinyHierarchy()
{
    SystemConfig cfg = SystemConfig::scaled(4);
    cfg.l1.sizeBytes = 1024; // 16 lines, 2 ways
    cfg.l1.ways = 2;
    cfg.l2.sizeBytes = 8192; // 128 lines, 4 ways
    cfg.l2.ways = 4;
    return cfg;
}

} // namespace

TEST(MemorySystemDifferential, DirtyWalkAndInL2DirectoryMatchReference)
{
    constexpr std::uint64_t kLines = 512; // 4x the L2 per region
    constexpr int kSteps = 4000;
    std::uint64_t scans = 0;
    std::uint64_t forced = 0;
    for (std::uint64_t seed : {1, 2, 3, 4}) {
        MemorySystem ms(tinyHierarchy());
        const SystemConfig &cfg = ms.config();
        const Addr nvData = cfg.map.nvramBase + (1u << 20);
        sim::Rng rng(seed);
        std::unordered_map<Addr, std::uint64_t> shadow;
        Tick now = 0;
        for (int step = 0; step < kSteps; ++step) {
            now += 1 + rng.below(40);
            const CoreId core = static_cast<CoreId>(
                rng.below(cfg.numCores));
            const Addr base =
                rng.below(4) == 0 ? cfg.map.dramBase : nvData;
            const Addr addr = base + rng.below(kLines) * 64 +
                              8 * rng.below(8);
            const std::uint64_t op = rng.below(100);
            if (op < 45) {
                std::uint64_t v = rng.next();
                ms.store(core, addr, 8, &v, now);
                shadow[addr] = v;
            } else if (op < 80) {
                std::uint64_t out = 0;
                ms.load(core, addr, 8, &out, now);
                auto it = shadow.find(addr);
                if (it == shadow.end())
                    shadow[addr] = out;
                else
                    ASSERT_EQ(out, it->second)
                        << "seed " << seed << " step " << step;
            } else if (op < 88) {
                ms.clwb(core, addr, now);
            } else if (op < 98) {
                const double cost = 0.5 * static_cast<double>(
                                              rng.below(3));
                ScanReference ref = referenceScan(ms, now, cost);
                FwbScanResult got = ms.fwbScanAll(now, cost);
                ASSERT_EQ(scanMismatch(ms, ref, got), "")
                    << "seed " << seed << " step " << step;
                ++scans;
                forced += got.linesWrittenBack;
            } else if (op < 99) {
                ms.flushAllDirty(now);
                for (Addr a = 0; a < kLines; ++a) {
                    ASSERT_FALSE(ms.isLineDirtyAnywhere(nvData + a * 64));
                    ASSERT_FALSE(
                        ms.isLineDirtyAnywhere(cfg.map.dramBase + a * 64));
                }
            } else {
                // Crash: cached data is lost, so the shadow is
                // re-learned from what loads see next.
                ms.invalidateAllCaches();
                shadow.clear();
            }
            ASSERT_EQ(hierarchyViolation(ms), "")
                << "seed " << seed << " step " << step << " op " << op;
        }
    }
    // The loads must really exercise flagging and forced write-backs.
    EXPECT_GT(scans, 1000u);
    EXPECT_GT(forced, 1000u);
}
