/**
 * @file
 * Tests for lifelab: the persistent dual-bank bad-line remap table
 * (roundtrip, update atomicity at every interior crash point,
 * corruption detection), MemDevice line translation, the online log
 * scrubber (single-bit repair, repeat-offender promotion, remap-bank
 * redundancy restoration), recovery re-entrancy (truncation-flag
 * resume protocol), and the multi-generation lifecycle soak
 * including its I9 cross-generation durability check and the
 * sabotage self-test.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "crashlab/lifecycle.hh"
#include "mem/backing_store.hh"
#include "mem/mem_device.hh"
#include "mem/remap_table.hh"
#include "persist/log_record.hh"
#include "persist/log_region.hh"
#include "persist/log_scrubber.hh"
#include "persist/recovery.hh"
#include "workloads/driver.hh"

using namespace snf;
using namespace snf::persist;

namespace
{

// Remap-region geometry shared by the table-level tests: two 1 KB
// banks ((1024-64)/16 = 60 entries) over a 64-line spare area.
constexpr Addr kRemapBase = 0x1000;
constexpr std::uint64_t kRemapSize = 2048;
constexpr Addr kSpareBase = 0x2000;
constexpr std::uint64_t kSpareSize = 4096;

/** A 64-byte-aligned original line outside the remap/spare region. */
Addr
origLine(std::uint64_t i)
{
    return 0x8000 + i * 64;
}

mem::RemapTable
makeTable()
{
    return mem::RemapTable(kRemapBase, kRemapSize, kSpareBase,
                           kSpareSize);
}

/** Functional writer into a backing store. */
mem::RemapTable::WriteFn
writerTo(mem::BackingStore &img)
{
    return [&img](Addr a, std::uint64_t n, const void *d) {
        img.write(a, n, d);
    };
}

/** In-image log writer (fabricates crash states, faultlab idiom). */
class ImageLog
{
  public:
    ImageLog(mem::BackingStore &image, const AddressMap &map)
        : image(image), map(map)
    {
        slots = (map.logSize - LogRegion::kHeaderBytes) /
                LogRecord::kSlotBytes;
        std::uint64_t magic = LogRegion::kMagic;
        image.write(map.logBase(), 8, &magic);
        image.write(map.logBase() + 8, 8, &slots);
    }

    /** Append with the current pass parity. */
    Addr
    append(const LogRecord &rec)
    {
        return appendRaw(rec, (pass & 1) != 0);
    }

    /** Append with an explicit torn bit (fabricates stale slots). */
    Addr
    appendRaw(const LogRecord &rec, bool torn)
    {
        std::uint8_t img[LogRecord::kSlotBytes];
        rec.serialize(img, torn);
        Addr a = slotAddr(tail);
        image.write(a, sizeof(img), img);
        tail = (tail + 1) % slots;
        if (tail == 0)
            ++pass;
        return a;
    }

    Addr
    slotAddr(std::uint64_t slot) const
    {
        return map.logBase() + LogRegion::kHeaderBytes +
               slot * LogRecord::kSlotBytes;
    }

    std::uint64_t slots = 0;

  private:
    mem::BackingStore &image;
    AddressMap map;
    std::uint64_t tail = 0;
    std::uint64_t pass = 1;
};

/**
 * A crash image with a remap-capable address map and a fabricated log
 * exercising every salvage verdict: a committed transaction (tx 1), an
 * uncommitted one (tx 2), a stale-parity slot inside the window, a
 * second committed transaction (tx 3), and a committed transaction
 * whose update record carries multi-bit damage (tx 7, quarantined).
 */
struct RecoveryFixture
{
    AddressMap map;
    mem::BackingStore image;
    ImageLog log;
    Addr damagedSlotAddr = 0;

    RecoveryFixture()
        : map(makeMap()), image(map.nvramBase, map.nvramSize),
          log(image, map)
    {
        // Pre-crash heap contents.
        write64(data(0), 0x55); // tx 1: redo not yet home
        write64(data(1), 0x22); // tx 2: new value landed, uncommitted
        write64(data(2), 0x42); // stale slot's target: must not move
        write64(data(3), 0x33); // tx 7: quarantined, must not move
        write64(data(4), 0x00); // tx 3: redo not yet home

        log.append(LogRecord::update(0, 1, data(0), 8, 0x55, 0xAA));
        log.append(LogRecord::commit(0, 1, 1));
        log.append(LogRecord::update(1, 2, data(1), 8, 0x11, 0x22));
        // Stale pass parity inside the live window (the signature of
        // a dropped overwrite exposing an old record).
        log.appendRaw(LogRecord::update(0, 99, data(2), 8,
                                        std::nullopt, 0x99),
                      false);
        log.append(LogRecord::update(0, 3, data(4), 8, 0x00, 0xBB));
        log.append(LogRecord::commit(0, 3, 1));
        damagedSlotAddr =
            log.append(LogRecord::update(0, 7, data(3), 8, 0x77,
                                         0x88));
        log.append(LogRecord::commit(0, 7, 1));

        // Multi-bit damage on tx 7's update: uncorrectable CRC fail.
        std::uint8_t b;
        image.read(damagedSlotAddr + 10, 1, &b);
        b ^= 0x21;
        image.write(damagedSlotAddr + 10, 1, &b);
    }

    static AddressMap
    makeMap()
    {
        AddressMap m;
        m.nvramSize = 1 << 22;
        m.logSize = 4096;
        m.remapSize = 2048;
        m.spareSize = 4096;
        return m;
    }

    Addr data(std::uint64_t i) const { return map.heapBase() + i * 8; }

    void write64(Addr a, std::uint64_t v) { image.write(a, 8, &v); }

    std::uint64_t
    read64(const mem::BackingStore &img, Addr a) const
    {
        return img.read64(a);
    }

    RecoveryOptions
    canonicalOpts() const
    {
        RecoveryOptions opts;
        opts.truncateLog = true;
        opts.promoteBadLines = true;
        return opts;
    }
};

/** A MemDevice with an active remap region (device-level tests). */
struct DeviceFixture
{
    MemDeviceConfig cfg;
    mem::MemDevice dev;

    DeviceFixture() : cfg(makeCfg()), dev("nvram", cfg, 0) {}

    static MemDeviceConfig
    makeCfg()
    {
        MemDeviceConfig c;
        c.sizeBytes = 1 << 20;
        c.remapBase = kRemapBase;
        c.remapSize = kRemapSize;
        c.spareBase = kSpareBase;
        c.spareSize = kSpareSize;
        return c;
    }
};

} // namespace

// ------------------------- remap table ----------------------------

TEST(RemapTable, PersistLoadRoundtripCarriesSuperblock)
{
    mem::BackingStore img(0, 1 << 16);
    mem::RemapTable t = makeTable();
    EXPECT_EQ(t.capacity(), 60u);

    ASSERT_TRUE(t.add(origLine(0)).has_value());
    ASSERT_TRUE(t.add(origLine(1)).has_value());
    ASSERT_TRUE(t.add(origLine(2)).has_value());
    EXPECT_FALSE(t.add(origLine(1)).has_value()); // already promoted
    t.heapCursor = 1234;
    t.generation = 7;
    ASSERT_TRUE(t.persist(writerTo(img)));
    EXPECT_EQ(t.seq(), 1u);

    mem::RemapTable r = makeTable();
    mem::RemapTable::LoadResult lr = r.load(img);
    EXPECT_FALSE(lr.fresh);
    EXPECT_FALSE(lr.corrupted);
    EXPECT_EQ(lr.entriesLoaded, 3u);
    EXPECT_EQ(r.heapCursor, 1234u);
    EXPECT_EQ(r.generation, 7u);
    EXPECT_TRUE(r.wellFormed());
    ASSERT_TRUE(r.find(origLine(1)).has_value());
    EXPECT_EQ(*r.find(origLine(1)), *t.find(origLine(1)));
    EXPECT_FALSE(r.find(origLine(9)).has_value());
}

TEST(RemapTable, NeverPersistedRegionLoadsFresh)
{
    mem::BackingStore img(0, 1 << 16);
    mem::RemapTable t = makeTable();
    mem::RemapTable::LoadResult lr = t.load(img);
    EXPECT_TRUE(lr.fresh);
    EXPECT_FALSE(lr.corrupted);
    EXPECT_EQ(lr.entriesLoaded, 0u);
}

TEST(RemapTable, UpdateIsAtomicAtEveryInteriorCrashPoint)
{
    // Persist a 2-entry state, then crash a 3-entry update after every
    // possible number of chunk writes: a loader must always see the
    // old state or the new state, never a torn or corrupted one.
    mem::BackingStore img(0, 1 << 16);
    mem::RemapTable t = makeTable();
    ASSERT_TRUE(t.add(origLine(0)).has_value());
    ASSERT_TRUE(t.add(origLine(1)).has_value());
    ASSERT_TRUE(t.persist(writerTo(img)));

    bool sawOld = false, sawNew = false;
    for (std::uint64_t budget = 0; budget <= 20; ++budget) {
        mem::BackingStore probe = img;
        mem::RemapTable upd = makeTable();
        upd.load(probe);
        ASSERT_TRUE(upd.add(origLine(2)).has_value());
        upd.heapCursor = 999;
        bool completed = upd.persist(writerTo(probe), budget);

        mem::RemapTable loaded = makeTable();
        mem::RemapTable::LoadResult lr = loaded.load(probe);
        EXPECT_FALSE(lr.corrupted) << "budget " << budget;
        EXPECT_FALSE(lr.fresh) << "budget " << budget;
        if (completed) {
            sawNew = true;
            EXPECT_EQ(loaded.size(), 3u) << "budget " << budget;
            EXPECT_EQ(loaded.seq(), 2u) << "budget " << budget;
            EXPECT_EQ(loaded.heapCursor, 999u) << "budget " << budget;
        } else {
            sawOld = true;
            EXPECT_EQ(loaded.size(), 2u) << "budget " << budget;
            EXPECT_EQ(loaded.seq(), 1u) << "budget " << budget;
            // The in-memory state must be untouched by the failure.
            EXPECT_EQ(upd.seq(), 1u) << "budget " << budget;
        }
    }
    EXPECT_TRUE(sawOld);
    EXPECT_TRUE(sawNew);
}

TEST(RemapTable, SabotageIsReportedAsCorruption)
{
    mem::BackingStore img(0, 1 << 16);
    mem::RemapTable t = makeTable();
    ASSERT_TRUE(t.add(origLine(0)).has_value());
    ASSERT_TRUE(t.persist(writerTo(img)));
    EXPECT_EQ(t.validBanks(img), 1u);

    mem::RemapTable::sabotage(img, kRemapBase, kRemapSize);
    EXPECT_EQ(t.validBanks(img), 0u);
    mem::RemapTable r = makeTable();
    mem::RemapTable::LoadResult lr = r.load(img);
    EXPECT_TRUE(lr.corrupted);
    EXPECT_FALSE(lr.fresh);
}

TEST(RemapTable, SecondPersistRestoresDualBankRedundancy)
{
    mem::BackingStore img(0, 1 << 16);
    mem::RemapTable t = makeTable();
    ASSERT_TRUE(t.add(origLine(0)).has_value());
    ASSERT_TRUE(t.persist(writerTo(img)));
    EXPECT_EQ(t.validBanks(img), 1u);
    ASSERT_TRUE(t.persist(writerTo(img)));
    EXPECT_EQ(t.validBanks(img), 2u);
    EXPECT_EQ(t.seq(), 2u);
}

// ------------------------- device translation ---------------------

TEST(MemDeviceRemap, PromotedLineTrafficMovesToItsSpare)
{
    DeviceFixture f;
    ASSERT_TRUE(f.dev.remapActive());
    const Addr line = 0x10000;

    std::uint8_t before[64];
    for (unsigned i = 0; i < 64; ++i)
        before[i] = static_cast<std::uint8_t>(i * 3 + 1);
    f.dev.functionalWrite(line, 64, before);

    ASSERT_TRUE(f.dev.remapLine(line, 0));
    EXPECT_EQ(f.dev.remappedLines.value(), 1u);
    ASSERT_TRUE(f.dev.remap()->find(line).has_value());
    const Addr spare = *f.dev.remap()->find(line);
    EXPECT_EQ(f.dev.translate(line), spare);
    EXPECT_EQ(f.dev.translate(line + 17), spare + 17);

    // The promoted line's bytes were carried over to the spare.
    std::uint8_t got[64];
    f.dev.functionalRead(line, 64, got);
    EXPECT_EQ(std::memcmp(got, before, 64), 0);

    // Writes through the device land on the spare, not the raw line.
    std::uint8_t patch = 0xEE;
    f.dev.functionalWrite(line + 5, 1, &patch);
    std::uint8_t raw;
    f.dev.store().read(spare + 5, 1, &raw);
    EXPECT_EQ(raw, 0xEE);
    f.dev.store().read(line + 5, 1, &raw);
    EXPECT_NE(raw, 0xEE); // original media untouched after promotion

    // A second promotion of the same line is refused.
    EXPECT_FALSE(f.dev.remapLine(line, 0));
}

TEST(MemDeviceRemap, TableIsDurableAndReloadable)
{
    DeviceFixture f;
    const Addr line = 0x10040;
    ASSERT_TRUE(f.dev.remapLine(line, 0));
    f.dev.updateSuperblock(5555, 9);

    // The persisted table is readable by an independent loader...
    mem::RemapTable r = makeTable();
    mem::RemapTable::LoadResult lr = r.load(f.dev.store());
    EXPECT_FALSE(lr.corrupted);
    EXPECT_EQ(lr.entriesLoaded, 1u);
    ASSERT_TRUE(r.find(line).has_value());
    EXPECT_EQ(r.heapCursor, 5555u);
    EXPECT_EQ(r.generation, 9u);

    // ...and by the device's own reload path (lifecycle adoption).
    mem::RemapTable::LoadResult rr = f.dev.reloadRemap();
    EXPECT_EQ(rr.entriesLoaded, 1u);
    EXPECT_EQ(f.dev.translate(line), *r.find(line));
}

// ------------------------- log scrubber ---------------------------

namespace
{

/** Device + log region + scrubber, with a valid record in slot 0. */
struct ScrubFixture
{
    DeviceFixture f;
    LogRegion region;
    LogScrubber scrub;
    std::uint8_t original[LogRecord::kSlotBytes];
    Addr slot0;

    ScrubFixture() : region(0, 4096, f.dev, "slog"), scrub(f.dev)
    {
        scrub.addRegion(&region);
        LogRecord rec =
            LogRecord::update(0, 1, 0x10000, 8, 0x55, 0xAA);
        rec.serialize(original, false);
        slot0 = region.slotAddr(0);
        f.dev.store().write(slot0, sizeof(original), original);
    }

    void
    flipSlotBit(unsigned bit)
    {
        std::uint8_t b;
        f.dev.store().read(slot0 + bit / 8, 1, &b);
        b ^= static_cast<std::uint8_t>(1u << (bit % 8));
        f.dev.store().write(slot0 + bit / 8, 1, &b);
    }

    bool
    slotMatchesOriginal()
    {
        std::uint8_t now[LogRecord::kSlotBytes];
        f.dev.functionalRead(slot0, sizeof(now), now);
        return std::memcmp(now, original, sizeof(now)) == 0;
    }
};

} // namespace

TEST(LogScrubber, RepairsSingleBitDamageInPlace)
{
    ScrubFixture s;
    s.flipSlotBit(77);
    EXPECT_FALSE(s.slotMatchesOriginal());
    s.scrub.scrubAll(0);
    EXPECT_EQ(s.scrub.repairs.value(), 1u);
    EXPECT_EQ(s.scrub.uncorrectable.value(), 0u);
    EXPECT_TRUE(s.slotMatchesOriginal());
    EXPECT_EQ(s.scrub.errorStreak(s.slot0 & ~Addr(63)), 1u);
}

TEST(LogScrubber, PromotesRepeatOffenderAndRestoresBankRedundancy)
{
    ScrubFixture s;
    const Addr line = s.slot0 & ~Addr(63);
    // Three scrub passes each observing fresh damage on the same
    // line: repaired every time, promoted on the third.
    for (int round = 0; round < 3; ++round) {
        s.flipSlotBit(40 + round);
        s.scrub.scrubAll(0);
        EXPECT_TRUE(s.slotMatchesOriginal());
    }
    EXPECT_EQ(s.scrub.repairs.value(), 3u);
    EXPECT_EQ(s.scrub.promotions.value(), 1u);
    EXPECT_EQ(s.f.dev.remappedLines.value(), 1u);
    ASSERT_TRUE(s.f.dev.remap()->find(line).has_value());
    EXPECT_EQ(s.scrub.errorStreak(line), 0u); // streak retired

    // The promotion's single-bank persist was immediately followed by
    // a redundancy restoration into the other bank.
    EXPECT_GE(s.scrub.bankRepairs.value(), 1u);
    EXPECT_EQ(s.f.dev.remap()->validBanks(s.f.dev.store()), 2u);

    // Damage one bank: the next scrub step restores redundancy again.
    std::uint8_t junk[64];
    std::memset(junk, 0xA5, sizeof(junk));
    std::uint32_t target =
        (s.f.dev.remap()->seq() + 1) % 2; // the bank persist refills
    s.f.dev.store().write(s.f.dev.remap()->bankBase(target),
                          sizeof(junk), junk);
    EXPECT_EQ(s.f.dev.remap()->validBanks(s.f.dev.store()), 1u);
    std::uint64_t repairsBefore = s.scrub.bankRepairs.value();
    s.scrub.step(0);
    EXPECT_EQ(s.scrub.bankRepairs.value(), repairsBefore + 1);
    EXPECT_EQ(s.f.dev.remap()->validBanks(s.f.dev.store()), 2u);
}

TEST(LogScrubber, LeavesLiveUncorrectableSlotsForRecovery)
{
    ScrubFixture s;
    // Multi-bit damage: not single-bit-correctable.
    s.flipSlotBit(10);
    s.flipSlotBit(99);
    // Dead slot (region meta says nothing is live): zeroed outright.
    s.scrub.scrubAll(0);
    EXPECT_EQ(s.scrub.repairs.value(), 0u);
    EXPECT_EQ(s.scrub.zeroed.value(), 1u);
    std::uint8_t now[LogRecord::kSlotBytes];
    std::uint8_t zeros[LogRecord::kSlotBytes] = {};
    s.f.dev.functionalRead(s.slot0, sizeof(now), now);
    EXPECT_EQ(std::memcmp(now, zeros, sizeof(now)), 0);
}

// Pins the scrubber's chunk size and promote threshold through a
// whole System: sps under fwb on a 12 KB log (382 slots, so a step
// scrubs slots/256 = 1 of them), with live bit flips dense enough
// that a line is damaged on three scrub walks and promoted. This
// pins behaviour, not correctness: faults this dense also corrupt
// data that no log record covers.
TEST(ScrubGolden, FaultedFwbCellKeepsItsScrubCounts)
{
    workloads::RunSpec spec;
    spec.workload = "sps";
    spec.mode = PersistMode::Fwb;
    spec.params.threads = 2;
    spec.params.txPerThread = 12000;
    spec.params.footprint = 4096;
    spec.sys = SystemConfig::scaled(2);
    spec.sys.map.logSize = 12 * 1024;
    spec.sys.map.remapSize = 16 * 1024;
    spec.sys.map.spareSize = 32 * 1024;
    spec.sys.persist.scrub = true;
    spec.sys.nvram.faults.seed = 3;
    spec.sys.nvram.faults.bitFlipProb = 1e-1;
    spec.verifyAtEnd = false;
    const workloads::RunOutcome o = workloads::runWorkload(spec);
    EXPECT_EQ(o.endTick, 2101054u);
    EXPECT_EQ(o.stats.scrubSlotsScanned, 2515u);
    EXPECT_EQ(o.stats.scrubRepairs, 107u);
    EXPECT_EQ(o.stats.scrubPromotions, 1u);
}

// ------------------------- salvaging recovery ---------------------

TEST(LifelabRecovery, SalvagesQuarantinesAndPromotes)
{
    RecoveryFixture f;
    mem::BackingStore img = f.image;
    RecoveryReport rep =
        Recovery::run(img, f.map, f.canonicalOpts());

    EXPECT_TRUE(rep.headerValid);
    EXPECT_EQ(rep.salvagedTxns, 2u);     // tx 1, tx 3
    EXPECT_EQ(rep.quarantinedTxns, 1u);  // tx 7
    EXPECT_EQ(rep.uncommittedTxns, 1u);  // tx 2
    EXPECT_EQ(rep.stalePassSlots, 1u);   // fabricated stale slot
    EXPECT_EQ(rep.crcFailSlots, 1u);     // tx 7's damaged update
    EXPECT_EQ(rep.undoApplied, 1u);
    EXPECT_EQ(rep.redoApplied, 2u);
    ASSERT_EQ(rep.quarantinedTxIds.size(), 1u);
    EXPECT_EQ(rep.quarantinedTxIds[0], 7u);

    EXPECT_EQ(img.read64(f.data(0)), 0xAAu); // redo replayed
    EXPECT_EQ(img.read64(f.data(1)), 0x11u); // undo rolled back
    EXPECT_EQ(img.read64(f.data(2)), 0x42u); // stale slot ignored
    EXPECT_EQ(img.read64(f.data(3)), 0x33u); // quarantined untouched
    EXPECT_EQ(img.read64(f.data(4)), 0xBBu); // redo replayed

    // The damaged slot's line was promoted into the remap table.
    EXPECT_GE(rep.promotedLines, 1u);
    EXPECT_FALSE(rep.remapCorrupt);
    mem::RemapTable r(f.map.remapBase(), f.map.remapSize,
                      f.map.spareBase(), f.map.spareSize);
    mem::RemapTable::LoadResult lr = r.load(img);
    EXPECT_FALSE(lr.corrupted);
    EXPECT_GE(lr.entriesLoaded, 1u);
    EXPECT_TRUE(
        r.find(f.damagedSlotAddr & ~Addr(63)).has_value());

    // Truncation completed: slots zeroed, flag lowered, header alive.
    EXPECT_EQ(
        img.read64(f.map.logBase() + LogRegion::kTruncFlagOffset),
        0u);
    for (std::uint64_t s = 0; s < f.log.slots; ++s) {
        std::uint8_t raw[LogRecord::kSlotBytes];
        std::uint8_t zeros[LogRecord::kSlotBytes] = {};
        // Read through the promoted line's spare mapping.
        Addr a = f.log.slotAddr(s);
        if (auto sp = r.find(a & ~Addr(63)))
            a = *sp + (a & 63);
        img.read(a, sizeof(raw), raw);
        EXPECT_EQ(std::memcmp(raw, zeros, sizeof(raw)), 0)
            << "slot " << s;
    }
    EXPECT_EQ(img.read64(f.map.logBase()), LogRegion::kMagic);
}

TEST(LifelabRecovery, WritePlanIsDeterministicUnderBudgets)
{
    RecoveryFixture f;
    mem::BackingStore ref = f.image;
    RecoveryReport full =
        Recovery::run(ref, f.map, f.canonicalOpts());
    ASSERT_GT(full.writesIssued, 4u);
    EXPECT_EQ(full.writesApplied, full.writesIssued);
    EXPECT_FALSE(full.interrupted);

    for (std::uint64_t budget :
         {std::uint64_t(0), std::uint64_t(1),
          full.writesIssued / 2, full.writesIssued}) {
        mem::BackingStore img = f.image;
        RecoveryOptions opts = f.canonicalOpts();
        opts.crashAfterWrites = budget;
        RecoveryReport rep = Recovery::run(img, f.map, opts);
        EXPECT_EQ(rep.writesIssued, full.writesIssued)
            << "budget " << budget;
        EXPECT_EQ(rep.writesApplied,
                  std::min(budget, full.writesIssued))
            << "budget " << budget;
        EXPECT_EQ(rep.interrupted, budget < full.writesIssued)
            << "budget " << budget;
    }
}

TEST(LifelabRecovery, TruncationFlagResumesInterruptedTruncation)
{
    // Regression for the re-entrancy protocol: a crash inside the
    // truncation zeroing must not let the next recovery reinterpret
    // the partially-zeroed slot array (a zeroed prefix can detach a
    // commit record from its updates, or leave a stale-pass slot as
    // the apparent window start). Recovery raises the truncation flag
    // before zeroing; a pass finding it set only resumes the zeroing.
    RecoveryFixture f;
    mem::BackingStore ref = f.image;
    RecoveryReport full =
        Recovery::run(ref, f.map, f.canonicalOpts());

    mem::BackingStore cut = f.image;
    RecoveryOptions opts = f.canonicalOpts();
    opts.crashAfterWrites = full.writesIssued - 2;
    RecoveryReport r1 = Recovery::run(cut, f.map, opts);
    EXPECT_TRUE(r1.interrupted);
    EXPECT_EQ(r1.writesIssued, full.writesIssued);
    // The crash point is inside the zeroing: the flag is up.
    EXPECT_NE(
        cut.read64(f.map.logBase() + LogRegion::kTruncFlagOffset),
        0u);

    RecoveryReport r2 =
        Recovery::run(cut, f.map, f.canonicalOpts());
    EXPECT_TRUE(r2.headerValid);
    EXPECT_EQ(
        cut.read64(f.map.logBase() + LogRegion::kTruncFlagOffset),
        0u);
    EXPECT_FALSE(ref.firstDifference(cut, f.map.nvramBase,
                                     f.map.nvramSize)
                     .has_value());
}

TEST(LifelabRecovery, ReentrantAtEveryInteriorWriteBudget)
{
    RecoveryFixture f;
    std::vector<crashlab::Violation> v =
        crashlab::checkRecoveryReentrancy(f.image, f.map,
                                          f.canonicalOpts(), 1);
    for (const crashlab::Violation &viol : v)
        ADD_FAILURE() << viol.invariant << ": " << viol.detail;
}

// ------------------------- lifecycle soak -------------------------

namespace
{

crashlab::LifecycleConfig
soakConfig(std::uint32_t generations)
{
    crashlab::LifecycleConfig cfg;
    cfg.run.workload = "sps";
    cfg.run.mode = PersistMode::Fwb;
    cfg.run.params.threads = 2;
    cfg.run.params.txPerThread = 80;
    cfg.run.sys = SystemConfig::scaled(2);
    cfg.generations = generations;
    cfg.reentrancyBudgets = 2;
    return cfg;
}

} // namespace

TEST(Lifecycle, CleanMultiGenerationSoakPasses)
{
    crashlab::LifecycleConfig cfg = soakConfig(5);
    cfg.run.sys.persist.scrub = true;
    crashlab::LifecycleResult res = crashlab::runLifecycle(cfg);

    for (const crashlab::GenerationResult &g : res.generations)
        for (const crashlab::Violation &v : g.violations)
            ADD_FAILURE() << "gen " << g.generation << " "
                          << v.invariant << ": " << v.detail;
    EXPECT_TRUE(res.passed());
    ASSERT_EQ(res.generations.size(), 5u);
    for (std::uint32_t i = 0; i < 5; ++i) {
        EXPECT_EQ(res.generations[i].generation, i);
        EXPECT_GT(res.generations[i].crashTick, 0u);
        EXPECT_GT(res.generations[i].committedTx, 0u);
    }
}

TEST(Lifecycle, SurvivesHeavyImageFaultsAcrossGenerations)
{
    // I9 across generations under aggressive per-generation snapshot
    // damage: salvage what is provably committed, quarantine the
    // rest, and never lose a byte a previous generation recovered.
    crashlab::LifecycleConfig cfg = soakConfig(3);
    cfg.imageFaults = crashlab::ImageFaultConfig::heavy(3);
    crashlab::LifecycleResult res = crashlab::runLifecycle(cfg);

    for (const crashlab::GenerationResult &g : res.generations)
        for (const crashlab::Violation &v : g.violations)
            ADD_FAILURE() << "gen " << g.generation << " "
                          << v.invariant << ": " << v.detail;
    EXPECT_TRUE(res.passed());
    ASSERT_EQ(res.generations.size(), 3u);

    std::uint64_t faulted = 0;
    for (const crashlab::GenerationResult &g : res.generations)
        faulted += g.slotsFaulted;
    EXPECT_GT(faulted, 0u);
    // Heavy damage promotes bad lines; the table survives restarts.
    EXPECT_GT(res.generations.back().remapEntries, 0u);
}

TEST(Lifecycle, SabotagedRemapTableAbortsTheSoak)
{
    crashlab::LifecycleConfig cfg = soakConfig(4);
    cfg.sabotageGeneration = 1;
    crashlab::LifecycleResult res = crashlab::runLifecycle(cfg);

    EXPECT_TRUE(res.aborted);
    EXPECT_FALSE(res.passed());
    ASSERT_EQ(res.generations.size(), 2u);
    bool found = false;
    for (const crashlab::Violation &v :
         res.generations.back().violations)
        if (v.invariant == "remap-table-valid")
            found = true;
    EXPECT_TRUE(found)
        << "sabotage must surface as a remap-table-valid violation";
}
