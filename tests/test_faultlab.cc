/**
 * @file
 * Tests for faultlab: log record format v2 (CRC + version), the
 * deterministic NVRAM media-fault injector, snapshot-image faulting,
 * the salvaging recovery scanner (quarantine soundness, salvage
 * idempotence), the pre-truncation image the crash checkers replay
 * again, transaction abort with in-log undo rollback, and the
 * log-full reclaim path's golden counts.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/system.hh"
#include "crashlab/faultlab.hh"
#include "mem/backing_store.hh"
#include "mem/fault_model.hh"
#include "mem/mem_device.hh"
#include "persist/log_record.hh"
#include "persist/log_region.hh"
#include "persist/recovery.hh"
#include "workloads/driver.hh"

using namespace snf;
using namespace snf::persist;

namespace
{

void
flipBit(std::uint8_t img[LogRecord::kSlotBytes], unsigned bit)
{
    img[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
}

/** In-image log writer used to fabricate damaged crash states. */
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

    /** Append, returning the slot's NVRAM address. */
    Addr
    append(const LogRecord &rec)
    {
        std::uint8_t img[LogRecord::kSlotBytes];
        rec.serialize(img, (pass & 1) != 0);
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

struct Fixture
{
    AddressMap map;
    mem::BackingStore image;
    ImageLog log;

    Fixture()
        : map(makeMap()), image(map.nvramBase, 1 << 22),
          log(image, map)
    {
    }

    static AddressMap
    makeMap()
    {
        AddressMap m;
        m.nvramSize = 1 << 22;
        m.logSize = 4096;
        return m;
    }

    Addr data(std::uint64_t i) const { return map.heapBase() + i * 8; }
};

} // namespace

// ------------------------- record format v2 ----------------------

TEST(LogRecordV2, PayloadBytesUnchangedFromV1)
{
    // The CRC and version live in formerly-slack header bytes, so
    // the NVRAM write traffic per record is identical to v1 (this
    // pins the Fig 9 / Table I cost model).
    EXPECT_EQ(LogRecord::commit(0, 1).payloadBytes(), 16u);
    EXPECT_EQ(LogRecord::update(0, 1, 64, 8, 5, std::nullopt)
                  .payloadBytes(),
              24u);
    EXPECT_EQ(LogRecord::update(0, 1, 64, 8, std::nullopt, 5)
                  .payloadBytes(),
              24u);
    EXPECT_EQ(LogRecord::update(0, 1, 64, 8, 5, 6).payloadBytes(),
              32u);
}

TEST(LogRecordV2, ClassifySeparatesEmptyTornValid)
{
    std::uint8_t img[LogRecord::kSlotBytes] = {};
    EXPECT_EQ(classifySlot(img).cls, SlotClass::Empty);

    img[20] = 0xab; // payload bytes landed, header did not
    EXPECT_EQ(classifySlot(img).cls, SlotClass::Torn);

    LogRecord::update(2, 7, 0x1000, 8, 3, 4).serialize(img, true);
    SlotInfo info = classifySlot(img);
    EXPECT_EQ(info.cls, SlotClass::Valid);
    EXPECT_TRUE(info.torn);
    EXPECT_EQ(info.rec.tx, 7);
    EXPECT_EQ(info.rec.undo, 3u);
    EXPECT_EQ(info.rec.redo, 4u);
}

TEST(LogRecordV2, CommitRecordCarriesUpdateCount)
{
    std::uint8_t img[LogRecord::kSlotBytes];
    LogRecord::commit(1, 42, 17).serialize(img, false);
    SlotInfo info = classifySlot(img);
    ASSERT_EQ(info.cls, SlotClass::Valid);
    EXPECT_TRUE(info.rec.isCommit);
    EXPECT_EQ(info.rec.nUpdates, 17u);
}

TEST(LogRecordV2, CrcDetectsAllSingleBitPayloadFlips)
{
    std::uint8_t ref[LogRecord::kSlotBytes];
    LogRecord rec = LogRecord::update(3, 0xbeef, 0x123456789abcULL, 8,
                                      111, 222);
    rec.serialize(ref, true);
    unsigned payloadBits = rec.payloadBytes() * 8;
    for (unsigned bit = 0; bit < payloadBits; ++bit) {
        std::uint8_t img[LogRecord::kSlotBytes];
        std::memcpy(img, ref, sizeof(img));
        flipBit(img, bit);
        EXPECT_NE(classifySlot(img).cls, SlotClass::Valid)
            << "undetected flip of payload bit " << bit;
    }
}

TEST(LogRecordV2, CrcDetectsAllDoubleBitPayloadFlips)
{
    // The CRC32 has Hamming distance 4 at 256 bits, so every 2-bit
    // error within the covered payload must be caught. Exhaustive
    // over all pairs of a full 32-byte record: 256*255/2 checks.
    std::uint8_t ref[LogRecord::kSlotBytes];
    LogRecord rec = LogRecord::update(1, 77, 0x2000, 8, 10, 20);
    rec.serialize(ref, false);
    unsigned payloadBits = rec.payloadBytes() * 8;
    ASSERT_EQ(payloadBits, 256u);
    for (unsigned b1 = 0; b1 < payloadBits; ++b1) {
        for (unsigned b2 = b1 + 1; b2 < payloadBits; ++b2) {
            std::uint8_t img[LogRecord::kSlotBytes];
            std::memcpy(img, ref, sizeof(img));
            flipBit(img, b1);
            flipBit(img, b2);
            ASSERT_NE(classifySlot(img).cls, SlotClass::Valid)
                << "undetected flips of bits " << b1 << "," << b2;
        }
    }
}

TEST(LogRecordV2, SlackBitFlipsLeaveRecordIntact)
{
    // Bytes past payloadBytes() are never written to NVRAM; a flip
    // landing there must not change what the record means.
    std::uint8_t ref[LogRecord::kSlotBytes];
    LogRecord rec = LogRecord::commit(0, 9, 3); // 16 B payload
    rec.serialize(ref, false);
    for (unsigned bit = rec.payloadBytes() * 8;
         bit < LogRecord::kSlotBytes * 8; ++bit) {
        std::uint8_t img[LogRecord::kSlotBytes];
        std::memcpy(img, ref, sizeof(img));
        flipBit(img, bit);
        SlotInfo info = classifySlot(img);
        ASSERT_EQ(info.cls, SlotClass::Valid);
        EXPECT_TRUE(info.rec.isCommit);
        EXPECT_EQ(info.rec.tx, 9);
        EXPECT_EQ(info.rec.nUpdates, 3u);
    }
}

namespace
{

// A coroutine proper (not a capturing coroutine lambda): @p base is
// copied into the coroutine frame, so it stays valid across
// suspensions after the spawning scope's temporaries are gone.
sim::Co<void>
flipWorkerBody(Thread &t, Addr base)
{
    Addr mine = base + t.id() * 128;
    for (int i = 0; i < 6; ++i) {
        co_await t.txBegin();
        co_await t.store64(mine + 8 * (i % 4), i + 1);
        co_await t.txCommit();
    }
}

} // namespace

// Satellite property: across ALL nine persistence modes, run a real
// workload, drain everything to NVRAM, and then try every single-bit
// flip (and a deterministic sample of double-bit flips) on every
// valid slot of the drained log window. Each flip must either be
// detected (the slot no longer classifies Valid) or land in slack
// bytes the record never wrote (content unchanged).
TEST(LogRecordV2, EveryFlipInDrainedWindowDetectedAcrossModes)
{
    for (PersistMode mode : kAllModes) {
        SystemConfig cfg = SystemConfig::scaled(2);
        System sys(cfg, mode);
        Addr base = sys.heap().alloc(1024, 64);
        for (CoreId c = 0; c < 2; ++c) {
            sys.spawn(c, [base](Thread &t) {
                return flipWorkerBody(t, base);
            });
        }
        Tick end = sys.run();
        sys.flushAll(end);
        const mem::BackingStore &img = sys.mem().nvram().store();

        const AddressMap &map = sys.config().map;
        std::uint64_t slots =
            (map.logSize - LogRegion::kHeaderBytes) /
            LogRecord::kSlotBytes;
        std::uint64_t checked = 0;
        for (std::uint64_t s = 0; s < slots && checked < 24; ++s) {
            Addr addr = map.logBase() + LogRegion::kHeaderBytes +
                        s * LogRecord::kSlotBytes;
            std::uint8_t ref[LogRecord::kSlotBytes];
            img.read(addr, sizeof(ref), ref);
            SlotInfo orig = classifySlot(ref);
            if (orig.cls != SlotClass::Valid)
                continue;
            ++checked;
            unsigned payloadBits = orig.rec.payloadBytes() * 8;
            auto checkFlips = [&](unsigned b1, int b2) {
                std::uint8_t mut[LogRecord::kSlotBytes];
                std::memcpy(mut, ref, sizeof(mut));
                flipBit(mut, b1);
                if (b2 >= 0)
                    flipBit(mut, static_cast<unsigned>(b2));
                bool inPayload = b1 < payloadBits ||
                                 (b2 >= 0 && static_cast<unsigned>(
                                                 b2) < payloadBits);
                SlotInfo info = classifySlot(mut);
                if (inPayload) {
                    ASSERT_NE(info.cls, SlotClass::Valid)
                        << persistModeName(mode) << " slot " << s
                        << " bits " << b1 << "," << b2;
                } else {
                    // Slack-only damage: content must be unchanged.
                    ASSERT_EQ(info.cls, SlotClass::Valid);
                    EXPECT_EQ(info.rec.tx, orig.rec.tx);
                    EXPECT_EQ(info.rec.addr, orig.rec.addr);
                    EXPECT_EQ(info.rec.undo, orig.rec.undo);
                    EXPECT_EQ(info.rec.redo, orig.rec.redo);
                }
            };
            for (unsigned bit = 0; bit < LogRecord::kSlotBytes * 8;
                 ++bit)
                checkFlips(bit, -1);
            // Deterministic double-flip sample: 256 pairs per slot.
            for (unsigned bit = 0; bit < LogRecord::kSlotBytes * 8;
                 ++bit)
                checkFlips(bit,
                           static_cast<int>((bit * 7 + 13) % 256));
        }
        // Every mode that logs at all must have given us slots to
        // check (NonPers legitimately has none).
        if (mode != PersistMode::NonPers) {
            EXPECT_GT(checked, 0u) << persistModeName(mode);
        }
    }
}

// --------------------- live fault injector -----------------------

namespace
{

mem::FaultCounters
applyToLine(const FaultModelConfig &cfg, std::uint8_t *buf,
            const std::uint8_t *oldData, Tick tick)
{
    mem::FaultInjector inj(cfg, 4096);
    return inj.apply(0x1000, 64, buf, oldData, tick);
}

} // namespace

TEST(FaultInjector, DroppedWriteKeepsOldBytes)
{
    FaultModelConfig cfg;
    cfg.seed = 5;
    cfg.dropWriteProb = 1.0;
    std::uint8_t buf[64], old[64];
    std::memset(buf, 0xaa, sizeof(buf));
    std::memset(old, 0x55, sizeof(old));
    auto c = applyToLine(cfg, buf, old, 100);
    EXPECT_EQ(c.droppedWrites, 1u);
    EXPECT_EQ(std::memcmp(buf, old, sizeof(buf)), 0);
}

TEST(FaultInjector, TornLineKeepsTailOldBytes)
{
    FaultModelConfig cfg;
    cfg.seed = 5;
    cfg.tornLineProb = 1.0;
    std::uint8_t buf[64], old[64];
    std::memset(buf, 0xaa, sizeof(buf));
    std::memset(old, 0x55, sizeof(old));
    auto c = applyToLine(cfg, buf, old, 100);
    EXPECT_EQ(c.tornLines, 1u);
    for (unsigned i = 0; i < mem::FaultInjector::kTornBytes; ++i)
        EXPECT_EQ(buf[i], 0xaa) << i;
    for (unsigned i = mem::FaultInjector::kTornBytes; i < 64; ++i)
        EXPECT_EQ(buf[i], 0x55) << i;
}

TEST(FaultInjector, BitFlipFlipsExactlyOneBit)
{
    FaultModelConfig cfg;
    cfg.seed = 9;
    cfg.bitFlipProb = 1.0;
    std::uint8_t buf[64], old[64];
    std::memset(buf, 0, sizeof(buf));
    std::memset(old, 0, sizeof(old));
    auto c = applyToLine(cfg, buf, old, 7);
    EXPECT_EQ(c.bitFlips, 1u);
    unsigned set = 0;
    for (unsigned i = 0; i < 64; ++i)
        set += __builtin_popcount(buf[i]);
    EXPECT_EQ(set, 1u);
}

TEST(FaultInjector, DamageIsDeterministicPerSeed)
{
    FaultModelConfig cfg;
    cfg.seed = 42;
    cfg.bitFlipProb = 1.0;
    std::uint8_t a[64], b[64], old[64];
    std::memset(a, 0, sizeof(a));
    std::memset(b, 0, sizeof(b));
    std::memset(old, 0, sizeof(old));
    applyToLine(cfg, a, old, 300);
    applyToLine(cfg, b, old, 300);
    EXPECT_EQ(std::memcmp(a, b, sizeof(a)), 0);

    // A different tick (or seed) picks a different bit eventually.
    bool differs = false;
    for (Tick t = 301; t < 320 && !differs; ++t) {
        std::memset(b, 0, sizeof(b));
        applyToLine(cfg, b, old, t);
        differs = std::memcmp(a, b, sizeof(a)) != 0;
    }
    EXPECT_TRUE(differs);
}

TEST(FaultInjector, StuckRowIsTickIndependent)
{
    FaultModelConfig cfg;
    cfg.seed = 3;
    cfg.stuckRowProb = 1.0;
    mem::FaultInjector inj(cfg, 4096);
    EXPECT_TRUE(inj.rowIsStuck(7));
    EXPECT_EQ(inj.stuckValue(7), inj.stuckValue(7));
    EXPECT_EQ(inj.stuckWordOffset(7), inj.stuckWordOffset(7));
    EXPECT_LT(inj.stuckWordOffset(7), 4096u);
    EXPECT_EQ(inj.stuckWordOffset(7) % 8, 0u);
}

TEST(FaultInjector, LiveRunFaultCountIsDeterministic)
{
    auto run = [](std::uint64_t seed) {
        workloads::RunSpec spec;
        spec.workload = "sps";
        spec.mode = PersistMode::Fwb;
        spec.params.threads = 2;
        spec.params.txPerThread = 150;
        spec.sys = SystemConfig::scaled(2);
        spec.sys.nvram.faults = FaultModelConfig::heavy(seed);
        return workloads::runWorkload(spec);
    };
    auto a = run(3);
    auto b = run(3);
    EXPECT_GT(a.stats.faultsInjected, 0u);
    EXPECT_EQ(a.stats.faultsInjected, b.stats.faultsInjected);
    EXPECT_EQ(a.verified, b.verified);
}

TEST(FaultInjector, LogRegionFaultParityAcrossBackends)
{
    // Fault parity is enforced by construction since reorderlab:
    // MemDevice asserts that every timed write landing in the durable
    // log region arrives on the serialized priority channel with a
    // log/metadata origin — the single path the injector instruments
    // — so neither backend *can* grow a log write path that bypasses
    // fault injection. This test drives both backends through
    // log-region-scoped faults (tripping that assert on any escape
    // path) and checks the structural evidence: the injector must
    // have examined log-region bytes, and faults must land, under
    // BOTH backends.
    auto run = [](PersistMode mode) {
        workloads::RunSpec spec;
        spec.workload = "sps";
        spec.mode = mode;
        spec.params.threads = 2;
        spec.params.txPerThread = 200;
        spec.sys = SystemConfig::scaled(2);
        FaultModelConfig faults;
        faults.seed = 11;
        faults.bitFlipProb = 5e-3;
        faults.regionBase = spec.sys.map.logBase();
        faults.regionSize = spec.sys.map.logSize;
        spec.sys.nvram.faults = faults;
        return workloads::runWorkload(spec);
    };
    auto hw = run(PersistMode::Fwb);
    auto sw = run(PersistMode::UndoClwb);
    // Structural: every log write passed through the injector's
    // scope, so both backends show examined bytes — deterministic
    // evidence that does not depend on fault-probability luck.
    EXPECT_GT(hw.stats.faultExaminedBytes, 0u)
        << "hardware log writes bypass the fault injector";
    EXPECT_GT(sw.stats.faultExaminedBytes, 0u)
        << "software log writes bypass the fault injector";
    // And at this rate faults do land under both.
    EXPECT_GT(hw.stats.faultsInjected, 0u);
    EXPECT_GT(sw.stats.faultsInjected, 0u);
}

// --------------------- image faulting (sweep) --------------------

TEST(ImageFaults, OnlyValidSlotsDamagedAndPlanIsExact)
{
    Fixture f;
    f.log.append(LogRecord::update(0, 10, f.data(0), 8, 1, 2));
    f.log.append(LogRecord::commit(0, 10, 1));
    f.log.append(LogRecord::update(0, 11, f.data(1), 8, 3, 4));

    crashlab::ImageFaultConfig cfg;
    cfg.seed = 1;
    cfg.dropSlotProb = 1.0;
    auto plan = crashlab::applyImageFaults(f.image, f.map, cfg, 500);
    EXPECT_EQ(plan.slotsFaulted, 3u);
    EXPECT_EQ(plan.droppedSlots, 3u);
    ASSERT_EQ(plan.damagedTxIds.size(), 2u);
    EXPECT_TRUE(plan.damaged(10));
    EXPECT_TRUE(plan.damaged(11));
    EXPECT_FALSE(plan.damaged(12));

    // Dropped slots read back as never-written.
    std::uint8_t img[LogRecord::kSlotBytes];
    f.image.read(f.log.slotAddr(0), sizeof(img), img);
    EXPECT_EQ(classifySlot(img).cls, SlotClass::Empty);
}

TEST(ImageFaults, DeterministicPerSeedAndTick)
{
    auto damage = [](std::uint64_t seed, Tick tick) {
        Fixture f;
        for (int i = 0; i < 40; ++i) {
            f.log.append(LogRecord::update(
                0, static_cast<std::uint16_t>(i), f.data(i), 8, i,
                i + 1));
        }
        crashlab::ImageFaultConfig cfg;
        cfg.seed = seed;
        cfg.bitFlipProb = 0.3;
        auto plan = crashlab::applyImageFaults(f.image, f.map, cfg,
                                               tick);
        return plan.damagedTxIds;
    };
    EXPECT_EQ(damage(7, 100), damage(7, 100));
    EXPECT_NE(damage(7, 100), damage(8, 100));
}

// --------------------- salvaging recovery ------------------------

TEST(Salvage, QuarantinesOnlyDamagedCommittedTxn)
{
    Fixture f;
    f.image.write64(f.data(0), 1);
    f.image.write64(f.data(1), 1);
    f.image.write64(f.data(2), 1);
    // tx 10: two updates + commit; one update will be destroyed.
    Addr victim = f.log.append(
        LogRecord::update(0, 10, f.data(0), 8, 1, 50));
    f.log.append(LogRecord::update(0, 10, f.data(1), 8, 1, 60));
    f.log.append(LogRecord::commit(0, 10, 2));
    // tx 11: undamaged.
    f.log.append(LogRecord::update(0, 11, f.data(2), 8, 1, 70));
    f.log.append(LogRecord::commit(0, 11, 1));

    std::uint8_t zero[LogRecord::kSlotBytes] = {};
    f.image.write(victim, sizeof(zero), zero);

    auto report = Recovery::run(f.image, f.map);
    EXPECT_EQ(report.committedTxns, 2u);
    EXPECT_EQ(report.salvagedTxns, 1u);
    EXPECT_EQ(report.quarantinedTxns, 1u);
    ASSERT_EQ(report.quarantinedTxIds.size(), 1u);
    EXPECT_EQ(report.quarantinedTxIds[0], 10);
    // The quarantined txn is left untouched — neither of its redo
    // values may be replayed (zero false replays).
    EXPECT_EQ(f.image.read64(f.data(0)), 1u);
    EXPECT_EQ(f.image.read64(f.data(1)), 1u);
    // The undamaged txn replays normally.
    EXPECT_EQ(f.image.read64(f.data(2)), 70u);
}

// A crash can land while the log's last slot is being overwritten:
// the next pass's payload has landed under the old header, so the
// slot fails its CRC under the previous pass's torn bit, and no valid
// slot of that pass is left past the window. The log has wrapped all
// the same, so tx 9, whose oldest updates were reclaimed, is salvaged.
TEST(Salvage, HalfOverwrittenLastSlotMeansTheLogWrapped)
{
    Fixture f;
    const std::uint64_t n = f.log.slots;
    // Pass 1: filler, then tx 9's first two updates in the last two
    // slots. Their data persisted before pass 2 reclaimed them.
    for (std::uint64_t i = 0; i + 2 < n; ++i)
        f.log.append(LogRecord::commit(0, 100));
    f.log.append(LogRecord::update(0, 9, f.data(0), 8, 0, 90));
    const Addr last =
        f.log.append(LogRecord::update(0, 9, f.data(1), 8, 0, 91));
    f.image.write64(f.data(0), 90);
    f.image.write64(f.data(1), 91);
    // Pass 2: tx 9's other two updates and its commit, then filler
    // up to the last slot.
    f.log.append(LogRecord::update(0, 9, f.data(2), 8, 0, 92));
    f.log.append(LogRecord::update(0, 9, f.data(3), 8, 0, 93));
    f.log.append(LogRecord::commit(0, 9, 4));
    for (std::uint64_t i = 3; i + 1 < n; ++i)
        f.log.append(LogRecord::commit(0, 100));
    std::uint8_t img[LogRecord::kSlotBytes];
    LogRecord::commit(0, 101).serialize(img, false);
    f.image.write(last + 8, sizeof(img) - 8, img + 8);
    f.image.read(last, sizeof(img), img);
    ASSERT_EQ(classifySlot(img).cls, SlotClass::CrcFail);

    auto report = Recovery::run(f.image, f.map);
    EXPECT_EQ(report.crcFailSlots, 1u);
    EXPECT_EQ(report.quarantinedTxns, 0u);
    EXPECT_EQ(f.image.read64(f.data(2)), 92u);
    EXPECT_EQ(f.image.read64(f.data(3)), 93u);
}

// The same crash on the log's first pass hits a first write of the
// slot, with no written marker yet: it reads Torn, the log has not
// wrapped, and a commit whose update is missing is damage.
TEST(Salvage, FirstWriteOfTheLastSlotIsNoWrap)
{
    Fixture f;
    const std::uint64_t n = f.log.slots;
    for (std::uint64_t i = 0; i + 3 < n; ++i)
        f.log.append(LogRecord::commit(0, 100));
    f.log.append(LogRecord::update(0, 9, f.data(2), 8, 0, 92));
    f.log.append(LogRecord::commit(0, 9, 2));
    std::uint8_t img[LogRecord::kSlotBytes];
    LogRecord::commit(0, 101).serialize(img, true);
    const Addr last = f.log.slotAddr(n - 1);
    f.image.write(last + 8, sizeof(img) - 8, img + 8);
    f.image.read(last, sizeof(img), img);
    ASSERT_EQ(classifySlot(img).cls, SlotClass::Torn);

    auto report = Recovery::run(f.image, f.map);
    EXPECT_EQ(report.tornSlots, 1u);
    EXPECT_EQ(report.quarantinedTxns, 1u);
    EXPECT_EQ(f.image.read64(f.data(2)), 0u);
}

TEST(Salvage, CrcDamageCountedAndLocated)
{
    Fixture f;
    f.image.write64(f.data(0), 1);
    Addr victim = f.log.append(
        LogRecord::update(0, 20, f.data(0), 8, 1, 90));
    f.log.append(LogRecord::commit(0, 20, 1));

    std::uint8_t img[LogRecord::kSlotBytes];
    f.image.read(victim, sizeof(img), img);
    flipBit(img, 70); // payload bit: CRC must catch it
    f.image.write(victim, sizeof(img), img);

    auto report = Recovery::run(f.image, f.map);
    EXPECT_EQ(report.crcFailSlots, 1u);
    EXPECT_EQ(report.firstBadSlotAddr, victim);
    EXPECT_EQ(report.quarantinedTxns, 1u);
    EXPECT_EQ(f.image.read64(f.data(0)), 1u);
}

TEST(Salvage, IdempotentUnderDamage)
{
    // Invariant I8: running the (non-truncating) salvage twice over
    // a damaged image agrees byte for byte with running it once.
    Fixture f;
    f.image.write64(f.data(0), 1);
    f.image.write64(f.data(1), 1);
    Addr victim = f.log.append(
        LogRecord::update(0, 30, f.data(0), 8, 1, 11));
    f.log.append(LogRecord::commit(0, 30, 1));
    f.log.append(LogRecord::update(0, 31, f.data(1), 8, 1, 22));
    f.log.append(LogRecord::commit(0, 31, 1));
    std::uint8_t img[LogRecord::kSlotBytes];
    f.image.read(victim, sizeof(img), img);
    flipBit(img, 90);
    f.image.write(victim, sizeof(img), img);

    RecoveryOptions noTrunc;
    noTrunc.truncateLog = false;
    mem::BackingStore once = f.image;
    Recovery::run(once, f.map, noTrunc);
    mem::BackingStore twice = once;
    Recovery::run(twice, f.map, noTrunc);
    EXPECT_EQ(once.firstDifference(twice, f.map.nvramBase,
                                   f.map.nvramSize),
              std::nullopt);
}

TEST(Salvage, IgnoreCrcFaultInjectionReplaysGarbage)
{
    // The --inject-ignore-crc self-test bug: trusting a damaged slot
    // replays a corrupted redo value the CRC would have stopped.
    Fixture f;
    f.image.write64(f.data(0), 1);
    Addr victim = f.log.append(
        LogRecord::update(0, 40, f.data(0), 8, 1, 0x100));
    f.log.append(LogRecord::commit(0, 40, 1));
    std::uint8_t img[LogRecord::kSlotBytes];
    f.image.read(victim, sizeof(img), img);
    flipBit(img, 26 * 8); // corrupt a redo-value byte
    f.image.write(victim, sizeof(img), img);

    mem::BackingStore checked = f.image;
    auto good = Recovery::run(checked, f.map);
    EXPECT_EQ(good.quarantinedTxns, 1u);
    EXPECT_EQ(checked.read64(f.data(0)), 1u);

    RecoveryOptions unchecked;
    unchecked.faultIgnoreCrc = true;
    auto bad = Recovery::run(f.image, f.map, unchecked);
    EXPECT_EQ(bad.quarantinedTxns, 0u);
    EXPECT_NE(f.image.read64(f.data(0)), 1u); // garbage replayed
}

namespace
{

sim::Co<void>
counterWorkerBody(Thread &t, Addr base, int iters)
{
    Addr mine = base + t.id() * 64;
    for (int i = 0; i < iters; ++i) {
        co_await t.txBegin();
        co_await t.store64(mine, i + 1);
        co_await t.txCommit();
    }
}

} // namespace

TEST(Salvage, FaultedCheckerPassesOnHonestRecovery)
{
    // End-to-end: a real crash snapshot, deterministic image damage,
    // and the faulted invariant set must hold for the real recovery.
    SystemConfig cfg = SystemConfig::scaled(2);
    cfg.persist.crashJournal = true;
    System sys(cfg, PersistMode::Fwb);
    Addr base = sys.heap().alloc(512, 64);
    for (CoreId c = 0; c < 2; ++c) {
        sys.spawn(c, [base](Thread &t) {
            return counterWorkerBody(t, base, 20);
        });
    }
    Tick end = sys.run();

    crashlab::ImageFaultConfig faults;
    faults.seed = 11;
    faults.bitFlipProb = 0.05;
    faults.dropSlotProb = 0.02;

    crashlab::CrashFacts facts;
    facts.tick = end;
    facts.threads = 2;
    facts.txBegun = 40;
    facts.txCommitted = 40;
    facts.mode = PersistMode::Fwb;

    mem::BackingStore image = sys.crashSnapshot(end);
    persist::RecoveryReport rep;
    crashlab::ImageFaultPlan plan;
    auto violations = crashlab::checkFaultedCrashPoint(
        image, sys.config().map, faults, facts, RecoveryOptions{},
        &rep, &plan);
    for (const auto &v : violations)
        ADD_FAILURE() << v.invariant << ": " << v.detail;
    EXPECT_GT(plan.slotsFaulted, 0u);
    // Quarantine can only hit transactions the plan damaged (a
    // damaged txn may instead surface as uncommitted, so <=).
    EXPECT_LE(rep.quarantinedTxns, plan.damagedTxIds.size());
}

// ------------------ recovery scan page memo ----------------------

namespace
{

sim::Co<void>
spanningWorkerBody(Thread &t, Addr base, int iters)
{
    // Four consecutive lines per transaction: one per shard of a
    // 4-shard log, so a sharded run writes prepares and masked commits.
    Addr mine = base + t.id() * 256;
    for (int i = 0; i < iters; ++i) {
        co_await t.txBegin();
        for (int l = 0; l < 4; ++l)
            co_await t.store64(mine + l * 64, i + 1);
        co_await t.txCommit();
    }
}

void
expectSameShard(const ShardSummary &a, const ShardSummary &b)
{
    EXPECT_EQ(a.shard, b.shard);
    EXPECT_EQ(a.headerValid, b.headerValid);
    EXPECT_EQ(a.dead, b.dead);
    EXPECT_EQ(a.wrapped, b.wrapped);
    EXPECT_EQ(a.slotsScanned, b.slotsScanned);
    EXPECT_EQ(a.validRecords, b.validRecords);
    EXPECT_EQ(a.salvagedTxns, b.salvagedTxns);
    EXPECT_EQ(a.quarantinedTxns, b.quarantinedTxns);
    EXPECT_EQ(a.abortedDeadShard, b.abortedDeadShard);
}

void
expectSameReport(const RecoveryReport &a, const RecoveryReport &b)
{
    EXPECT_EQ(a.headerValid, b.headerValid);
    EXPECT_EQ(a.slotsScanned, b.slotsScanned);
    EXPECT_EQ(a.validRecords, b.validRecords);
    EXPECT_EQ(a.committedTxns, b.committedTxns);
    EXPECT_EQ(a.uncommittedTxns, b.uncommittedTxns);
    EXPECT_EQ(a.redoApplied, b.redoApplied);
    EXPECT_EQ(a.undoApplied, b.undoApplied);
    EXPECT_EQ(a.salvagedTxns, b.salvagedTxns);
    EXPECT_EQ(a.quarantinedTxns, b.quarantinedTxns);
    EXPECT_EQ(a.emptySlots, b.emptySlots);
    EXPECT_EQ(a.tornSlots, b.tornSlots);
    EXPECT_EQ(a.crcFailSlots, b.crcFailSlots);
    EXPECT_EQ(a.stalePassSlots, b.stalePassSlots);
    EXPECT_EQ(a.firstBadSlotAddr, b.firstBadSlotAddr);
    EXPECT_EQ(a.quarantinedTxIds, b.quarantinedTxIds);
    EXPECT_EQ(a.writesIssued, b.writesIssued);
    EXPECT_EQ(a.writesApplied, b.writesApplied);
    EXPECT_EQ(a.interrupted, b.interrupted);
    EXPECT_EQ(a.promotedLines, b.promotedLines);
    EXPECT_EQ(a.remapCorrupt, b.remapCorrupt);
    EXPECT_EQ(a.touchedLines, b.touchedLines);
    ASSERT_EQ(a.shards.size(), b.shards.size());
    for (std::size_t s = 0; s < a.shards.size(); ++s)
        expectSameShard(a.shards[s], b.shards[s]);
    EXPECT_EQ(a.deadShardAborted, b.deadShardAborted);
    EXPECT_EQ(a.deadShardAbortTxIds, b.deadShardAbortTxIds);
}

/**
 * Recover a copy of @p image on this thread, whose scan memo carries
 * over from every earlier call, and another copy on a fresh thread,
 * whose memo is cold. Both reports and both recovered images must
 * agree; returns the recovered image and its report.
 */
std::pair<mem::BackingStore, RecoveryReport>
recoverWarmAndCold(const mem::BackingStore &image, const AddressMap &map,
                   const RecoveryOptions &opts)
{
    mem::BackingStore warm = image;
    RecoveryReport rw = Recovery::run(warm, map, opts);
    mem::BackingStore cold = image;
    RecoveryReport rc;
    std::thread([&] { rc = Recovery::run(cold, map, opts); }).join();
    expectSameReport(rw, rc);
    EXPECT_EQ(warm.firstDifference(cold, warm.base(), warm.size()),
              std::nullopt);
    return {std::move(warm), rw};
}

} // namespace

TEST(RecoveryMemo, WarmScanMatchesColdScan)
{
    RecoveryOptions replay;
    replay.truncateLog = false;
    RecoveryOptions canon;
    canon.collectWrites = true;

    // Ascending crash snapshots of one journaled run, each replayed
    // without truncation, recovered, and its truncated result
    // recovered again before the next (untruncated) snapshot.
    SystemConfig cfg = SystemConfig::scaled(2);
    cfg.persist.crashJournal = true;
    System sys(cfg, PersistMode::Fwb);
    const AddressMap &map = sys.config().map;
    Addr base = sys.heap().alloc(512, 64);
    for (CoreId c = 0; c < 2; ++c) {
        sys.spawn(c, [base](Thread &t) {
            return spanningWorkerBody(t, base, 60);
        });
    }
    Tick end = sys.run();
    constexpr int kPoints = 6;
    for (int k = 1; k <= kPoints; ++k) {
        SCOPED_TRACE(k);
        mem::BackingStore image = sys.crashSnapshot(end * k / kPoints);
        recoverWarmAndCold(image, map, replay);
        auto [truncated, rep] = recoverWarmAndCold(image, map, canon);
        EXPECT_GT(rep.validRecords, 0u);
        recoverWarmAndCold(truncated, map, canon);
    }

    // One bit flipped in the first (valid) slot, a page the memo
    // holds from the last snapshot above: the damage must be seen,
    // then trusted with faultIgnoreCrc on, then seen again.
    mem::BackingStore damaged = sys.crashSnapshot(end);
    const Addr slot = map.logBase() + LogRegion::kHeaderBytes;
    std::uint8_t img[LogRecord::kSlotBytes];
    damaged.read(slot, sizeof(img), img);
    ASSERT_EQ(classifySlot(img).cls, SlotClass::Valid);
    flipBit(img, 2 * 8); // the transaction ID's low bit
    damaged.write(slot, sizeof(img), img);
    RecoveryOptions ignoreCrc = canon;
    ignoreCrc.faultIgnoreCrc = true;
    EXPECT_EQ(recoverWarmAndCold(damaged, map, canon).second.crcFailSlots,
              1u);
    EXPECT_EQ(
        recoverWarmAndCold(damaged, map, ignoreCrc).second.crcFailSlots,
        0u);
    EXPECT_EQ(recoverWarmAndCold(damaged, map, canon).second.crcFailSlots,
              1u);

    // A 4-shard log over the same log area: the same chunk addresses
    // now hold other shards' headers and records.
    SystemConfig scfg = cfg;
    scfg.persist.logShards = 4;
    System ssys(scfg, PersistMode::Fwb);
    const AddressMap &smap = ssys.config().map;
    ASSERT_EQ(smap.logShards, 4u);
    Addr sbase = ssys.heap().alloc(512, 64);
    for (CoreId c = 0; c < 2; ++c) {
        ssys.spawn(c, [sbase](Thread &t) {
            return spanningWorkerBody(t, sbase, 60);
        });
    }
    Tick send = ssys.run();
    for (int k = 1; k <= kPoints; ++k) {
        SCOPED_TRACE(100 + k);
        mem::BackingStore image =
            ssys.crashSnapshot(send * k / kPoints);
        recoverWarmAndCold(image, smap, replay);
        auto [truncated, rep] = recoverWarmAndCold(image, smap, canon);
        EXPECT_EQ(rep.shards.size(), 4u);
        recoverWarmAndCold(truncated, smap, canon);
    }
}

// ------------ the canonical pass's pre-truncation image ----------

namespace
{

/** One journaled run of a named workload, kept for crash snapshots. */
class JournaledRun
{
  public:
    JournaledRun(const std::string &workload, SystemConfig cfg,
                 PersistMode mode, const workloads::WorkloadParams &p)
        : params(p), wl(workloads::makeWorkload(workload))
    {
        cfg.persist.crashJournal = true;
        sys = std::make_unique<System>(cfg, mode);
        wl->setup(*sys, params);
        for (CoreId c = 0; c < params.threads; ++c)
            sys->spawn(c, [this](Thread &t) {
                return wl->thread(*sys, t, params);
            });
        end = sys->run();
    }

    // The spawned threads hold `this`.
    JournaledRun(const JournaledRun &) = delete;
    JournaledRun &operator=(const JournaledRun &) = delete;

    /** Crash image @p k / @p n of the way through the run. */
    mem::BackingStore
    snapshot(int k, int n) const
    {
        return sys->crashSnapshot(end * k / n);
    }

    const AddressMap &map() const { return sys->config().map; }

    workloads::WorkloadParams params;
    std::unique_ptr<workloads::Workload> wl;
    std::unique_ptr<System> sys;
    Tick end = 0;
};

workloads::WorkloadParams
smallParams(std::uint32_t threads, std::uint64_t tx)
{
    workloads::WorkloadParams p;
    p.threads = threads;
    p.txPerThread = tx;
    p.seed = 5;
    return p;
}

/**
 * The identity the crash checkers rest on: the image Recovery::run
 * hands back through its `replayed` parameter is byte for byte what
 * the same pass with truncation off leaves, and asking for it changes
 * neither the report nor the recovered image. Returns the report.
 */
RecoveryReport
expectReplayedIsNonTruncatingPass(const mem::BackingStore &image,
                                  const AddressMap &map,
                                  const RecoveryOptions &opts)
{
    mem::BackingStore recovered = image;
    mem::BackingStore replayed(image.base(), image.size());
    RecoveryReport rep = Recovery::run(recovered, map, opts, &replayed);

    RecoveryOptions noTrunc = opts;
    noTrunc.truncateLog = false;
    mem::BackingStore reference = image;
    Recovery::run(reference, map, noTrunc);
    EXPECT_EQ(replayed.firstDifference(reference, image.base(),
                                       image.size()),
              std::nullopt);

    mem::BackingStore plain = image;
    expectSameReport(rep, Recovery::run(plain, map, opts));
    EXPECT_EQ(recovered.firstDifference(plain, image.base(),
                                        image.size()),
              std::nullopt);
    return rep;
}

/**
 * Every image a canonical pass over @p image leaves when it is cut
 * inside its truncation, i.e. with a truncation flag raised: the
 * budgets from the first flag write to the last write but one, every
 * @p stride-th of them (1 = all).
 */
std::vector<mem::BackingStore>
cutInsideTruncation(const mem::BackingStore &image, const AddressMap &map,
                    const RecoveryOptions &opts, std::uint64_t stride)
{
    RecoveryOptions noTrunc = opts;
    noTrunc.truncateLog = false;
    mem::BackingStore probe = image;
    const std::uint64_t before =
        Recovery::run(probe, map, noTrunc).writesIssued;
    probe = image;
    const std::uint64_t total = Recovery::run(probe, map, opts).writesIssued;

    std::vector<mem::BackingStore> cut;
    for (std::uint64_t b = before + 1; b < total; b += stride) {
        RecoveryOptions budget = opts;
        budget.crashAfterWrites = b;
        mem::BackingStore img = image;
        EXPECT_TRUE(Recovery::run(img, map, budget).interrupted);
        bool raised = false;
        for (std::uint32_t s = 0; s < map.logShards; ++s)
            raised |= img.read64(map.logBase() +
                                 s * (map.logSize / map.logShards) +
                                 LogRegion::kTruncFlagOffset) != 0;
        EXPECT_TRUE(raised) << "budget " << b;
        cut.push_back(std::move(img));
    }
    return cut;
}

} // namespace

TEST(Recovery, ReplayedImageIsTheNonTruncatingPass)
{
    RecoveryOptions canon;

    // Ascending crash snapshots of one journaled sps run and of one
    // small TPC-C cell.
    constexpr int kPoints = 6;
    JournaledRun sps("sps", SystemConfig::scaled(2), PersistMode::Fwb,
                     smallParams(2, 40));
    SystemConfig tcfg = SystemConfig::scaled(2);
    tcfg.persist.ccMode = CcMode::TwoPhase;
    workloads::WorkloadParams tparams = smallParams(2, 20);
    tparams.footprint = 64;
    tparams.warehouses = 2;
    JournaledRun tpcc("oltp-tpcc", tcfg, PersistMode::Fwb, tparams);
    for (const JournaledRun *run : {&sps, &tpcc}) {
        for (int k = 1; k <= kPoints; ++k) {
            SCOPED_TRACE(run->wl->name() + " point " + std::to_string(k));
            RecoveryReport rep = expectReplayedIsNonTruncatingPass(
                run->snapshot(k, kPoints), run->map(), canon);
            EXPECT_GT(rep.redoApplied + rep.undoApplied, 0u);
        }
    }

    // Faultlab damage, light and heavy, with the CRC check off and
    // on, and with either replay phase skipped.
    RecoveryOptions ignoreCrc = canon;
    ignoreCrc.faultIgnoreCrc = true;
    RecoveryOptions skipRedo = canon;
    skipRedo.faultSkipRedo = true;
    RecoveryOptions skipUndo = canon;
    skipUndo.faultSkipUndo = true;
    std::uint64_t faulted = 0;
    for (int k = 2; k <= kPoints; k += 2) {
        for (const crashlab::ImageFaultConfig &faults :
             {crashlab::ImageFaultConfig::light(3),
              crashlab::ImageFaultConfig::heavy(3)}) {
            SCOPED_TRACE(std::to_string(k) + " heavy " +
                         std::to_string(faults.multiBitProb > 0));
            mem::BackingStore image = sps.snapshot(k, kPoints);
            faulted += crashlab::applyImageFaults(image, sps.map(), faults,
                                                  sps.end * k / kPoints)
                           .slotsFaulted;
            for (const RecoveryOptions &opts :
                 {canon, ignoreCrc, skipRedo, skipUndo})
                expectReplayedIsNonTruncatingPass(image, sps.map(), opts);
        }
    }
    EXPECT_GT(faulted, 0u);

    // A 4-shard log, clean and with shard 1's header wiped.
    SystemConfig scfg = SystemConfig::scaled(2);
    scfg.persist.logShards = 4;
    JournaledRun sharded("sps", scfg, PersistMode::Fwb,
                         smallParams(2, 40));
    ASSERT_EQ(sharded.map().logShards, 4u);
    crashlab::ImageFaultConfig kill;
    kill.killShard = 1;
    for (int k = 1; k <= kPoints; ++k) {
        SCOPED_TRACE("4 shards, point " + std::to_string(k));
        mem::BackingStore image = sharded.snapshot(k, kPoints);
        EXPECT_EQ(
            expectReplayedIsNonTruncatingPass(image, sharded.map(), canon)
                .shards.size(),
            4u);
        crashlab::applyImageFaults(image, sharded.map(), kill,
                                   sharded.end * k / kPoints);
        EXPECT_TRUE(
            expectReplayedIsNonTruncatingPass(image, sharded.map(), canon)
                .shards[1]
                .dead);
    }

    // A remapped image recovered with promoteBadLines: promotion
    // writes land before truncation. The log is small enough to cut
    // at every budget of its truncation below.
    SystemConfig rcfg = SystemConfig::scaled(2);
    rcfg.map.logSize = 8 * 1024;
    rcfg.map.remapSize = 16 * 1024;
    rcfg.map.spareSize = 32 * 1024;
    JournaledRun remapped("sps", rcfg, PersistMode::Fwb,
                          smallParams(2, 40));
    RecoveryOptions promote = canon;
    promote.promoteBadLines = true;
    mem::BackingStore damaged = remapped.snapshot(kPoints, kPoints);
    crashlab::applyImageFaults(damaged, remapped.map(),
                               crashlab::ImageFaultConfig::heavy(3),
                               remapped.end);
    EXPECT_GT(
        expectReplayedIsNonTruncatingPass(damaged, remapped.map(), promote)
            .promotedLines,
        0u);

    // Raised truncation flags (the resume path): the pass above, and
    // a clean 4-shard one, cut at budgets inside their truncation —
    // every budget of the remapped one.
    std::size_t resumed = 0;
    for (const mem::BackingStore &img :
         cutInsideTruncation(damaged, remapped.map(), promote, 1)) {
        SCOPED_TRACE("remapped resume " + std::to_string(resumed));
        expectReplayedIsNonTruncatingPass(img, remapped.map(), promote);
        ++resumed;
    }
    for (const mem::BackingStore &img : cutInsideTruncation(
             sharded.snapshot(kPoints, kPoints), sharded.map(), canon,
             97)) {
        SCOPED_TRACE("sharded resume " + std::to_string(resumed));
        expectReplayedIsNonTruncatingPass(img, sharded.map(), canon);
        ++resumed;
    }
    EXPECT_GT(resumed, 0u);
}

TEST(CrashPoint, IdempotenceChecksCatchALogThatRewritesItself)
{
    // A log that rewrites itself: tx 2 updates a data word and
    // commits, then committed tx 1 redoes a zero over tx 2's commit
    // record. The first replay applies tx 2 and then erases its
    // commit record, so a second replay finds tx 2 uncommitted and
    // rolls it back.
    Fixture f;
    const Addr victim = f.data(1);
    f.image.write64(victim, 7);
    f.log.append(LogRecord::update(0, 2, victim, 8, 7, 99));
    const Addr commit2 = f.log.append(LogRecord::commit(0, 2, 1));
    f.log.append(LogRecord::update(0, 1, commit2, 8, std::nullopt, 0));
    f.log.append(LogRecord::commit(0, 1, 1));

    crashlab::CrashFacts facts;
    facts.txBegun = 2;
    facts.txCommitted = 2;
    facts.txDurableCommits = 2;
    facts.threads = 1;
    facts.mode = PersistMode::NonPers; // no workload oracle runs
    char where[64];
    std::snprintf(where, sizeof(where), "first difference at 0x%llx",
                  static_cast<unsigned long long>(victim));

    auto wl = workloads::makeWorkload("sps");
    auto clean = crashlab::checkCrashPoint(f.image, f.map, *wl, facts,
                                           RecoveryOptions{});
    ASSERT_EQ(clean.size(), 1u);
    EXPECT_EQ(clean[0].invariant, "replay-idempotent");
    EXPECT_EQ(clean[0].detail,
              std::string("second replay changed the image, ") + where);

    auto faulted = crashlab::checkFaultedCrashPoint(
        f.image, f.map, crashlab::ImageFaultConfig{}, facts,
        RecoveryOptions{});
    ASSERT_EQ(faulted.size(), 1u);
    EXPECT_EQ(faulted[0].invariant, "salvage-idempotent");
    EXPECT_EQ(faulted[0].detail,
              std::string("second salvage pass changed the image, ") +
                  where);
}

// -------------------------- tx_abort -----------------------------

namespace
{

sim::Co<void>
abortingThread(Thread &t, Addr addr, bool *abortedFlag)
{
    co_await t.txBegin();
    co_await t.store64(addr, 100);
    co_await t.txCommit();

    co_await t.txBegin();
    co_await t.store64(addr, 200);
    co_await t.txAbort();
    if (abortedFlag)
        *abortedFlag = t.lastTxAborted();
}

} // namespace

TEST(TxAbort, RollsBackStoresInUndoModes)
{
    for (PersistMode mode :
         {PersistMode::UndoClwb, PersistMode::HwUlog,
          PersistMode::Hwl, PersistMode::Fwb}) {
        SystemConfig cfg = SystemConfig::scaled(1);
        cfg.persist.crashJournal = true;
        System sys(cfg, mode);
        Addr addr = sys.heap().alloc(64, 64);
        bool aborted = false;
        sys.spawn(0, [&](Thread &t) {
            return abortingThread(t, addr, &aborted);
        });
        Tick end = sys.run();
        EXPECT_TRUE(aborted) << persistModeName(mode);
        EXPECT_EQ(sys.txns().aborted.value(), 1u);
        EXPECT_EQ(sys.txns().committed.value(), 1u);

        // Live memory sees the rollback...
        sys.flushAll(end);
        EXPECT_EQ(sys.mem().nvram().store().read64(addr), 100u)
            << persistModeName(mode);

        // ...and so does recovery from a crash right after the
        // abort (the compensating stores are themselves logged).
        // Only the failure-atomic modes promise that much; hw-ulog
        // alone lacks the redo/force needed to finish a commit.
        if (crashlab::guaranteesFailureAtomicity(mode)) {
            mem::BackingStore image = sys.crashSnapshot(end);
            persist::Recovery::run(image, sys.config().map);
            EXPECT_EQ(image.read64(addr), 100u)
                << persistModeName(mode);
        }
    }
}

TEST(TxAbortDeathTest, RedoOnlyModeFailsLoudly)
{
    // Redo-only logging cannot roll back in place (the motivation
    // for undo+redo, paper Section II-B). tx_abort used to quietly
    // leave the generation uncommitted, but steal means the aborted
    // stores may already sit in NVRAM — silently "dropping" the
    // transaction corrupts. The abort path now refuses outright.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            SystemConfig cfg = SystemConfig::scaled(1);
            cfg.persist.crashJournal = true;
            System sys(cfg, PersistMode::RedoClwb);
            Addr addr = sys.heap().alloc(64, 64);
            sys.spawn(0, [&](Thread &t) {
                return abortingThread(t, addr, nullptr);
            });
            sys.run();
        },
        "no undo values to roll back with");
}

namespace
{

sim::Co<void>
abortThenCommitBody(Thread &t, Addr addr)
{
    co_await t.txBegin();
    co_await t.store64(addr, 7);
    co_await t.txAbort();
    co_await t.txBegin();
    co_await t.store64(addr, 9);
    co_await t.txCommit();
    EXPECT_FALSE(t.lastTxAborted());
}

} // namespace

TEST(TxAbort, ThreadContinuesAfterAbort)
{
    SystemConfig cfg = SystemConfig::scaled(1);
    System sys(cfg, PersistMode::Fwb);
    Addr addr = sys.heap().alloc(64, 64);
    sys.spawn(0, [addr](Thread &t) {
        return abortThenCommitBody(t, addr);
    });
    Tick end = sys.run();
    sys.flushAll(end);
    EXPECT_EQ(sys.mem().nvram().store().read64(addr), 9u);
    EXPECT_EQ(sys.txns().aborted.value(), 1u);
    EXPECT_EQ(sys.txns().committed.value(), 1u);
}

// ------------------------ log-full reclaim -----------------------

// Pins the log-full reclaim path through a whole System: TPC-C under
// fwb/2PL, 8 threads of 40 transactions over 4 warehouses, on a 12 KB
// log. NewOrder's records wrap it 24 times, so appends keep finding
// live slots whose data or transaction is still in flight; the end
// tick moves with the FWB scan cost, the CC backoff, the issue width
// and the store buffer. This pins behaviour, not correctness: a log
// this small loses live records (the overwrite hazards), although the
// TPC-C oracle happens to accept the final image. The test checks
// that too; a 48 KB log of a longer cell is not so lucky
// (LogFullReclaim.LogSmallerThanTheLiveWriteSetsLosesRecords).
TEST(LogFullGolden, ReclaimKeepsItsWaitsAndHazards)
{
    workloads::RunSpec spec;
    spec.workload = "oltp-tpcc";
    spec.mode = PersistMode::Fwb;
    spec.params.threads = 8;
    spec.params.txPerThread = 40;
    spec.params.footprint = 256;
    spec.params.warehouses = 4;
    spec.sys = SystemConfig::scaled(8);
    spec.sys.map.logSize = 12 * 1024;
    spec.sys.persist.ccMode = CcMode::TwoPhase;
    const workloads::RunOutcome o = workloads::runWorkload(spec);
    EXPECT_TRUE(o.verified) << o.verifyMessage;
    EXPECT_EQ(o.endTick, 365855u);
    EXPECT_EQ(o.stats.forcedWritebacks, 1783u);
    EXPECT_EQ(o.stats.reclaimWaitCycles, 10686368u);
    EXPECT_EQ(o.stats.overwriteHazards, 1131u);
    EXPECT_EQ(o.stats.abortedTx, 2u);
}
