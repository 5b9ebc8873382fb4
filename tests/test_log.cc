/**
 * @file
 * Unit tests for the logging substrate: record serialization, the
 * circular log region (wrap, torn-bit passes, truncation, growth,
 * reclamation hazards, the forced write-back before a slot's reuse),
 * the log buffer (coalescing, capacity back-pressure), the bus
 * monitor's per-line pending records and drain handles, and the
 * write-combining buffer.
 */

#include <gtest/gtest.h>

#include <deque>
#include <unordered_map>
#include <vector>

#include "mem/bus_monitor.hh"
#include "mem/mem_device.hh"
#include "mem/write_combine_buffer.hh"
#include "persist/log_buffer.hh"
#include "persist/log_record.hh"
#include "persist/log_region.hh"
#include "sim/rng.hh"

using namespace snf;
using namespace snf::persist;

namespace
{

AddressMap
smallMap()
{
    AddressMap map;
    map.logSize = 4096; // 126 slots
    return map;
}

MemDeviceConfig
nvCfg()
{
    MemDeviceConfig cfg;
    cfg.sizeBytes = 1 << 24;
    return cfg;
}

LogRecord
rec(std::uint16_t tx, Addr addr, std::uint64_t undo,
    std::uint64_t redo)
{
    return LogRecord::update(0, tx, addr, 8, undo, redo);
}

} // namespace

// ----------------------------- records --------------------------

TEST(LogRecord, RoundTripFullRecord)
{
    LogRecord r = LogRecord::update(3, 0xbeef, 0x123456789abcULL, 8,
                                    111, 222);
    std::uint8_t img[LogRecord::kSlotBytes];
    r.serialize(img, true);
    bool torn = false;
    auto parsed = LogRecord::deserialize(img, torn);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(torn);
    EXPECT_EQ(parsed->thread, 3);
    EXPECT_EQ(parsed->tx, 0xbeef);
    EXPECT_EQ(parsed->addr, 0x123456789abcULL);
    EXPECT_EQ(parsed->size, 8);
    EXPECT_TRUE(parsed->hasUndo);
    EXPECT_TRUE(parsed->hasRedo);
    EXPECT_EQ(parsed->undo, 111u);
    EXPECT_EQ(parsed->redo, 222u);
}

TEST(LogRecord, UndoOnlyAndRedoOnly)
{
    LogRecord u = LogRecord::update(0, 1, 64, 4, 7, std::nullopt);
    LogRecord r = LogRecord::update(0, 1, 64, 4, std::nullopt, 9);
    std::uint8_t img[LogRecord::kSlotBytes];
    bool torn = false;

    u.serialize(img, false);
    auto pu = LogRecord::deserialize(img, torn);
    ASSERT_TRUE(pu);
    EXPECT_TRUE(pu->hasUndo);
    EXPECT_FALSE(pu->hasRedo);
    EXPECT_EQ(pu->undo, 7u);

    r.serialize(img, false);
    auto pr = LogRecord::deserialize(img, torn);
    ASSERT_TRUE(pr);
    EXPECT_FALSE(pr->hasUndo);
    EXPECT_TRUE(pr->hasRedo);
    EXPECT_EQ(pr->redo, 9u);
}

TEST(LogRecord, CommitRecord)
{
    LogRecord c = LogRecord::commit(2, 42);
    std::uint8_t img[LogRecord::kSlotBytes];
    c.serialize(img, true);
    bool torn = false;
    auto parsed = LogRecord::deserialize(img, torn);
    ASSERT_TRUE(parsed);
    EXPECT_TRUE(parsed->isCommit);
    EXPECT_EQ(parsed->tx, 42);
}

TEST(LogRecord, UnwrittenSlotRejected)
{
    std::uint8_t img[LogRecord::kSlotBytes] = {};
    bool torn = false;
    EXPECT_FALSE(LogRecord::deserialize(img, torn).has_value());
}

TEST(LogRecord, PayloadBytes)
{
    EXPECT_EQ(rec(1, 0, 1, 2).payloadBytes(), 32u);
    EXPECT_EQ(LogRecord::update(0, 1, 0, 8, 1, std::nullopt)
                  .payloadBytes(),
              24u);
    EXPECT_EQ(LogRecord::commit(0, 1).payloadBytes(), 16u);
}

class LogRecordSizes : public ::testing::TestWithParam<std::uint8_t>
{
};

TEST_P(LogRecordSizes, SizeFieldRoundTrips)
{
    LogRecord r =
        LogRecord::update(1, 2, 0x1000, GetParam(), 5, 6);
    std::uint8_t img[LogRecord::kSlotBytes];
    r.serialize(img, false);
    bool torn = true;
    auto parsed = LogRecord::deserialize(img, torn);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->size, GetParam());
    EXPECT_FALSE(torn);
}

INSTANTIATE_TEST_SUITE_P(AllSizes, LogRecordSizes,
                         ::testing::Values(1, 2, 4, 8));

// ----------------------------- region ---------------------------

TEST(LogRegion, SequentialSlots)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    auto r1 = region.reserve(rec(1, 0, 1, 2), 0);
    auto r2 = region.reserve(rec(1, 8, 1, 2), 10);
    EXPECT_EQ(r1.slot + 1, r2.slot);
    EXPECT_EQ(r2.addr, r1.addr + LogRecord::kSlotBytes);
    EXPECT_EQ(r1.torn, r2.torn);
}

TEST(LogRegion, TornFlipsOnWrap)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    bool first_torn =
        region.reserve(rec(1, 0, 1, 2), 0).torn;
    for (std::uint64_t i = 1; i < region.slotCount(); ++i)
        region.reserve(rec(1, 0, 1, 2), i);
    // Next append starts pass 2.
    bool second_pass_torn =
        region.reserve(rec(1, 0, 1, 2), 1000).torn;
    EXPECT_NE(first_torn, second_pass_torn);
    EXPECT_EQ(region.wraps.value(), 1u);
}

TEST(LogRegion, ReclaimHazardOnActiveTx)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    region.setTxActive([](std::uint64_t seq) { return seq == 7; });
    int hazards = 0;
    region.setHazardSink([&]() { ++hazards; });

    auto r = region.reserve(rec(1, 0, 1, 2), 0);
    region.bindSlotTx(r.slot, 7); // still active when reclaimed
    for (std::uint64_t i = 0; i < region.slotCount(); ++i)
        region.reserve(rec(1, 0, 1, 2), i + 1);
    EXPECT_EQ(hazards, 1);
    EXPECT_EQ(region.hazards.value(), 1u);
}

TEST(LogRegion, ReclaimHazardOnUnpersistedData)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    region.setTxActive([](std::uint64_t) { return false; });
    region.setPersistedSince(
        [](Addr, Tick, Tick) { return false; }); // nothing persisted
    region.reserve(rec(1, 0x2000, 1, 2), 0);
    for (std::uint64_t i = 0; i < region.slotCount(); ++i)
        region.reserve(rec(1, 0x2000, 1, 2), i + 1);
    EXPECT_GT(region.hazards.value(), 0u);
}

TEST(LogRegion, ReclaimForcesWritebackThenProceeds)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    bool persisted = false;
    int writebacks = 0;
    region.setPersistedSince(
        [&](Addr, Tick, Tick) { return persisted; });
    region.setForceWriteback([&](Addr, Tick now) {
        persisted = true;
        ++writebacks;
        return now + 10;
    });
    // Every slot guards a line of a finished transaction (txSeq 0)
    // whose data has not been written back.
    for (std::uint64_t i = 0; i < region.slotCount(); ++i)
        region.reserve(rec(1, 0x2000 + i * 8, 0, i), 100);

    auto r = region.reserve(LogRecord::commit(0, 2), 200);
    EXPECT_EQ(writebacks, 1);
    EXPECT_EQ(r.readyAt, 210u); // waited for the forced write-back
    EXPECT_EQ(region.forcedWritebacks.value(), 1u);
    EXPECT_EQ(region.reclaimWaitCycles.value(), 10u);
    EXPECT_EQ(region.hazards.value(), 0u); // made safe, not hazardous
}

TEST(LogRegion, NoHazardWhenDataPersisted)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    region.setTxActive([](std::uint64_t) { return false; });
    region.setPersistedSince([](Addr, Tick, Tick) { return true; });
    for (std::uint64_t i = 0; i < 3 * region.slotCount(); ++i)
        region.reserve(rec(1, 0x2000, 1, 2), i);
    EXPECT_EQ(region.hazards.value(), 0u);
}

TEST(LogRegion, CommitRecordsReclaimFreely)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    region.setTxActive([](std::uint64_t) { return true; });
    region.setPersistedSince([](Addr, Tick, Tick) { return false; });
    for (std::uint64_t i = 0; i < 2 * region.slotCount(); ++i)
        region.reserve(LogRecord::commit(0, 1), i);
    EXPECT_EQ(region.hazards.value(), 0u);
}

TEST(LogRegion, TruncateResetsAndClearsMarkers)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    auto r = region.reserve(rec(1, 0, 1, 2), 0);
    std::uint8_t img[LogRecord::kSlotBytes];
    rec(1, 0, 1, 2).serialize(img, r.torn);
    nv.functionalWrite(r.addr, sizeof(img), img);

    region.truncate(100);
    EXPECT_EQ(region.tailSlot(), 0u);
    // Slot markers cleared in NVRAM.
    std::uint8_t out[LogRecord::kSlotBytes];
    nv.functionalRead(r.addr, sizeof(out), out);
    bool torn = false;
    EXPECT_FALSE(LogRecord::deserialize(out, torn).has_value());
}

TEST(LogRegion, GrowChangesSlotCount)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    std::uint64_t before = region.slotCount();
    region.grow(8192, 0);
    EXPECT_GT(region.slotCount(), before);
    EXPECT_EQ(region.tailSlot(), 0u);
}

// --------------------------- log buffer -------------------------

TEST(LogBuffer, CoalescesAdjacentSlots)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    LogBuffer buf(region, nv, nullptr, 16, 64);
    for (int i = 0; i < 4; ++i)
        buf.append(rec(1, 0x1000 + i * 8, i, i), i);
    buf.drainAll(100);
    // 4 x 32B slots = 2 x 64B lines => 2 groups.
    EXPECT_EQ(buf.stats().counterValue("groups"), 2u);
    EXPECT_EQ(buf.stats().counterValue("bytes"), 128u);
}

TEST(LogBuffer, DrainMakesRecordsDurable)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    LogBuffer buf(region, nv, nullptr, 16, 64);
    buf.append(rec(9, 0x4000, 5, 6), 0);
    std::uint64_t slot = buf.lastSlot();
    buf.drainAll(10);
    std::uint8_t img[LogRecord::kSlotBytes];
    nv.functionalRead(region.slotAddr(slot), sizeof(img), img);
    bool torn = false;
    auto parsed = LogRecord::deserialize(img, torn);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->tx, 9);
    EXPECT_EQ(parsed->undo, 5u);
}

TEST(LogBuffer, ZeroCapacityStallsOnBus)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    LogBuffer buf(region, nv, nullptr, 0, 64);
    Tick t = 0;
    for (int i = 0; i < 20; ++i)
        t = std::max(t, buf.append(rec(1, 0x1000, 1, 2), t));
    // Serial bus acceptance forces the producer to slow down.
    EXPECT_GT(buf.stats().counterValue("stalls"), 0u);
}

TEST(LogBuffer, LargeCapacityAbsorbsBursts)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    LogBuffer buf(region, nv, nullptr, 64, 64);
    for (int i = 0; i < 30; ++i) {
        Tick proceed = buf.append(rec(1, 0x1000, 1, 2), i);
        EXPECT_EQ(proceed, static_cast<Tick>(i));
    }
    EXPECT_EQ(buf.stats().counterValue("stalls"), 0u);
}

TEST(LogBuffer, FullFifoKeepsAHalfFilledLineOpen)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    LogBuffer buf(region, nv, nullptr, 2, 64);
    // Slots 0 and 1 fill the first log line. Slot 2 issues that line
    // and opens the next, which the full FIFO must not issue half
    // filled: the store waits for the first line's drain instead.
    buf.append(rec(1, 0x1000, 1, 2), 0);
    buf.append(rec(1, 0x1008, 1, 2), 0);
    Tick proceed = buf.append(rec(1, 0x1010, 1, 2), 0);
    EXPECT_GT(proceed, 0u);
    EXPECT_EQ(buf.stats().counterValue("groups"), 1u);
    // Slot 3 completes the second line, which then drains as one
    // NVRAM write.
    buf.append(rec(1, 0x1018, 1, 2), proceed);
    buf.drainAll(proceed);
    EXPECT_EQ(buf.stats().counterValue("groups"), 2u);
    EXPECT_EQ(nv.writes.value(), 2u);
    EXPECT_EQ(buf.stats().counterValue("bytes"), 128u);
}

TEST(LogBuffer, DropAllModelsCrash)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    LogBuffer buf(region, nv, nullptr, 16, 64);
    buf.append(rec(3, 0x8000, 1, 2), 0);
    std::uint64_t slot = buf.lastSlot();
    buf.dropAll(); // never drained
    std::uint8_t img[LogRecord::kSlotBytes];
    nv.functionalRead(region.slotAddr(slot), sizeof(img), img);
    bool torn = false;
    EXPECT_FALSE(LogRecord::deserialize(img, torn).has_value());
}

TEST(LogBuffer, ReportsOrderingToMonitor)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    mem::BusMonitor monitor;
    LogBuffer buf(region, nv, &monitor, 16, 64);
    Addr data_line = 0x140000000ULL;
    buf.append(rec(1, data_line + 8, 1, 2), 0);
    Tick drained = buf.drainAll(5);
    // Data write-back after the drain: no violation.
    monitor.onDataWriteback(data_line, drained + 10, drained + 20, 0);
    EXPECT_EQ(monitor.orderViolations(), 0u);
}

TEST(BusMonitor, FlagsDataBeforeLog)
{
    mem::BusMonitor monitor;
    Addr line = 0x1000;
    monitor.onLogAppend(line, 100);
    // Data line reaches NVRAM before the record drains.
    monitor.onDataWriteback(line, 150, 160, 0);
    EXPECT_EQ(monitor.orderViolations(), 1u);
}

TEST(BusMonitor, TracksLastWriteback)
{
    mem::BusMonitor monitor;
    EXPECT_EQ(monitor.lastWritebackOf(0x40), 0u);
    monitor.onDataWriteback(0x40, 10, 25, 0);
    EXPECT_EQ(monitor.lastWritebackOf(0x40), 25u);
}

namespace
{

/** A log buffer reporting to a bus monitor, with its drain ticks. */
struct MonitoredBuffer
{
    mem::MemDevice nv{"nv", nvCfg(), smallMap().nvramBase};
    LogRegion region{smallMap(), nv};
    mem::BusMonitor monitor;
    LogBuffer buf{region, nv, &monitor, 16, 64};
    /** Completion tick of every drained group, in drain order. */
    std::vector<Tick> drains;

    MonitoredBuffer()
    {
        region.create();
        buf.setProbe([this](sim::ProbeEvent e, Tick t, std::uint64_t) {
            if (e == sim::ProbeEvent::LogDrain)
                drains.push_back(t);
        });
    }

    std::uint64_t
    checked()
    {
        return monitor.stats().counterValue("checked_writebacks");
    }
};

} // namespace

TEST(BusMonitor, CountsOneViolationPerLateRecord)
{
    mem::BusMonitor monitor;
    Addr line = 0x1000;
    monitor.onLogAppend(line, 1);
    monitor.onLogAppend(line, 2);
    monitor.onLogAppend(line, 3);
    // None of the three records has drained: each one is late.
    monitor.onDataWriteback(line, 10, 20, 0);
    EXPECT_EQ(monitor.orderViolations(), 3u);
    // Undrained records stay pending and are late again.
    monitor.onDataWriteback(line, 30, 40, 0);
    EXPECT_EQ(monitor.orderViolations(), 6u);
    EXPECT_EQ(monitor.stats().counterValue("checked_writebacks"), 2u);
    EXPECT_EQ(monitor.lastWritebackOf(line), 40u);
    // A record appended after the write-back started is not late.
    monitor.onLogAppend(0x2000, 50);
    monitor.onDataWriteback(0x2000, 45, 60, 0);
    EXPECT_EQ(monitor.orderViolations(), 6u);
}

TEST(BusMonitor, PartialDrainLeavesTheUndrainedRecordPending)
{
    MonitoredBuffer mb;
    Addr line = 0x140000000ULL;
    // Two slots share a 64-byte log line: records 1 and 2 form one
    // group, and record 3 flushes it and opens the next.
    mb.buf.append(rec(1, line, 1, 2), 1);
    mb.buf.append(rec(1, line + 8, 1, 2), 2);
    mb.buf.append(rec(1, line + 16, 1, 2), 3);
    ASSERT_EQ(mb.drains.size(), 1u);
    Tick first = mb.drains[0];

    // Records 1 and 2 drained by `first`; record 3 has not.
    mb.monitor.onDataWriteback(line, first, first + 1, 0);
    EXPECT_EQ(mb.monitor.orderViolations(), 1u);
    EXPECT_EQ(mb.checked(), 1u);

    Tick second = mb.buf.drainAll(first + 1);
    mb.monitor.onDataWriteback(line, second, second + 1, 0);
    EXPECT_EQ(mb.monitor.orderViolations(), 1u);
    EXPECT_EQ(mb.checked(), 2u);

    // Every record was dropped by the write-back after its drain, so
    // the line has nothing pending left to check.
    mb.monitor.onDataWriteback(line, 1, 2, 0);
    EXPECT_EQ(mb.monitor.orderViolations(), 1u);
    EXPECT_EQ(mb.checked(), 2u);
}

TEST(BusMonitor, WritebackDropsOnlyRecordsDrainedByItsCompletion)
{
    MonitoredBuffer mb;
    Addr line = 0x140000000ULL;
    Addr other = 0x140001000ULL;
    for (Tick t = 1; t <= 4; ++t)
        mb.buf.append(rec(1, line + 8 * t, 1, 2), t);
    // A fifth record, of another line, flushes the second group.
    mb.buf.append(rec(1, other, 1, 2), 5);
    ASSERT_EQ(mb.drains.size(), 2u);
    Tick first = mb.drains[0];
    Tick second = mb.drains[1];
    ASSERT_LT(first, second);

    // Completes between the two drains: records 1-2 are on time and
    // dropped, records 3-4 are late and stay pending.
    mb.monitor.onDataWriteback(line, 5, first, 0);
    EXPECT_EQ(mb.monitor.orderViolations(), 2u);

    // A write-back completing before either drain finds only records
    // 3-4: records 1-2 were dropped.
    mb.monitor.onDataWriteback(line, 5, 6, 0);
    EXPECT_EQ(mb.monitor.orderViolations(), 4u);

    mb.monitor.onDataWriteback(line, second, second, 0);
    EXPECT_EQ(mb.monitor.orderViolations(), 4u);
    EXPECT_EQ(mb.checked(), 3u);
    mb.monitor.onDataWriteback(line, 5, 6, 0);
    EXPECT_EQ(mb.monitor.orderViolations(), 4u);
    EXPECT_EQ(mb.checked(), 3u);
}

TEST(BusMonitor, DrainMarksExactlyTheHandledRecord)
{
    // Two undrained records of one line appended in the same tick:
    // the only case where draining by handle could differ from
    // draining "the first undrained record with this append tick".
    // Here the second drains first; the first stays late.
    mem::BusMonitor monitor;
    Addr line = 0x1000;
    mem::BusMonitor::Record first = monitor.onLogAppend(line, 5);
    mem::BusMonitor::Record second = monitor.onLogAppend(line, 5);
    EXPECT_NE(first, second);
    monitor.onLogDrain(second, 50);
    monitor.onDataWriteback(line, 60, 70, 0);
    EXPECT_EQ(monitor.orderViolations(), 1u);

    monitor.onLogDrain(first, 80);
    monitor.onDataWriteback(line, 90, 100, 0);
    EXPECT_EQ(monitor.orderViolations(), 1u);
    EXPECT_EQ(monitor.stats().counterValue("checked_writebacks"), 2u);
    // Both records are gone, and their pool nodes are reused.
    monitor.onDataWriteback(line, 110, 120, 0);
    EXPECT_EQ(monitor.stats().counterValue("checked_writebacks"), 2u);
    mem::BusMonitor::Record again = monitor.onLogAppend(line, 130);
    EXPECT_TRUE(again == first || again == second);
}

TEST(LogBuffer, SameTickRecordsOfOneLineDrainInAppendOrder)
{
    // Through the log buffer, one line's records drain in append
    // order, so handle and append-tick draining agree: of two
    // same-tick records split across groups, the earlier group's
    // record is the one on time.
    MonitoredBuffer mb;
    Addr line = 0x140000000ULL;
    mb.buf.append(rec(1, 0x140002000ULL, 1, 2), 5);
    mb.buf.append(rec(1, line, 1, 2), 5);     // first group
    mb.buf.append(rec(1, line + 8, 1, 2), 5); // flushes it
    ASSERT_EQ(mb.drains.size(), 1u);
    Tick first = mb.drains[0];
    mb.monitor.onDataWriteback(line, first, first, 0);
    EXPECT_EQ(mb.monitor.orderViolations(), 1u);
    Tick second = mb.buf.drainAll(first);
    mb.monitor.onDataWriteback(line, second, second, 0);
    EXPECT_EQ(mb.monitor.orderViolations(), 1u);
    mb.monitor.onDataWriteback(line, 5, 6, 0);
    EXPECT_EQ(mb.monitor.orderViolations(), 1u);
}

TEST(BusMonitor, CheckedWritebacksCountOnlyLinesWithPendingRecords)
{
    mem::BusMonitor monitor;
    monitor.onDataWriteback(0x40, 1, 2, 0);
    monitor.onDataWriteback(0x80, 3, 4, 0);
    EXPECT_EQ(monitor.stats().counterValue("checked_writebacks"), 0u);
    monitor.onLogAppend(0x40, 5);
    monitor.onDataWriteback(0x80, 6, 7, 0);
    EXPECT_EQ(monitor.stats().counterValue("checked_writebacks"), 0u);
    monitor.onDataWriteback(0x40, 6, 7, 0);
    EXPECT_EQ(monitor.stats().counterValue("checked_writebacks"), 1u);
    EXPECT_EQ(monitor.lastWritebackOf(0x80), 7u);
}

TEST(BusMonitor, MatchesDrainByAppendTickReference)
{
    // Reference: each line's pending records in a deque, a drain
    // marking the first undrained record with the drained record's
    // append tick. Seeded appends (few ticks, so many same-tick
    // records), drains in any order and write-backs must give the
    // same violations, checked write-backs and last write-backs.
    struct Ref
    {
        Tick append;
        Tick drain;
    };
    std::unordered_map<Addr, std::deque<Ref>> ref;
    std::unordered_map<Addr, Tick> refLastWb;
    std::uint64_t refViol = 0, refChecked = 0;

    mem::BusMonitor monitor;
    struct Open
    {
        mem::BusMonitor::Record rec;
        Addr line;
        Tick append;
    };
    std::vector<Open> undrained;
    sim::Rng rng(29);
    Tick now = 0;
    for (int step = 0; step < 20000; ++step) {
        now += rng.below(3);
        Addr line = rng.below(8) * 64;
        switch (rng.below(3)) {
          case 0:
            undrained.push_back({monitor.onLogAppend(line, now), line, now});
            ref[line].push_back({now, kTickNever});
            break;
          case 1: {
            if (undrained.empty())
                break;
            std::size_t i = rng.below(undrained.size());
            Open o = undrained[i];
            undrained.erase(undrained.begin() +
                            static_cast<std::ptrdiff_t>(i));
            Tick done = now + rng.below(40);
            monitor.onLogDrain(o.rec, done);
            for (Ref &r : ref[o.line]) {
                if (r.append == o.append && r.drain == kTickNever) {
                    r.drain = done;
                    break;
                }
            }
            break;
          }
          default: {
            Tick start = now, done = now + rng.below(40);
            monitor.onDataWriteback(line, start, done, 0);
            refLastWb[line] = done;
            auto &dq = ref[line];
            if (!dq.empty())
                ++refChecked;
            for (auto r = dq.begin(); r != dq.end();) {
                if (r->append <= start &&
                    (r->drain == kTickNever || r->drain > done))
                    ++refViol;
                if (r->drain != kTickNever && r->drain <= done)
                    r = dq.erase(r);
                else
                    ++r;
            }
          }
        }
        ASSERT_EQ(monitor.orderViolations(), refViol) << step;
        ASSERT_EQ(monitor.stats().counterValue("checked_writebacks"),
                  refChecked)
            << step;
    }
    for (Addr line = 0; line < 8 * 64; line += 64)
        EXPECT_EQ(monitor.lastWritebackOf(line), refLastWb[line]);
    EXPECT_GT(refViol, 0u);
}

// ------------------------------ WCB -----------------------------

TEST(Wcb, CoalescesSameLine)
{
    mem::MemDevice nv("nv", nvCfg(), 0);
    mem::WriteCombineBuffer wcb(nv, 4, 64);
    std::uint64_t v = 1;
    wcb.append(0x100, 8, &v, 0);
    v = 2;
    wcb.append(0x108, 8, &v, 1);
    EXPECT_EQ(wcb.occupancy(), 1u);
    EXPECT_EQ(wcb.coalescedStores.value(), 1u);
    wcb.drainAll(10);
    EXPECT_EQ(nv.store().read64(0x100), 1u);
    EXPECT_EQ(nv.store().read64(0x108), 2u);
}

TEST(Wcb, EvictsOldestWhenFull)
{
    mem::MemDevice nv("nv", nvCfg(), 0);
    mem::WriteCombineBuffer wcb(nv, 2, 64);
    std::uint64_t v = 7;
    wcb.append(0x000, 8, &v, 0);
    wcb.append(0x100, 8, &v, 1);
    wcb.append(0x200, 8, &v, 2); // evicts line 0x000
    EXPECT_EQ(wcb.occupancy(), 2u);
    EXPECT_EQ(nv.store().read64(0x000), 7u); // flushed to device
}

TEST(Wcb, FullBufferWaitsForTheOldestFlushOnly)
{
    mem::MemDevice nv("nv", nvCfg(), 0);
    mem::WriteCombineBuffer wcb(nv, 2, 64);
    std::vector<Tick> flushDone;
    wcb.setProbe([&](sim::ProbeEvent e, Tick t, std::uint64_t) {
        if (e == sim::ProbeEvent::WcbFlush)
            flushDone.push_back(t);
    });
    std::uint64_t v = 5;
    // Two entries fill the buffer; each later line flushes the
    // oldest entry. Nothing stalls while at most two flushes are in
    // flight.
    for (Addr line = 0; line < 4; ++line)
        EXPECT_EQ(wcb.append(line * 64, 8, &v, 0), 1u);
    ASSERT_EQ(flushDone.size(), 2u);
    // The third flush in flight stalls the store until the oldest
    // one retires, not until the flush it just issued.
    Tick visible = wcb.append(4 * 64, 8, &v, 0);
    ASSERT_EQ(flushDone.size(), 3u);
    EXPECT_EQ(visible, flushDone[0]);
    EXPECT_LT(visible, flushDone[2]);
}

TEST(Wcb, DropAllLosesUnflushed)
{
    mem::MemDevice nv("nv", nvCfg(), 0);
    mem::WriteCombineBuffer wcb(nv, 4, 64);
    std::uint64_t v = 9;
    wcb.append(0x300, 8, &v, 0);
    wcb.dropAll();
    EXPECT_EQ(nv.store().read64(0x300), 0u);
}
