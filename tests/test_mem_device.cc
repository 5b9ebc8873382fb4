/**
 * @file
 * Unit tests for the memory device timing/energy model: row-buffer
 * behaviour, bank parallelism, read priority over posted writes, the
 * streaming log-write lane, acceptance (ADR) semantics, and energy
 * accounting.
 */

#include <gtest/gtest.h>

#include "mem/mem_device.hh"

using namespace snf;
using namespace snf::mem;

namespace
{

MemDeviceConfig
pcm()
{
    MemDeviceConfig cfg;
    cfg.sizeBytes = 1 << 24;
    return cfg; // paper defaults: 90/250/750 + 8 burst, 8 banks
}

} // namespace

TEST(MemDevice, FirstReadIsRowConflict)
{
    MemDevice dev("d", pcm(), 0);
    std::uint8_t buf[64];
    auto res = dev.access(false, 0, 64, nullptr, buf, 0);
    EXPECT_EQ(res.done, 0u + 250 + 8);
    EXPECT_FALSE(res.rowHit);
}

TEST(MemDevice, SecondReadSameRowHits)
{
    MemDevice dev("d", pcm(), 0);
    std::uint8_t buf[64];
    auto r1 = dev.access(false, 0, 64, nullptr, buf, 0);
    auto r2 = dev.access(false, 64, 64, nullptr, buf, r1.done);
    EXPECT_TRUE(r2.rowHit);
    EXPECT_EQ(r2.done, r1.done + 90 + 8);
}

TEST(MemDevice, DifferentBanksOverlap)
{
    MemDevice dev("d", pcm(), 0);
    std::uint8_t buf[64];
    // Rows 0 and 1 live on banks 0 and 1.
    auto r1 = dev.access(false, 0, 64, nullptr, buf, 0);
    auto r2 = dev.access(false, 2048, 64, nullptr, buf, 0);
    // The second read only serializes on the channel burst, not on
    // the first read's bank.
    EXPECT_EQ(r2.done, 8u + 250 + 8);
    EXPECT_LT(r2.done, r1.done + 250);
}

TEST(MemDevice, SameBankSerializes)
{
    MemDevice dev("d", pcm(), 0);
    std::uint8_t buf[64];
    auto r1 = dev.access(false, 0, 64, nullptr, buf, 0);
    // Same bank (row 0), issued at tick 0: waits for the bank.
    auto r2 = dev.access(false, 128, 64, nullptr, buf, 0);
    EXPECT_GE(r2.done, r1.done + 90);
}

TEST(MemDevice, ReadsBypassPostedWrites)
{
    MemDevice dev("d", pcm(), 0);
    std::uint8_t buf[64] = {};
    // Queue a long data write on bank 0.
    dev.access(true, 0, 64, buf, nullptr, 0);
    // A read to another bank starts immediately.
    auto rd = dev.access(false, 2048, 64, nullptr, buf, 0);
    EXPECT_EQ(rd.done, 0u + 250 + 8);
}

TEST(MemDevice, WriteAcceptanceIsFast)
{
    MemDevice dev("d", pcm(), 0);
    std::uint8_t buf[64] = {1};
    auto wr = dev.access(true, 0, 64, buf, nullptr, 0);
    // ADR semantics: persistent once accepted (start + burst), not
    // after the 750-cycle PCM cell write.
    EXPECT_EQ(wr.done, 8u);
}

TEST(MemDevice, BackToBackDataWritesSerializeOnBank)
{
    MemDevice dev("d", pcm(), 0);
    std::uint8_t buf[64] = {};
    auto w1 = dev.access(true, 0, 64, buf, nullptr, 0);
    auto w2 = dev.access(true, 128, 64, buf, nullptr, 0);
    // Same bank: the second write queues behind the first's full
    // service (conflict write, 750 + burst).
    EXPECT_GE(w2.done, 750u);
    (void)w1;
}

TEST(MemDevice, DataWritesAreServedPerBank)
{
    MemDevice dev("d", pcm(), 0);
    std::uint8_t buf[64] = {};
    // Two writes on bank 0: the second queues until the first's
    // conflict write ends (750 + burst).
    dev.access(true, 0, 64, buf, nullptr, 0);
    auto queued = dev.access(true, 128, 64, buf, nullptr, 0);
    EXPECT_EQ(queued.done, 758u + 8);
    // A write to bank 1 booked after them waits for neither.
    auto other = dev.access(true, 2048, 64, buf, nullptr, 0);
    EXPECT_EQ(other.done, 8u);
    EXPECT_EQ(dev.dataQueueCycles.value(), 758u);
}

TEST(MemDevice, DataQueueCountersSumAndMaxTheWait)
{
    MemDevice dev("d", pcm(), 0);
    std::uint8_t buf[64] = {};
    // Same bank at tick 0: the second write waits out the first's
    // conflict write (750 + burst); reads and log writes never count.
    dev.access(true, 0, 64, buf, nullptr, 0);
    dev.access(true, 128, 64, buf, nullptr, 0);
    dev.access(false, 4096, 64, nullptr, buf, 0);
    dev.access(true, 6144, 64, buf, nullptr, 0, true,
               PersistOrigin::LogDrain);
    EXPECT_EQ(dev.dataWrites.value(), 2u);
    EXPECT_EQ(dev.dataQueueCycles.value(), 758u);
    EXPECT_EQ(dev.dataQueueMax.value(), 758u);
    EXPECT_EQ(dev.stats().counterValue("data_queue_cycles"), 758u);
    EXPECT_EQ(dev.stats().counterValue("data_queue_max"), 758u);
    // The second write hits the row the first opened. rowHits also
    // counts the streaming log write as a hit; dataRowHits does not.
    EXPECT_EQ(dev.rowHits.value(), 2u);
    EXPECT_EQ(dev.dataRowHits.value(), 1u);
    EXPECT_EQ(dev.stats().counterValue("data_row_hits"), 1u);
}

TEST(MemDevice, StreamingLogWritesAreFasterThanConflicts)
{
    MemDevice dev("d", pcm(), 0);
    std::uint8_t buf[64] = {};
    auto w1 = dev.access(true, 0, 64, buf, nullptr, 0, true);
    auto w2 = dev.access(true, 64, 64, buf, nullptr, w1.done, true);
    Tick per_write = w2.done - w1.done;
    EXPECT_LT(per_write, 90u); // well under even a row-hit write
    EXPECT_EQ(per_write, dev.sequentialWriteCycles(64));
}

TEST(MemDevice, LogWritesDoNotCloseDemandRow)
{
    MemDevice dev("d", pcm(), 0);
    std::uint8_t buf[64];
    auto r1 = dev.access(false, 0, 64, nullptr, buf, 0);
    // A streaming log write to the same bank's other row.
    dev.access(true, 2048 * 8, 64, buf, nullptr, r1.done, true);
    // The next read to row 0 still row-hits.
    auto r2 = dev.access(false, 64, 64, nullptr, buf, r1.done + 2000);
    EXPECT_TRUE(r2.rowHit);
}

TEST(MemDevice, FunctionalAccessMovesData)
{
    MemDevice dev("d", pcm(), 0);
    std::uint64_t v = 0x1122334455667788ULL;
    dev.functionalWrite(512, 8, &v);
    std::uint64_t out = 0;
    dev.functionalRead(512, 8, &out);
    EXPECT_EQ(out, v);
}

TEST(MemDevice, TimedWriteVisibleToTimedRead)
{
    MemDevice dev("d", pcm(), 0);
    std::uint64_t v = 42;
    dev.access(true, 256, 8, &v, nullptr, 0);
    std::uint64_t out = 0;
    dev.access(false, 256, 8, nullptr, &out, 1000);
    EXPECT_EQ(out, 42u);
}

TEST(MemDevice, EnergyAccounting)
{
    MemDevice dev("d", pcm(), 0);
    std::uint8_t buf[64] = {};
    EXPECT_DOUBLE_EQ(dev.writeEnergyPj.value(), 0.0);
    dev.access(true, 0, 64, buf, nullptr, 0);
    // 512 bits x (1.02 + 16.82) pJ/bit.
    EXPECT_NEAR(dev.writeEnergyPj.value(), 512 * 17.84, 1e-6);
    dev.access(false, 4096, 64, nullptr, buf, 10000);
    // Conflict read: 512 x (0.93 + 2.47).
    EXPECT_NEAR(dev.readEnergyPj.value(), 512 * 3.40, 1e-6);
}

TEST(MemDevice, CountersTrackBytes)
{
    MemDevice dev("d", pcm(), 0);
    std::uint8_t buf[64] = {};
    dev.access(true, 0, 64, buf, nullptr, 0);
    dev.access(true, 64, 16, buf, nullptr, 0);
    dev.access(false, 0, 64, nullptr, buf, 0);
    EXPECT_EQ(dev.writes.value(), 2u);
    EXPECT_EQ(dev.writeBytes.value(), 80u);
    EXPECT_EQ(dev.reads.value(), 1u);
    EXPECT_EQ(dev.readBytes.value(), 64u);
}

TEST(MemDevice, JournalTickMatchesAcceptance)
{
    MemDeviceConfig cfg = pcm();
    MemDevice dev("d", cfg, 0);
    dev.store().enableJournal();
    std::uint64_t v = 7;
    auto res = dev.access(true, 0, 8, &v, nullptr, 1000);
    // Visible in a snapshot at the acceptance tick, not before.
    EXPECT_EQ(dev.store().snapshotAt(res.done).read64(0), 7u);
    EXPECT_EQ(dev.store().snapshotAt(res.done - 1).read64(0), 0u);
}

TEST(MemDevice, SequentialWriteCyclesScalesWithSize)
{
    MemDevice dev("d", pcm(), 0);
    EXPECT_LT(dev.sequentialWriteCycles(32),
              dev.sequentialWriteCycles(2048));
    // A full row pays roughly the whole conflict latency.
    EXPECT_GE(dev.sequentialWriteCycles(2048), 750u);
}

TEST(MemDeviceDeathTest, TimedLogWriteMustStayWithinOneShardSlice)
{
    // Shard parity guard (shardlab): with the log region declared as
    // N equal slices, any timed log-origin write that straddles a
    // slice boundary means a backend routed a record to the wrong
    // shard — it must fail loudly, not corrupt the neighbor shard's
    // header or slot array.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    MemDevice dev("d", pcm(), 0);
    dev.setLogRegion(0x10000, 0x8000); // 4 slices of 0x2000
    dev.setLogShards(4);

    std::uint8_t buf[64] = {};
    // In-slice writes are fine, including ones that touch a slice's
    // last byte exactly.
    dev.access(true, 0x10000, 64, buf, nullptr, 0, true,
               PersistOrigin::LogDrain);
    dev.access(true, 0x12000 - 64, 64, buf, nullptr, 0, true,
               PersistOrigin::LogDrain);
    // Straddling the slice boundary at 0x12000 trips the assert.
    EXPECT_DEATH(dev.access(true, 0x12000 - 32, 64, buf, nullptr, 0,
                            true, PersistOrigin::LogDrain),
                 "straddles shard slices");
}

TEST(MemDevice, UnshardedLogWritesAreNotShardChecked)
{
    // shards == 1 must behave exactly as before shardlab: a log
    // write anywhere inside the region is legal.
    MemDevice dev("d", pcm(), 0);
    dev.setLogRegion(0x10000, 0x8000);
    dev.setLogShards(1);
    std::uint8_t buf[64] = {};
    dev.access(true, 0x12000 - 32, 64, buf, nullptr, 0, true,
               PersistOrigin::LogDrain);
    EXPECT_EQ(dev.writes.value(), 1u);
}
