/**
 * @file
 * Unit tests for configuration presets, persistence-mode predicates,
 * the FWB period derivation, and the energy model.
 */

#include <gtest/gtest.h>

#include "core/system_config.hh"
#include "energy/energy_model.hh"
#include "mem/memory_system.hh"
#include "persist/fwb_engine.hh"

using namespace snf;

TEST(PersistMode, NamesAreUnique)
{
    std::set<std::string> names;
    for (PersistMode m : kAllModes)
        EXPECT_TRUE(names.insert(persistModeName(m)).second);
    EXPECT_EQ(names.size(), 9u);
}

TEST(PersistMode, HardwareVsSoftwarePartition)
{
    for (PersistMode m : kAllModes) {
        // No mode is both hardware- and software-logging.
        EXPECT_FALSE(isHardwareLogging(m) && isSoftwareLogging(m))
            << persistModeName(m);
    }
    EXPECT_TRUE(isHardwareLogging(PersistMode::Fwb));
    EXPECT_TRUE(isSoftwareLogging(PersistMode::UndoClwb));
    EXPECT_FALSE(isHardwareLogging(PersistMode::NonPers));
    EXPECT_FALSE(isSoftwareLogging(PersistMode::NonPers));
}

TEST(SystemConfig, PaperPresetMatchesTableII)
{
    SystemConfig c = SystemConfig::paper();
    EXPECT_EQ(c.numCores, 4u);
    EXPECT_DOUBLE_EQ(kClockGhz, 2.5);
    EXPECT_EQ(c.l1.sizeBytes, 32u * 1024);
    EXPECT_EQ(c.l1.ways, 8u);
    EXPECT_EQ(c.l1.latency, 4u); // 1.6 ns
    EXPECT_EQ(c.l2.sizeBytes, 8u * 1024 * 1024);
    EXPECT_EQ(c.l2.ways, 16u);
    EXPECT_EQ(c.l2.latency, 11u); // 4.4 ns
    EXPECT_EQ(c.nvram.banks, 8u);
    EXPECT_EQ(c.nvram.rowBytes, 2048u);
    EXPECT_EQ(c.nvram.rowHitLat, 90u);        // 36 ns
    EXPECT_EQ(c.nvram.readConflictLat, 250u); // 100 ns
    EXPECT_EQ(c.nvram.writeConflictLat, 750u); // 300 ns
    EXPECT_DOUBLE_EQ(c.nvram.arrayWritePjBit, 16.82);
    EXPECT_EQ(c.map.logSize, 4ULL << 20);
    EXPECT_EQ(c.persist.logBufferEntries, 15u);
}

TEST(SystemConfig, ScaledShrinksCapacityKeepsTiming)
{
    SystemConfig p = SystemConfig::paper();
    SystemConfig s = SystemConfig::scaled();
    EXPECT_LT(s.l1.sizeBytes, p.l1.sizeBytes);
    EXPECT_EQ(p.l2.sizeBytes / s.l2.sizeBytes, 16u);
    EXPECT_EQ(p.map.logSize / s.map.logSize, 16u);
    // Latencies and bandwidths are untouched: only capacity scales.
    EXPECT_EQ(p.l1.latency, s.l1.latency);
    EXPECT_EQ(p.l2.latency, s.l2.latency);
    EXPECT_EQ(p.nvram.writeConflictLat, s.nvram.writeConflictLat);
    EXPECT_EQ(p.nvram.banks, s.nvram.banks);
}

TEST(SystemConfig, GeometryHelpers)
{
    CacheConfig c;
    c.sizeBytes = 32 * 1024;
    c.ways = 8;
    c.lineBytes = 64;
    EXPECT_EQ(c.numLines(), 512u);
    EXPECT_EQ(c.numSets(), 64u);
}

TEST(AddressMap, RangesDisjoint)
{
    AddressMap map;
    EXPECT_TRUE(map.isDram(map.dramBase));
    EXPECT_FALSE(map.isNvram(map.dramBase));
    EXPECT_TRUE(map.isNvram(map.nvramBase));
    EXPECT_FALSE(map.isDram(map.nvramBase));
    EXPECT_EQ(map.logBase(), map.nvramBase);
    EXPECT_EQ(map.heapBase(), map.nvramBase + map.logSize);
}

TEST(FwbEngine, PeriodScalesLinearlyWithLogSize)
{
    SystemConfig c = SystemConfig::scaled();
    c.map.logSize = 256 * 1024;
    Tick p1 = persist::FwbEngine::derivePeriod(c);
    c.map.logSize = 1024 * 1024;
    Tick p4 = persist::FwbEngine::derivePeriod(c);
    EXPECT_NEAR(static_cast<double>(p4) / static_cast<double>(p1),
                4.0, 0.1);
}

// A scan keeps the scaled 512 KB L2's port busy for 8 192 lines x
// kScanCostPerLine = 409 cycles; a 4 KB log derives a 275-cycle
// period, so the ports would fall ever further behind the clock. The
// engine refuses it, and an 8 KB log (555 cycles) is accepted.
TEST(FwbEngineDeathTest, PeriodShorterThanOneScanIsRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    SystemConfig c = SystemConfig::scaled(2);
    c.map.logSize = 4 * 1024;
    mem::MemorySystem ms(c);
    sim::EventQueue events;
    EXPECT_EXIT(persist::FwbEngine(ms, events, c.persist, {}),
                ::testing::ExitedWithCode(1),
                "FWB scan period of 275 cycles \\(4096-byte log\\) does "
                "not exceed the 409 cycles");

    c.map.logSize = 8 * 1024;
    mem::MemorySystem wide(c);
    persist::FwbEngine ok(wide, events, c.persist, {});
    EXPECT_EQ(ok.period(), 555u);
}

TEST(EnergyModel, SumsDeviceAndCoreEnergy)
{
    mem::MemorySystem ms(SystemConfig::scaled(1));
    Addr nv = ms.config().map.nvramBase + (4 << 20);
    std::uint64_t v = 1;
    ms.store(0, nv, 8, &v, 0);
    ms.flushAllDirty(1000);
    auto e = energy::EnergyModel::compute(ms, 1000);
    EXPECT_GT(e.nvramWritePj, 0.0);
    EXPECT_GT(e.corePj, 0.0);
    EXPECT_GT(e.l1Pj, 0.0);
    EXPECT_DOUBLE_EQ(e.memoryDynamicPj(),
                     e.nvramReadPj + e.nvramWritePj + e.dramPj);
    EXPECT_DOUBLE_EQ(e.totalPj(),
                     e.memoryDynamicPj() + e.processorDynamicPj());
}

TEST(EnergyModel, CoefficientsApply)
{
    mem::MemorySystem ms(SystemConfig::scaled(1));
    energy::EnergyCoefficients coeff;
    coeff.perInstructionPj = 1000.0;
    auto e = energy::EnergyModel::compute(ms, 10, coeff);
    EXPECT_DOUBLE_EQ(e.corePj, 10000.0);
}
