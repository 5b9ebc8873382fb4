#include "core/system_config.hh"

#include "sim/logging.hh"

namespace snf
{

const char *
persistModeName(PersistMode mode)
{
    switch (mode) {
      case PersistMode::NonPers:    return "non-pers";
      case PersistMode::UnsafeRedo: return "unsafe-redo";
      case PersistMode::UnsafeUndo: return "unsafe-undo";
      case PersistMode::RedoClwb:   return "redo-clwb";
      case PersistMode::UndoClwb:   return "undo-clwb";
      case PersistMode::HwRlog:     return "hw-rlog";
      case PersistMode::HwUlog:     return "hw-ulog";
      case PersistMode::Hwl:        return "hwl";
      case PersistMode::Fwb:        return "fwb";
    }
    return "?";
}

const char *
ccModeName(CcMode mode)
{
    switch (mode) {
      case CcMode::None:     return "none";
      case CcMode::TwoPhase: return "2pl";
      case CcMode::Tl2:      return "tl2";
    }
    return "?";
}

bool
isHardwareLogging(PersistMode mode)
{
    switch (mode) {
      case PersistMode::HwRlog:
      case PersistMode::HwUlog:
      case PersistMode::Hwl:
      case PersistMode::Fwb:
        return true;
      default:
        return false;
    }
}

bool
isSoftwareLogging(PersistMode mode)
{
    switch (mode) {
      case PersistMode::UnsafeRedo:
      case PersistMode::UnsafeUndo:
      case PersistMode::RedoClwb:
      case PersistMode::UndoClwb:
        return true;
      default:
        return false;
    }
}

bool
supportsAbort(PersistMode mode)
{
    switch (mode) {
      case PersistMode::UnsafeUndo:
      case PersistMode::UndoClwb:
      case PersistMode::HwUlog:
      case PersistMode::Hwl:
      case PersistMode::Fwb:
        return true;
      default:
        return false;
    }
}

SystemConfig
SystemConfig::paper(std::uint32_t cores)
{
    SystemConfig c;
    c.numCores = cores;

    c.l1.sizeBytes = 32 * 1024;
    c.l1.ways = 8;
    c.l1.lineBytes = 64;
    c.l1.latency = 4; // 1.6 ns

    c.l2.sizeBytes = 8 * 1024 * 1024;
    c.l2.ways = 16;
    c.l2.lineBytes = 64;
    c.l2.latency = 11; // 4.4 ns

    c.nvram.sizeBytes = 8ULL << 30;
    c.dram.sizeBytes = 1ULL << 30;
    // DRAM is faster than PCM: typical DDR timing, and negligible
    // write asymmetry. Only used for non-persistent data.
    c.dram.rowHitLat = 38;
    c.dram.readConflictLat = 95;
    c.dram.writeConflictLat = 95;
    c.dram.rowReadPjBit = 0.52;
    c.dram.rowWritePjBit = 0.52;
    c.dram.arrayReadPjBit = 1.17;
    c.dram.arrayWritePjBit = 1.17;

    c.map.logSize = 4ULL << 20;
    c.validate();
    return c;
}

SystemConfig
SystemConfig::scaled(std::uint32_t cores)
{
    SystemConfig c = paper(cores);
    // L2 and log shrink 16x (L1 4x: an 8 KB L1 is the sensible
    // floor) so that test/bench footprints exceed the LLC the same
    // way the paper's 256 MB-1 GB footprints exceed its 8 MB LLC,
    // while runs complete in milliseconds. Latencies and bandwidths
    // are unchanged.
    c.l1.sizeBytes = 8 * 1024;
    c.l2.sizeBytes = 512 * 1024;
    c.map.logSize = 256 * 1024;
    c.validate();
    return c;
}

void
SystemConfig::validate() const
{
    if (numCores == 0 || numCores > 64)
        fatal("numCores %u out of range [1,64]", numCores);
    if (l1.lineBytes != l2.lineBytes)
        fatal("L1/L2 line size mismatch (%u vs %u)", l1.lineBytes,
              l2.lineBytes);
    if (l1.lineBytes == 0 || (l1.lineBytes & (l1.lineBytes - 1)) != 0)
        fatal("line size %u not a power of two", l1.lineBytes);
    for (const CacheConfig *cc : {&l1, &l2}) {
        if (cc->sizeBytes % (cc->ways * cc->lineBytes) != 0)
            fatal("cache size %u not divisible by ways*line",
                  cc->sizeBytes);
        std::uint32_t sets = cc->numSets();
        if (sets == 0 || (sets & (sets - 1)) != 0)
            fatal("cache set count %u not a power of two", sets);
    }
    if (map.logSize >= map.nvramSize)
        fatal("log does not fit in NVRAM");
    // Range only: persist::resolveLogLayout() applies the per-mode
    // rules and the divisibility of the log into its regions.
    if ((persist.logShards == 0 || persist.logShards > 64) &&
        persist.logShards != PersistConfig::kPerCoreLogs)
        fatal("logShards %u out of range [1,64]", persist.logShards);
    if (map.remapSize != 0) {
        if (map.remapSize % 128 != 0 || map.remapSize < 256)
            fatal("remap region size %llu not two >=128-byte banks",
                  static_cast<unsigned long long>(map.remapSize));
        if (map.spareSize % 64 != 0)
            fatal("spare area size %llu not line-aligned",
                  static_cast<unsigned long long>(map.spareSize));
    } else if (map.spareSize != 0) {
        fatal("spare area without a remap table");
    }
    if (map.logSize + map.remapSize + map.spareSize >= map.nvramSize)
        fatal("log + remap + spares do not fit in NVRAM");
}

} // namespace snf
