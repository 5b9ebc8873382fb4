#include "persist/fwb_engine.hh"

#include "persist/log_record.hh"
#include "sim/logging.hh"

namespace snf::persist
{

FwbEngine::FwbEngine(mem::MemorySystem &memory, sim::EventQueue &evq,
                     const PersistConfig &config, const LogLayout &layout)
    : mem(memory),
      events(evq),
      scanPeriod(config.fwbPeriod != 0
                     ? config.fwbPeriod
                     : derivePeriod(memory.config(), layout)),
      statGroup("fwb"),
      scans(statGroup.counter("scans")),
      flagged(statGroup.counter("flagged")),
      forcedWritebacks(statGroup.counter("forced_writebacks"))
{
    // Each scan keeps every cache port busy for its tag walk; a period
    // no longer than that lets the ports' busy time outrun the clock.
    Tick charge = mem.fwbScanCharge(kScanCostPerLine);
    if (scanPeriod <= charge)
        fatal("FWB scan period of %llu cycles (%llu-byte log) does not "
              "exceed the %llu cycles each scan charges a cache port",
              static_cast<unsigned long long>(scanPeriod),
              static_cast<unsigned long long>(mem.config().map.logSize),
              static_cast<unsigned long long>(charge));
}

Tick
FwbEngine::derivePeriod(const SystemConfig &config,
                        const LogLayout &layout)
{
    std::uint64_t wrap_bytes = layout.byCore
                                   ? config.map.logSize / layout.regions
                                   : config.map.logSize;
    std::uint64_t slots = (wrap_bytes - 64) / LogRecord::kSlotBytes;
    // Sequential log-entry write service time at full NVRAM write
    // bandwidth; two slots coalesce per 64-byte line.
    mem::MemDevice probe("probe", config.nvram, config.map.nvramBase);
    Tick per_line =
        probe.sequentialWriteCycles(2 * LogRecord::kSlotBytes);
    Tick t_wrap = slots / 2 * per_line;
    Tick period = t_wrap / 8;
    return period == 0 ? 1 : period;
}

void
FwbEngine::start(Tick now)
{
    running = true;
    scheduleNext(now);
}

void
FwbEngine::scheduleNext(Tick now)
{
    events.schedule(now + scanPeriod, [this](Tick when) {
        if (!running)
            return;
        scan(when);
        scheduleNext(when);
    });
}

void
FwbEngine::scan(Tick now)
{
    auto result = mem.fwbScanAll(now, kScanCostPerLine);
    scans.inc();
    flagged.inc(result.linesFlagged);
    forcedWritebacks.inc(result.linesWrittenBack);
    if (probe)
        probe(sim::ProbeEvent::FwbScan,
              std::max(now, result.lastWritebackDone), scans.value());
    if (scanHook)
        scanHook(now);
}

} // namespace snf::persist
