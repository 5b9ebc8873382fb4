#include "harness.hh"

#include <malloc.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "persist/log_buffer.hh"
#include "persist/recovery.hh"
#include "sim/rng.hh"

namespace snfbench
{

using namespace snf;

namespace
{

using Clock = std::chrono::steady_clock;

/** Run @p fn inside a span and return its host seconds. */
template <typename Fn>
double
timed(Tracer *tracer, const char *span, Fn &&fn)
{
    ScopedSpan s(tracer, span);
    Clock::time_point t0 = Clock::now();
    fn();
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

workloads::WorkloadParams
paramsOf(const OltpCell &cell)
{
    workloads::WorkloadParams p;
    p.threads = cell.threads;
    p.txPerThread = cell.txPerThread;
    p.seed = cell.seed;
    p.warehouses = cell.warehouses;
    p.footprint = cell.footprint;
    p.zipfTheta = cell.zipfTheta;
    return p;
}

SystemConfig
configOf(const OltpCell &cell)
{
    SystemConfig c = SystemConfig::scaled(cell.threads);
    c.persist.ccMode = cell.cc;
    c.persist.crashJournal = cell.crashJournal;
    return c;
}

oltp::OltpEngine &
engineOf(workloads::Workload &wl)
{
    auto *engine = dynamic_cast<oltp::OltpEngine *>(&wl);
    if (!engine)
        throw std::runtime_error("'" + wl.name() +
                                 "' is not an OLTP engine");
    return *engine;
}

LayerCounters
readLayerCounters(System &sys)
{
    LayerCounters c;
    if (persist::LogBuffer *lb = sys.logBuffer())
        c.logBufferStallCycles = lb->stallCycles.value();
    for (std::size_t i = 0; i < sys.logPartitionCount(); ++i)
        c.logFullStallCycles += sys.logPartition(i).logFullStallCycles.value();
    c.wcbFlushes = sys.mem().wcb().flushes.value();
    c.wcbCoalescedStores = sys.mem().wcb().coalescedStores.value();
    c.nvramRowHits = sys.mem().nvram().rowHits.value();
    c.nvramRowConflicts = sys.mem().nvram().rowConflicts.value();
    return c;
}

} // namespace

std::string
OltpRun::fingerprint() const
{
    const RunStats &s = stats;
    std::ostringstream o;
    o.precision(17);
    o << "end=" << end << " cycles=" << s.cycles
      << " committed=" << s.committedTx << " aborted=" << s.abortedTx
      << " instr=" << s.instr.total << "/" << s.instr.loads << "/"
      << s.instr.stores << "/" << s.instr.compute << "/"
      << s.instr.logStores << "/" << s.instr.logLoads << "/"
      << s.instr.clwbs << "/" << s.instr.fences << "/"
      << s.instr.atomics << "/" << s.instr.txOverhead
      << " nvram=" << s.nvramReads << "/" << s.nvramWrites << "/"
      << s.nvramReadBytes << "/" << s.nvramWriteBytes
      << " dram=" << s.dramReads << "/" << s.dramWrites
      << " l1=" << s.l1Hits << "/" << s.l1Misses << " l2=" << s.l2Hits
      << "/" << s.l2Misses << " log=" << s.logRecords << "/"
      << s.logWraps << "/" << s.logBufferStalls
      << " fwb=" << s.fwbScans << "/" << s.fwbWritebacks
      << " hazards=" << s.orderViolations << "/" << s.overwriteHazards
      << " logfull=" << s.logFullStalls << "/" << s.forcedWritebacks
      << "/" << s.logFullEscalations << " cc=" << s.ccLockWaits << "/"
      << s.ccDeadlockAborts << "/" << s.ccValidationFailures
      << " events=" << s.eventsScheduled << "/" << s.eventsExecuted
      << "/" << s.eventHeapSpills << "/" << s.callbackHeapAllocs
      << " journal=" << s.journalEntries
      << " energy=" << s.energy.nvramReadPj << "/"
      << s.energy.nvramWritePj << "/" << s.energy.dramPj << "/"
      << s.energy.l1Pj << "/" << s.energy.l2Pj << "/"
      << s.energy.corePj << " retries=" << retries
      << " user_aborts=" << userAborts
      << " layer=" << layer.logBufferStallCycles << "/"
      << layer.logFullStallCycles << "/" << layer.wcbFlushes << "/"
      << layer.wcbCoalescedStores << "/" << layer.nvramRowHits << "/"
      << layer.nvramRowConflicts;
    for (const auto &[name, m] : types)
        o << " " << name << "=" << m.committed << "/"
          << m.latency.count() << "/" << m.latency.sum() << "/"
          << m.latency.min() << "/" << m.latency.max() << "/"
          << m.latency.p50() << "/" << m.latency.p99() << "/"
          << m.latency.p999();
    return o.str();
}

OltpRun
runOltp(const OltpCell &cell, Tracer *tracer, bool probe,
        const AfterRun &after)
{
    OltpRun r;
    const workloads::WorkloadParams params = paramsOf(cell);
    std::unique_ptr<System> sys;
    std::unique_ptr<workloads::Workload> wl;

    r.host.construct = timed(tracer, "core.construct", [&] {
        sys = std::make_unique<System>(configOf(cell), cell.mode);
    });
    r.host.setup = timed(tracer, "oltp.setup", [&] {
        wl = workloads::makeWorkload(cell.engine);
        wl->setup(*sys, params);
    });
    oltp::OltpEngine &engine = engineOf(*wl);

    if (probe) {
        sys->setProbe([&](sim::ProbeEvent e, Tick now, std::uint64_t) {
            if (e != sim::ProbeEvent::TxCommit)
                return;
            ++r.occSamples;
            if (persist::LogBuffer *lb = sys->logBuffer())
                r.logOccSum += lb->occupancy(now);
            r.wcbOccSum += sys->mem().wcb().occupancy();
        });
    }

    r.host.run = timed(tracer, "core.spawn", [&] {
        for (CoreId c = 0; c < cell.threads; ++c)
            sys->spawn(c, [&](Thread &t) -> sim::Co<void> {
                return wl->thread(*sys, t, params);
            });
    });
    r.host.run +=
        timed(tracer, "core.run", [&] { r.end = sys->run(kTickNever); });
    // Stats reflect the measured run; the flush only exposes a
    // complete image for the oracle (as workloads::runWorkload does).
    r.host.collect = timed(tracer, "core.collect_stats", [&] {
        r.stats = sys->collectStats(r.end);
    });
    r.layer = readLayerCounters(*sys);
    r.host.flush =
        timed(tracer, "core.flush", [&] { sys->flushAll(r.end); });
    r.host.verify = timed(tracer, "oltp.verify", [&] {
        r.verified =
            wl->verify(sys->mem().nvram().store(), &r.verifyMessage);
    });

    r.retries = engine.retries();
    r.userAborts = engine.userAborts();
    r.types = engine.txMetrics();
    for (const auto &[name, m] : r.types)
        r.latency.merge(m.latency);

    if (after)
        after(*sys, *wl, r.end);
    return r;
}

double
timeOltpSetup(const OltpCell &cell)
{
    Clock::time_point t0 = Clock::now();
    System sys(configOf(cell), cell.mode);
    auto wl = workloads::makeWorkload(cell.engine);
    wl->setup(sys, paramsOf(cell));
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

crashlab::SweepConfig
crashSweepConfig(const OltpCell &cell, std::size_t points,
                 std::uint64_t sampleSeed)
{
    crashlab::SweepConfig cfg;
    cfg.run.workload = cell.engine;
    cfg.run.mode = cell.mode;
    cfg.run.params = paramsOf(cell);
    cfg.run.sys = configOf(cell);
    cfg.jobs = 1;
    cfg.maxPoints = points;
    cfg.sampleSeed = sampleSeed;
    return cfg;
}

crashlab::SweepResult
runSweep(const crashlab::SweepConfig &cfg, Tracer *tracer)
{
    ScopedSpan s(tracer, "crashlab.sweep");
    return crashlab::runCrashSweep(cfg);
}

CrashWalk
walkCrashTicks(System &sys, const workloads::Workload &wl, Tick end,
               std::size_t points, std::uint64_t seed, Tracer *tracer)
{
    CrashWalk w;
    if (end < 2)
        return w;
    sim::Rng rng(seed);
    std::vector<Tick> ticks(points);
    for (Tick &t : ticks)
        t = 1 + rng.below(end - 1);
    std::sort(ticks.begin(), ticks.end());

    // The journal index is built once, ahead of the first snapshot,
    // so no single snapshot's time carries it.
    timed(tracer, "mem.snapshot_index",
          [&] { sys.mem().nvram().store().buildSnapshotIndex(); });
    for (Tick t : ticks) {
        ScopedSpan point(tracer, "bench.crash_point");
        std::optional<mem::BackingStore> image;
        w.snapshotUs.push_back(
            1e6 * timed(tracer, "mem.crash_snapshot",
                        [&] { image.emplace(sys.crashSnapshot(t)); }));
        persist::RecoveryReport rep;
        w.recoverUs.push_back(
            1e6 * timed(tracer, "persist.recover", [&] {
                rep = persist::Recovery::run(*image, sys.config().map);
            }));
        w.slotsScanned += rep.slotsScanned;
        std::string why;
        bool ok = false;
        timed(tracer, "oltp.verify", [&] { ok = wl.verify(*image, &why); });
        ++w.points;
        if (!ok) {
            if (w.failed++ == 0)
                w.firstFailure = "crash @" + std::to_string(t) + ": " + why;
        }
    }
    return w;
}

double
interpolatedQuantile(const oltp::LatencyHistogram &h, double q)
{
    using H = oltp::LatencyHistogram;
    const std::uint64_t n = h.count();
    if (n == 0)
        return 0.0;
    // Value reported for the r-th smallest sample (1-based): its
    // bucket's upper bound, or the maximum in the top bucket.
    auto atRank = [&](std::uint64_t r) {
        return h.quantile((static_cast<double>(r) - 0.5) /
                          static_cast<double>(n));
    };
    const std::uint64_t rank = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n))),
        1, n);
    const std::uint64_t value = atRank(rank);
    if (value < H::kSub)
        return static_cast<double>(value); // exact buckets
    // Ranks [first, last] share value's bucket.
    std::uint64_t lo = 1, hi = rank;
    while (lo < hi) {
        std::uint64_t mid = lo + (hi - lo) / 2;
        if (atRank(mid) < value)
            lo = mid + 1;
        else
            hi = mid;
    }
    const std::uint64_t first = lo;
    lo = rank;
    hi = n;
    while (lo < hi) {
        std::uint64_t mid = hi - (hi - lo) / 2;
        if (atRank(mid) > value)
            hi = mid - 1;
        else
            lo = mid;
    }
    const std::uint64_t last = lo;
    // The bucket is [lower, lower + width): the bits of value below its
    // top kSubBits + 1 bits are free.
    const unsigned msb = static_cast<unsigned>(std::bit_width(value)) - 1;
    const std::uint64_t width = std::uint64_t{1} << (msb - H::kSubBits);
    const std::uint64_t lower = value & ~(width - 1);
    return static_cast<double>(lower) +
           static_cast<double>(value + 1 - lower) *
               (static_cast<double>(rank - first) + 0.5) /
               static_cast<double>(last - first + 1);
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

void
resetPeakRss()
{
    // Hand freed heap back to the kernel first, or the previous
    // workload's arena would count towards the next one's peak.
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

} // namespace snfbench
