#include "workloads.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <optional>
#include <stdexcept>

namespace snfbench
{

using namespace snf;

namespace
{

using Clock = std::chrono::steady_clock;

/** Runs every workload makes at least, whatever the time budget. */
constexpr int kMinIterations = 4;
/**
 * Independently seeded cells per workload run: cell k of seed s runs
 * with simulation seed s * kCells + k.
 */
constexpr std::uint64_t kCells = 16;
/** Extra construct + setup samples per untraced OLTP run. */
constexpr int kSetupSamples = 16;
/** Crash points each crash-tpcc sweep evaluates. */
constexpr std::size_t kCrashPoints = 100;
/** Crash ticks the traced crash-tpcc run walks by hand. */
constexpr std::size_t kWalkPoints = 64;

/** Layers whose self time the traced run reports. */
const char *const kLayers[] = {"bench", "core",    "oltp",
                               "persist", "mem", "crashlab"};

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/**
 * Host samples of one run, calibrated. The host is shared, and its
 * speed drifts by 20% and more over tens of seconds, in CPU time as much
 * as in wall time. A fixed probe — 400 000 calls of std::pow, the Zipf
 * normalisation loop YCSB runs — is timed between measured spans. Each
 * sample is scaled by the mean slowdown of the probes either side of
 * it, against the probe's uncontended time (kNominalSeconds); raw
 * medians are kept too. Among the probes tried (a pointer chase over
 * 8 MB, an integer hash loop, this one), this one tracked every
 * workload's drift best.
 */
class HostSamples
{
  public:
    /** Time one probe; samples added after it fall behind it. Call it
     *  before the first sample and after the last. */
    void
    probe()
    {
        Clock::time_point t0 = Clock::now();
        double sum = 0;
        for (std::uint32_t i = 1; i <= kSteps; ++i)
            sum += std::pow(static_cast<double>(i), -0.9);
        double sec = secondsSince(t0);
        // Using sum keeps the loop from being optimised away.
        slowdowns.push_back((sec + (sum < 0 ? 1.0 : 0.0)) / kNominalSeconds);
    }

    /** A rate (work per host second) measured since the last probe. */
    void addRate(double v) { rates.push_back({v, slowdowns.size() - 1}); }

    /** A host duration measured since the last probe. */
    void
    addDuration(double v)
    {
        durations.push_back({v, slowdowns.size() - 1});
    }

    double rawRate() const { return median(values(rates, 0)); }
    double rawDuration() const { return median(values(durations, 0)); }
    /** Rates times their slowdown: as if the probe ran at nominal speed. */
    double rate() const { return median(values(rates, 1)); }
    /** Durations over their slowdown, likewise. */
    double duration() const { return median(values(durations, -1)); }
    double slowdown() const { return median(slowdowns); }
    std::size_t rateCount() const { return rates.size(); }
    std::size_t durationCount() const { return durations.size(); }

  private:
    struct Sample
    {
        double raw;
        std::size_t probeBefore;
    };

    /** Raw values times the slowdown around each to the @p power. */
    std::vector<double>
    values(const std::vector<Sample> &samples, int power) const
    {
        std::vector<double> v;
        for (const Sample &s : samples) {
            std::size_t after =
                std::min(s.probeBefore + 1, slowdowns.size() - 1);
            double slow =
                0.5 * (slowdowns[s.probeBefore] + slowdowns[after]);
            v.push_back(s.raw * std::pow(slow, power));
        }
        return v;
    }

    static constexpr std::uint32_t kSteps = 400000;
    /** The probe's fastest time on a 4-vCPU x86-64 host, about 16 ns
     *  per call; scaled values read as if it ran that fast. */
    static constexpr double kNominalSeconds = 0.0064;

    std::vector<double> slowdowns;
    std::vector<Sample> rates, durations;
};

double
ratio(double num, double den)
{
    return den == 0 ? 0.0 : num / den;
}

void
require(WorkloadResult &res, bool ok, const std::string &what)
{
    if (!ok) {
        res.correct = false;
        res.problems.push_back(what);
    }
}

/** Host seconds the user of an OLTP run waits for: run to verify. */
double
measuredSeconds(const HostPhases &h)
{
    return h.run + h.collect + h.flush + h.verify;
}

double
totalSeconds(const HostPhases &h)
{
    return h.construct + h.setup + measuredSeconds(h);
}

/**
 * The checks every OLTP run passes: the workload's own oracle, no
 * persist-ordering violation or live-log overwrite, and the same
 * simulated counters as the workload's first run.
 */
void
checkOltpRun(WorkloadResult &res, const OltpRun &r,
             const std::string &expectFingerprint)
{
    require(res, r.verified, "verify failed: " + r.verifyMessage);
    require(res, r.stats.orderViolations == 0,
            "persist.order_violations = " +
                std::to_string(r.stats.orderViolations));
    require(res, r.stats.overwriteHazards == 0,
            "persist.overwrite_hazards = " +
                std::to_string(r.stats.overwriteHazards));
    require(res, r.fingerprint() == expectFingerprint,
            "simulated counters differ between runs of one cell");
}

/** Count a run's transactions: those that never committed failed,
 *  except business rollbacks; a failed oracle fails them all. */
void
countOltpRun(WorkloadResult &res, const OltpCell &cell, const OltpRun &r)
{
    std::uint64_t attempted = cell.threads * cell.txPerThread;
    std::uint64_t done = r.stats.committedTx + r.userAborts;
    res.attempted += attempted;
    res.failed += !r.verified ? attempted
                              : attempted - std::min(attempted, done);
}

/**
 * The simulated end-to-end metrics over every transaction of the
 * workload's independently seeded cells, pooled: commits over cycles,
 * bytes and energy over commits, and the quantiles of all cells'
 * latency histograms merged.
 */
void
addSimMetrics(std::vector<Metric> &out, const std::vector<OltpRun> &runs)
{
    double cycles = 0, commits = 0, bytes = 0, memPj = 0;
    oltp::LatencyHistogram latency;
    for (const OltpRun &r : runs) {
        cycles += static_cast<double>(r.stats.cycles);
        commits += static_cast<double>(r.stats.committedTx);
        bytes += static_cast<double>(r.stats.nvramWriteBytes);
        memPj += r.stats.energy.memoryDynamicPj();
        latency.merge(r.latency);
    }
    const std::uint64_t n = latency.count();
    const std::string pooled =
        std::to_string(runs.size()) + " cells pooled, " +
        std::to_string(static_cast<std::uint64_t>(commits)) + " commits";
    out.push_back({"sim_tx_per_mcycle", ratio(commits * 1e6, cycles),
                   "tx/Mcycle", pooled});
    out.push_back({"sim_commit_p50_cycles",
                   interpolatedQuantile(latency, 0.50), "cycles",
                   std::to_string(n) + " samples"});
    out.push_back({"sim_commit_p99_cycles",
                   interpolatedQuantile(latency, 0.99), "cycles",
                   std::to_string(n) + " samples, " +
                       std::to_string(n / 100) + " beyond"});
    out.push_back({"sim_nvram_write_bytes_per_tx", ratio(bytes, commits),
                   "B/tx", pooled});
    out.push_back({"sim_mem_energy_nj_per_tx", ratio(memPj * 1e-3, commits),
                   "nJ/tx", pooled});
}

/** The uncalibrated host medians and the calibration's own, for people. */
void
addRawHostMetrics(std::vector<Metric> &out, const HostSamples &host)
{
    out.push_back({"host_work_per_s.raw", host.rawRate(), "1/s",
                   "wall clock, not calibrated"});
    out.push_back({"setup_s.raw", host.rawDuration(), "s",
                   "wall clock, not calibrated"});
    out.push_back({"host_slowdown", host.slowdown(), "x",
                   "calibration probe time over its nominal time"});
}

/** Medians of each host phase over several runs. */
HostPhases
medianPhases(const std::vector<HostPhases> &runs)
{
    auto field = [&](double HostPhases::*f) {
        std::vector<double> v;
        for (const HostPhases &h : runs)
            v.push_back(h.*f);
        return median(v);
    };
    HostPhases m;
    m.construct = field(&HostPhases::construct);
    m.setup = field(&HostPhases::setup);
    m.run = field(&HostPhases::run);
    m.collect = field(&HostPhases::collect);
    m.flush = field(&HostPhases::flush);
    m.verify = field(&HostPhases::verify);
    return m;
}

/** Crash-only inputs of the per-layer table (absent on OLTP). */
struct CrashLayer
{
    CrashWalk walk;
    crashlab::SweepPerf perf; ///< per-phase medians of traced sweeps
};

/** Inputs of the per-layer table. */
struct LayerInputs
{
    const OltpCell &cell;
    const OltpRun &run;
    HostPhases phases{};
    std::map<std::string, double> selfSeconds{};
    std::size_t tracedIterations = 0;
    double overheadShare = 0;
    const CrashLayer *crash = nullptr;
};

/** The per-layer table: the same names on every workload, zero where
 *  a layer does not apply (e.g. recovery on the OLTP workloads). */
std::vector<Metric>
layerMetrics(const LayerInputs &in)
{
    const RunStats &s = in.run.stats;
    const LayerCounters &l = in.run.layer;
    const double tx = static_cast<double>(s.committedTx);
    const double coreCycles =
        static_cast<double>(s.cycles) * static_cast<double>(in.cell.threads);
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    std::vector<Metric> m;
    auto add = [&](std::string name, double value, const char *unit) {
        m.push_back({std::move(name), value, unit, ""});
    };

    add("persist.log_buffer_stall_share",
        ratio(d(l.logBufferStallCycles), coreCycles), "ratio");
    add("persist.log_wraps", d(s.logWraps), "count");
    add("persist.log_full_stall_cycles", d(l.logFullStallCycles),
        "cycles");
    add("persist.log_full_forced_writebacks",
        d(s.forcedWritebacks), "count");
    add("persist.fwb_scans", d(s.fwbScans), "count");
    add("persist.fwb_forced_writebacks", d(s.fwbWritebacks),
        "count");
    add("persist.log_records_per_tx", ratio(d(s.logRecords), tx),
        "records/tx");
    add("persist.cc_lock_waits", d(s.ccLockWaits), "count");
    add("persist.cc_deadlock_aborts", d(s.ccDeadlockAborts),
        "count");
    add("persist.cc_validation_failures",
        d(s.ccValidationFailures), "count");
    add("persist.order_violations", d(s.orderViolations),
        "count");
    add("persist.overwrite_hazards", d(s.overwriteHazards),
        "count");
    add("persist.log_occ_mean",
        ratio(d(in.run.logOccSum), d(in.run.occSamples)),
        "records");
    const CrashWalk *walk = in.crash ? &in.crash->walk : nullptr;
    add("persist.recover_us_p50",
        walk ? median(walk->recoverUs) : 0.0, "us");
    add("persist.recover_us_p99",
        walk ? quantile(walk->recoverUs, 0.99) : 0.0, "us");
    add("persist.recover_slots_scanned",
        walk ? ratio(d(walk->slotsScanned), d(walk->points)) : 0.0,
        "slots/call");

    add("mem.l1_miss_ratio",
        ratio(d(s.l1Misses), d(s.l1Hits + s.l1Misses)), "share");
    add("mem.l2_miss_ratio",
        ratio(d(s.l2Misses), d(s.l2Hits + s.l2Misses)), "share");
    add("mem.nvram_reads", d(s.nvramReads), "count");
    add("mem.nvram_writes", d(s.nvramWrites), "count");
    add("mem.nvram_row_hit_ratio",
        ratio(d(l.nvramRowHits),
              d(l.nvramRowHits + l.nvramRowConflicts)),
        "share");
    add("mem.wcb_flushes", d(l.wcbFlushes), "count");
    add("mem.wcb_coalesced_stores", d(l.wcbCoalescedStores),
        "count");
    add("mem.wcb_occ_mean",
        ratio(d(in.run.wcbOccSum), d(in.run.occSamples)),
        "entries");
    add("mem.crash_snapshot_us_p50",
        walk ? median(walk->snapshotUs) : 0.0, "us");
    add("mem.crash_snapshot_us_p99",
        walk ? quantile(walk->snapshotUs, 0.99) : 0.0, "us");

    const cpu::InstructionCounts &i = s.instr;
    add("cpu.instructions_per_tx", ratio(d(i.total), tx),
        "instr/tx");
    add("cpu.log_instructions_per_tx",
        ratio(d(i.logLoads + i.logStores + i.clwbs + i.fences), tx),
        "instr/tx");
    add("cpu.ipc_per_core", s.ipc, "instr/cycle");

    add("sim.events_executed", d(s.eventsExecuted), "count");
    add("sim.event_heap_spills", d(s.eventHeapSpills), "count");
    add("sim.callback_heap_allocs", d(s.callbackHeapAllocs),
        "count");

    add("oltp.retries_per_commit", ratio(d(in.run.retries), tx),
        "retries/tx");
    add("oltp.user_aborts", d(in.run.userAborts), "count");
    add("oltp.setup_s", in.phases.setup, "s");
    add("oltp.verify_s", in.phases.verify, "s");

    add("core.construct_s", in.phases.construct, "s");
    add("core.run_s", in.phases.run, "s");
    add("core.collect_stats_s", in.phases.collect, "s");
    add("core.flush_s", in.phases.flush, "s");

    const crashlab::SweepPerf *p = in.crash ? &in.crash->perf : nullptr;
    add("crashlab.ref_run_s", p ? p->refRunSec : 0.0, "s");
    add("crashlab.harvest_s", p ? p->harvestSec : 0.0, "s");
    add("crashlab.index_s", p ? p->indexSec : 0.0, "s");
    add("crashlab.snapshot_s", p ? p->snapshotSec : 0.0, "s");
    add("crashlab.recover_s", p ? p->recoverSec : 0.0, "s");
    add("crashlab.check_s", p ? p->checkSec : 0.0, "s");
    add("crashlab.entries_replayed",
        p ? d(p->entriesReplayed) : 0.0, "count");
    add("crashlab.pages_cloned", p ? d(p->pagesCloned) : 0.0,
        "count");

    add("energy.proc_dynamic_nj_per_tx",
        ratio(s.energy.processorDynamicPj() * 1e-3, tx), "nJ/tx");

    for (const char *layer : kLayers) {
        auto it = in.selfSeconds.find(layer);
        double self = it == in.selfSeconds.end() ? 0.0 : it->second;
        add(std::string(layer) + ".self_s",
            ratio(self, d(in.tracedIterations)), "s/run");
    }
    add("trace.overhead_share", in.overheadShare, "share");
    return m;
}

/** The independently seeded cells of one workload run. */
std::vector<OltpCell>
cellsOf(const std::string &workload, std::uint64_t seed, bool journaled)
{
    std::vector<OltpCell> cells;
    for (std::uint64_t k = 0; k < kCells; ++k) {
        cells.push_back(workloadCell(workload, seed * kCells + k));
        cells.back().crashJournal = journaled;
    }
    return cells;
}

double
failedRatio(const WorkloadResult &res)
{
    return ratio(static_cast<double>(res.failed),
                 static_cast<double>(res.attempted));
}

WorkloadResult
runOltpWorkload(const std::string &name, const RunOptions &opts,
                Tracer &tracer)
{
    WorkloadResult res;
    res.workload = name;
    const std::vector<OltpCell> cells = cellsOf(name, opts.seed, false);
    const std::size_t firstSpan = tracer.spans().size();

    std::vector<double> plainS, tracedS;
    std::vector<HostPhases> tracedPhases;
    std::vector<OltpRun> firstRuns;
    std::optional<OltpRun> traced;
    std::vector<std::string> fingerprints(cells.size());
    HostSamples host;

    // Set-up alone, several times: System constructor + setup.
    if (!opts.traced) {
        host.probe();
        for (int k = 0; k < kSetupSamples; ++k)
            host.addDuration(timeOltpSetup(cells[k]));
    }

    // Untraced: the cells in turn. Traced: each cell twice in a row,
    // untraced then traced, so each pair must match byte for byte.
    const std::size_t minIterations = opts.traced ? kMinIterations : kCells;
    Clock::time_point start = Clock::now();
    for (std::size_t i = 0;
         i < minIterations || secondsSince(start) < opts.seconds; ++i) {
        const bool traceThis = opts.traced && i % 2 == 1;
        const std::size_t k = (opts.traced ? i / 2 : i) % kCells;
        Tracer *tr = traceThis ? &tracer : nullptr;
        if (traceThis)
            tracer.beginRun();
        if (!opts.traced)
            host.probe();
        OltpRun r;
        {
            ScopedSpan s(tr, "bench.iteration");
            r = runOltp(cells[k], tr, traceThis);
        }
        if (fingerprints[k].empty())
            fingerprints[k] = r.fingerprint();
        checkOltpRun(res, r, fingerprints[k]);
        countOltpRun(res, cells[k], r);
        if (traceThis) {
            tracedS.push_back(totalSeconds(r.host));
            tracedPhases.push_back(r.host);
            if (!traced)
                traced = std::move(r);
        } else {
            plainS.push_back(totalSeconds(r.host));
            host.addDuration(r.host.construct + r.host.setup);
            host.addRate(ratio(static_cast<double>(r.stats.committedTx),
                               measuredSeconds(r.host)));
            if (firstRuns.size() == k)
                firstRuns.push_back(std::move(r));
        }
    }

    if (!opts.traced) {
        host.probe();
        addSimMetrics(res.metrics, firstRuns);
        res.metrics.push_back(
            {"host_work_per_s", host.rate(), "1/s",
             "committed sim tx per calibrated host second, run..verify, "
             "median of " +
                 std::to_string(host.rateCount()) + " runs"});
        res.metrics.push_back(
            {"setup_s", host.duration(), "s",
             "calibrated System constructor + Workload::setup, median of " +
                 std::to_string(host.durationCount())});
        res.metrics.push_back({"peak_rss_mb", peakRssMb(), "MB", ""});
        res.extra.push_back({"host_sim_tx_per_s", host.rate(), "tx/s",
                             "same value as host_work_per_s"});
        addRawHostMetrics(res.extra, host);
    } else {
        LayerInputs in{cells[0], *traced};
        in.phases = medianPhases(tracedPhases);
        in.selfSeconds = tracer.selfSecondsByLayer(firstSpan);
        in.tracedIterations = tracedS.size();
        in.overheadShare = median(tracedS) / median(plainS) - 1.0;
        res.metrics = layerMetrics(in);
    }
    res.extra.push_back({"failed_ratio", failedRatio(res), "share", ""});
    return res;
}

WorkloadResult
runCrashWorkload(const std::string &name, const RunOptions &opts,
                 Tracer &tracer)
{
    WorkloadResult res;
    res.workload = name;
    // The swept cells, journaled like the sweep's own reference run:
    // their counters are the workload's simulated metrics, and the
    // first one's end tick and commits must match every sweep's.
    const std::vector<OltpCell> cells = cellsOf(name, opts.seed, true);
    const std::size_t firstSpan = tracer.spans().size();
    std::vector<OltpRun> refs;
    for (std::size_t k = 0; k < (opts.traced ? 1 : kCells); ++k) {
        refs.push_back(runOltp(cells[k], nullptr, false));
        checkOltpRun(res, refs.back(), refs.back().fingerprint());
    }
    const OltpRun &ref = refs.front();

    const crashlab::SweepConfig cfg =
        crashSweepConfig(cells[0], kCrashPoints, opts.seed);
    std::vector<double> plainS, tracedS;
    std::vector<crashlab::SweepPerf> tracedPerf;
    std::size_t harvested = 0;
    HostSamples host;

    Clock::time_point start = Clock::now();
    for (int i = 0; i < kMinIterations || secondsSince(start) < opts.seconds;
         ++i) {
        const bool traceThis = opts.traced && i % 2 == 1;
        Tracer *tr = traceThis ? &tracer : nullptr;
        if (traceThis)
            tracer.beginRun();
        if (!opts.traced)
            host.probe();
        crashlab::SweepResult sw;
        {
            ScopedSpan s(tr, "bench.iteration");
            sw = runSweep(cfg, tr);
        }
        if (i == 0)
            harvested = sw.pointsHarvested;
        require(res, sw.passed(),
                "crash sweep failed: " + std::to_string(sw.pointsFailed) +
                    " points, " + sw.refVerifyMessage + sw.minimizedDetail);
        require(res, sw.endTick == ref.end &&
                         sw.refCommittedTx == ref.stats.committedTx,
                "sweep reference run differs from the swept cell");
        require(res, sw.pointsHarvested == harvested,
                "harvested crash points differ between sweeps");
        res.attempted += sw.pointsTested;
        res.failed += sw.refVerified ? sw.pointsFailed : sw.pointsTested;

        const crashlab::SweepPerf &p = sw.perf;
        const double setup = p.refRunSec + p.harvestSec + p.indexSec;
        if (traceThis) {
            tracedS.push_back(p.totalSec);
            tracedPerf.push_back(p);
        } else {
            plainS.push_back(p.totalSec);
            host.addDuration(setup);
            host.addRate(ratio(static_cast<double>(sw.pointsTested),
                               p.totalSec - setup - p.minimizeSec));
        }
    }

    if (!opts.traced) {
        host.probe();
        addSimMetrics(res.metrics, refs);
        res.metrics.push_back(
            {"host_work_per_s", host.rate(), "1/s",
             "crash points evaluated per calibrated host second after "
             "setup, median of " +
                 std::to_string(host.rateCount()) + " sweeps of " +
                 std::to_string(kCrashPoints) + " points"});
        res.metrics.push_back(
            {"setup_s", host.duration(), "s",
             "calibrated reference run + harvest + index, median of " +
                 std::to_string(host.durationCount()) + " sweeps"});
        res.metrics.push_back({"peak_rss_mb", peakRssMb(), "MB", ""});
        res.extra.push_back({"crash_points_per_s", host.rate(), "points/s",
                             "same value as host_work_per_s"});
        addRawHostMetrics(res.extra, host);
    } else {
        // The traced reference run: the commit probe on, then a walk
        // over seeded crash ticks of the finished run.
        CrashLayer crash;
        tracer.beginRun();
        OltpRun tracedRef;
        {
            ScopedSpan s(&tracer, "bench.iteration");
            tracedRef = runOltp(
                cells[0], &tracer, true,
                [&](System &sys, const workloads::Workload &wl, Tick end) {
                    crash.walk = walkCrashTicks(sys, wl, end, kWalkPoints,
                                                opts.seed, &tracer);
                });
        }
        checkOltpRun(res, tracedRef, ref.fingerprint());
        require(res, crash.walk.failed == 0,
                "crash walk: " + std::to_string(crash.walk.failed) +
                    " points failed, first " + crash.walk.firstFailure);
        res.attempted += crash.walk.points;
        res.failed += crash.walk.failed;

        auto perfField = [&](double crashlab::SweepPerf::*f) {
            std::vector<double> v;
            for (const crashlab::SweepPerf &p : tracedPerf)
                v.push_back(p.*f);
            return median(v);
        };
        crash.perf = tracedPerf.back();
        crash.perf.refRunSec = perfField(&crashlab::SweepPerf::refRunSec);
        crash.perf.harvestSec = perfField(&crashlab::SweepPerf::harvestSec);
        crash.perf.indexSec = perfField(&crashlab::SweepPerf::indexSec);
        crash.perf.snapshotSec = perfField(&crashlab::SweepPerf::snapshotSec);
        crash.perf.recoverSec = perfField(&crashlab::SweepPerf::recoverSec);
        crash.perf.checkSec = perfField(&crashlab::SweepPerf::checkSec);

        LayerInputs in{cells[0], tracedRef};
        in.phases = tracedRef.host;
        in.selfSeconds = tracer.selfSecondsByLayer(firstSpan);
        in.tracedIterations = tracedS.size() + 1;
        in.overheadShare = median(tracedS) / median(plainS) - 1.0;
        in.crash = &crash;
        res.metrics = layerMetrics(in);
    }
    res.extra.push_back({"failed_ratio", failedRatio(res), "share", ""});
    return res;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"tpcc-fwb", "ycsb-undo",
                                                   "crash-tpcc"};
    return names;
}

OltpCell
workloadCell(const std::string &workload, std::uint64_t seed)
{
    OltpCell c;
    c.seed = seed;
    c.threads = 8;
    if (workload == "tpcc-fwb" || workload == "crash-tpcc") {
        c.engine = "oltp-tpcc";
        c.mode = PersistMode::Fwb;
        c.cc = CcMode::TwoPhase;
        c.warehouses = 4;
        c.footprint = 256;
        // crash-tpcc sweeps a shorter cell whose log still wraps.
        c.txPerThread = workload == "tpcc-fwb" ? 500 : 130;
    } else if (workload == "ycsb-undo") {
        c.engine = "oltp-ycsb";
        c.mode = PersistMode::UndoClwb;
        c.cc = CcMode::Tl2;
        c.footprint = 1000000;
        c.zipfTheta = 0.9;
        c.txPerThread = 4000;
    } else {
        throw std::invalid_argument("unknown workload '" + workload + "'");
    }
    return c;
}

WorkloadResult
runWorkload(const std::string &workload, const RunOptions &opts,
            Tracer &tracer)
{
    if (workload == "crash-tpcc")
        return runCrashWorkload(workload, opts, tracer);
    return runOltpWorkload(workload, opts, tracer);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

} // namespace snfbench
