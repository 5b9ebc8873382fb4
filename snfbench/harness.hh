/**
 * @file
 * The benchmark's only contact with the simulator. It drives snf
 * through public calls — System's constructor, spawn, run,
 * collectStats, flushAll and crashSnapshot; Workload::setup and
 * verify; the OltpEngine metrics; crashlab::runCrashSweep;
 * persist::Recovery::run — and reads the public sim::Counter members
 * of the persist and mem components. Every call is wrapped in a span
 * named after the layer it enters, so a traced run can attribute host
 * time per layer.
 */

#ifndef SNFBENCH_HARNESS_HH
#define SNFBENCH_HARNESS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/system.hh"
#include "crashlab/sweep.hh"
#include "oltp/engine.hh"
#include "trace.hh"

namespace snfbench
{

/** One closed-loop OLTP cell: every simulated core is one client. */
struct OltpCell
{
    std::string engine = "oltp-tpcc"; ///< oltp-tpcc | oltp-ycsb
    snf::PersistMode mode = snf::PersistMode::Fwb;
    snf::CcMode cc = snf::CcMode::TwoPhase;
    std::uint32_t threads = 8;
    std::uint64_t warehouses = 0; ///< TPC-C only
    /** Customers per district (TPC-C) or keys (YCSB). */
    std::uint64_t footprint = 0;
    double zipfTheta = 0.0; ///< YCSB only
    std::uint64_t txPerThread = 0;
    std::uint64_t seed = 1;
    /** Keep the NVRAM write journal so crashSnapshot works. */
    bool crashJournal = false;
};

/** Host seconds spent in each public call of one OLTP run. */
struct HostPhases
{
    double construct = 0; ///< System constructor
    double setup = 0;     ///< Workload::setup
    double run = 0;       ///< spawn + System::run
    double collect = 0;   ///< System::collectStats
    double flush = 0;     ///< System::flushAll
    double verify = 0;    ///< Workload::verify
};

/** Counters RunStats does not carry, read from the components. */
struct LayerCounters
{
    std::uint64_t logBufferStallCycles = 0;
    std::uint64_t logFullStallCycles = 0;
    std::uint64_t wcbFlushes = 0;
    std::uint64_t wcbCoalescedStores = 0;
    std::uint64_t nvramRowHits = 0;
    std::uint64_t nvramRowConflicts = 0;
};

/** Everything one OLTP run produced. */
struct OltpRun
{
    snf::RunStats stats;
    snf::Tick end = 0;
    std::uint64_t retries = 0;
    std::uint64_t userAborts = 0;
    /** Per-type commit counts and latency, in registration order. */
    std::vector<std::pair<std::string, snf::oltp::TxTypeMetrics>> types;
    /** All types' commit latencies merged. */
    snf::oltp::LatencyHistogram latency;
    LayerCounters layer;
    HostPhases host;
    bool verified = false;
    std::string verifyMessage;

    /** Commit-probe samples (zero unless the probe was installed). */
    std::uint64_t occSamples = 0;
    std::uint64_t logOccSum = 0;
    std::uint64_t wcbOccSum = 0;

    /**
     * Every simulated counter of the run as text. Two runs of one
     * cell must give the same string; the commit probe's own samples
     * are left out, so a probed run must match an unprobed one.
     */
    std::string fingerprint() const;
};

/**
 * Called after verify with the live System, the workload and the end
 * tick; the crash walk uses it to take snapshots of the finished run.
 */
using AfterRun =
    std::function<void(snf::System &, const snf::workloads::Workload &,
                       snf::Tick)>;

/**
 * Run one cell end to end: construct, setup, spawn, run, collectStats,
 * flushAll, verify. @p probe installs the log-buffer / WCB occupancy
 * probe on every commit.
 */
OltpRun runOltp(const OltpCell &cell, Tracer *tracer, bool probe,
                const AfterRun &after = {});

/** Host seconds of System construction plus Workload::setup alone. */
double timeOltpSetup(const OltpCell &cell);

/** One crash-point sweep cell (see crashlab::runCrashSweep). */
snf::crashlab::SweepConfig crashSweepConfig(const OltpCell &cell,
                                            std::size_t points,
                                            std::uint64_t sampleSeed);

/** runCrashSweep wrapped in a crashlab span. */
snf::crashlab::SweepResult runSweep(const snf::crashlab::SweepConfig &cfg,
                                    Tracer *tracer);

/** Host timings of a walk over crash ticks of a finished run. */
struct CrashWalk
{
    std::vector<double> snapshotUs; ///< per System::crashSnapshot
    std::vector<double> recoverUs;  ///< per Recovery::run
    std::uint64_t slotsScanned = 0;
    std::size_t points = 0;
    std::size_t failed = 0;
    std::string firstFailure;
};

/**
 * Walk @p points crash ticks, drawn uniformly from [1, end) by @p seed,
 * through crashSnapshot -> Recovery::run -> Workload::verify.
 */
CrashWalk walkCrashTicks(snf::System &sys,
                         const snf::workloads::Workload &wl, snf::Tick end,
                         std::size_t points, std::uint64_t seed,
                         Tracer *tracer);

/**
 * Quantile @p q of @p h, read linearly inside the histogram bucket
 * that holds it. LatencyHistogram::quantile reports the bucket's upper
 * bound, which steps by up to 12.5%; the rank's position inside the
 * bucket gives a value that moves smoothly with the distribution.
 */
double interpolatedQuantile(const snf::oltp::LatencyHistogram &h, double q);

/** Peak resident set of this process in MB (VmHWM). */
double peakRssMb();

/**
 * Reset the peak-RSS mark to the current RSS, so the next workload of
 * a multi-workload run reports its own peak.
 */
void resetPeakRss();

} // namespace snfbench

#endif // SNFBENCH_HARNESS_HH
