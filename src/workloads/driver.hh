/**
 * @file
 * The experiment driver: runs one (workload, persistence mode,
 * thread-count) combination end to end — setup, simulation, optional
 * crash + recovery, verification — and returns the paper's metrics.
 * LiveCell is the one place a RunSpec becomes a running cell.
 */

#ifndef SNF_WORKLOADS_DRIVER_HH
#define SNF_WORKLOADS_DRIVER_HH

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "core/system.hh"
#include "persist/recovery.hh"
#include "workloads/workload.hh"

namespace snf::workloads
{

/** Everything needed to run one experiment cell. */
struct RunSpec
{
    std::string workload = "sps";
    PersistMode mode = PersistMode::NonPers;
    WorkloadParams params;
    SystemConfig sys = SystemConfig::scaled();
    /**
     * Crash the machine at this tick, then recover and verify from
     * the NVRAM snapshot (requires sys.persist.crashJournal).
     */
    std::optional<Tick> crashAt;
    /** Recovery knobs for crash runs (crashlab fault injection). */
    persist::RecoveryOptions recovery;
    /** Run the consistency check at the end; a graceful run writes
     *  back all volatile state for it, and only then. */
    bool verifyAtEnd = true;
};

/** Result of one experiment cell. */
struct RunOutcome
{
    RunStats stats;
    Tick endTick = 0;
    bool crashed = false;
    bool verified = true;
    std::string verifyMessage;
    persist::RecoveryReport recovery;
};

/**
 * One cell, live: the System and the workload a RunSpec names, kept
 * alive after the run for callers that attach a probe to system()
 * before run() or read the device after it.
 */
class LiveCell
{
  public:
    /** Build the System and set up the workload; fatal() when the
     *  threads outnumber the cores, a crash run has no NVRAM journal,
     *  or per-core log regions would hold data the threads share
     *  (asked after setup(), which may decide it). */
    explicit LiveCell(const RunSpec &spec);
    // The spawned threads hold its address.
    LiveCell(const LiveCell &) = delete;
    LiveCell &operator=(const LiveCell &) = delete;

    System &system() { return sys; }
    const Workload &workload() const { return *wl; }

    /** Spawn every thread and run to spec.crashAt, or to the end.
     *  @return the final simulated tick. */
    Tick run();

    /** Statistics of the measured run; then recovery of the crash
     *  image past spec.crashAt, or the flush of a graceful run that
     *  verifies; then the check of that image when the spec verifies. */
    RunOutcome finish();

  private:
    const RunSpec spec;
    std::unique_ptr<Workload> wl;
    System sys;
    Tick end = 0;
};

/**
 * Run one cell. fatal() on misconfiguration. With @p statsDump, every
 * component counter is dumped there (System::dumpStats) as soon as
 * the simulation stops, before any crash snapshot or final flush.
 */
RunOutcome runWorkload(const RunSpec &spec,
                       std::ostream *statsDump = nullptr);

} // namespace snf::workloads

#endif // SNF_WORKLOADS_DRIVER_HH
