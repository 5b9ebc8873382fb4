/**
 * @file
 * The experiment driver: runs one (workload, persistence mode,
 * thread-count) combination end to end — setup, simulation, optional
 * crash + recovery, verification — and returns the paper's metrics.
 */

#ifndef SNF_WORKLOADS_DRIVER_HH
#define SNF_WORKLOADS_DRIVER_HH

#include <iosfwd>
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
    /** Write back all volatile state at the end (graceful runs). */
    bool flushAtEnd = true;
    /** Run the consistency check at the end. */
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
 * Run one cell. fatal() on misconfiguration. With @p statsDump, every
 * component counter is dumped there (System::dumpStats) as soon as
 * the simulation stops, before any crash snapshot or final flush.
 */
RunOutcome runWorkload(const RunSpec &spec,
                       std::ostream *statsDump = nullptr);

} // namespace snf::workloads

#endif // SNF_WORKLOADS_DRIVER_HH
