/**
 * @file
 * Workload framework: the interface every benchmark implements
 * (functional setup, a per-thread transaction coroutine, and a
 * post-run/post-recovery consistency check over the NVRAM image),
 * plus the by-name factory used by tests and benches.
 */

#ifndef SNF_WORKLOADS_WORKLOAD_HH
#define SNF_WORKLOADS_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "core/system.hh"
#include "sim/coro.hh"
#include "sim/rng.hh"

namespace snf::workloads
{

/** Knobs shared by all workloads. */
struct WorkloadParams
{
    std::uint32_t threads = 1;
    std::uint64_t txPerThread = 200;
    std::uint64_t seed = 1;
    /** String variant: multi-line values instead of one word. */
    bool stringValues = false;
    /** Elements in the initial structure; 0 = workload default. */
    std::uint64_t footprint = 0;
    /**
     * Shared-data contention knob for program-driven workloads: the
     * probability a generated op targets the shared conflict region
     * (conformlab::ProgGenConfig::conflictRate). 0 = conflict-free.
     */
    double conflictRate = 0.0;
    /**
     * TPC-C warehouses (oltp-tpcc): 0 = one per thread. With fewer
     * warehouses than threads the engine requires a CC scheme, since
     * threads then contend on shared warehouse rows.
     */
    std::uint64_t warehouses = 0;
    /** Zipf skew exponent for oltp-ycsb, in (0, 1); 0 = default. */
    double zipfTheta = 0.0;
};

/** See file comment. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string name() const = 0;

    /**
     * Functionally preload the initial data structure into the
     * persistent heap (models data that existed before the run).
     */
    virtual void setup(System &sys, const WorkloadParams &params) = 0;

    /** The transaction loop executed by thread @p t. */
    virtual sim::Co<void> thread(System &sys, Thread &t,
                                 const WorkloadParams &params) = 0;

    /**
     * Check structural consistency of the NVRAM image (after a
     * graceful flush, or after crash + recovery).
     * @param why receives a diagnostic when the check fails.
     */
    virtual bool verify(const mem::BackingStore &nvram,
                        std::string *why) const = 0;

    /**
     * Can this workload resume on a recovered NVRAM image (lifelab)?
     * A resumable workload's thread() must operate correctly on the
     * structure left by a previous generation's setup()+run — the
     * lifecycle driver skips setup() after the first generation and
     * only restores the heap cursor, so the workload object's own
     * members (base addresses, expected aggregates) carry over.
     */
    virtual bool resumable() const { return false; }

    /**
     * Does every thread write only persistent data of its own (split
     * by Thread::id())? Distributed per-core logs need it: writes to
     * a shared address from different log regions have no
     * recovery-time order, so workloads::LiveCell rejects any other
     * workload whose log layout resolves to per-core regions
     * (PersistConfig::kPerCoreLogs under a hardware-logging mode).
     * Asked after setup(), which may decide it from the config.
     */
    virtual bool threadPrivate() const { return false; }
};

/** Instantiate a workload by name; fatal() on unknown names. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

/** Names of the five paper microbenchmarks (Table III). */
const std::vector<std::string> &microbenchNames();

/** Names of the WHISPER-like workloads; WHISPER's tpcc and ycsb are
 *  the OLTP engines (oltpNames()). */
const std::vector<std::string> &whisperNames();

/** Names of the production-scale OLTP engines (src/oltp). */
const std::vector<std::string> &oltpNames();

/** All workload names. */
std::vector<std::string> allWorkloadNames();

} // namespace snf::workloads

#endif // SNF_WORKLOADS_WORKLOAD_HH
