/**
 * @file
 * Failure-atomicity invariant checkers evaluated against one crash
 * snapshot. Each checker recovers private copies of the image and
 * compares the outcome with facts extracted from the reference run's
 * probe trace:
 *
 *  - header-valid        the log header survives every crash instant
 *  - replay-idempotent   replaying again, without truncation, the
 *                        image the canonical pass leaves just before
 *                        it truncates changes no byte (I6)
 *  - truncate-idempotent recovering the already-recovered image finds
 *                        an empty log and changes nothing (I6)
 *  - verify              the workload's own structural check passes
 *                        on the recovered image (committed effects
 *                        durable, uncommitted rolled back) — only
 *                        enforced for modes that guarantee failure
 *                        atomicity
 *  - committed-upper     recovery never resurrects a transaction
 *                        whose commit had not executed by the crash
 *  - committed-durable   every commit record durable by the crash is
 *                        recovered as committed (needs an unwrapped
 *                        log: reclamation may erase old records)
 *  - uncommitted-bound   uncommitted generations are bounded by the
 *                        open-transaction count plus commits still in
 *                        flight (unwrapped log only)
 */

#ifndef SNF_CRASHLAB_INVARIANTS_HH
#define SNF_CRASHLAB_INVARIANTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/system_config.hh"
#include "mem/backing_store.hh"
#include "persist/recovery.hh"
#include "workloads/workload.hh"

namespace snf::crashlab
{

/** One failed invariant at one crash point. */
struct Violation
{
    std::string invariant; ///< short checker name (see file comment)
    std::string detail;    ///< human-readable diagnosis
};

/** Reference-run facts as of the crash tick. */
struct CrashFacts
{
    Tick tick = 0;
    std::uint64_t txBegun = 0;          ///< begins executed by tick
    std::uint64_t txCommitted = 0;      ///< commits initiated by tick
    std::uint64_t txDurableCommits = 0; ///< commit records durable
    std::uint32_t threads = 0;
    std::uint64_t logWraps = 0; ///< wraps over the whole run
    PersistMode mode = PersistMode::NonPers;
};

class CrashTrace;

/**
 * The facts of a finalized reference trace at @p tick. Aborts close
 * with a commit record under undo-capable modes, so they join
 * txCommitted, the commit-record upper bound.
 */
CrashFacts crashFactsAt(const CrashTrace &trace, Tick tick,
                        std::uint32_t threads, std::uint64_t logWraps,
                        PersistMode mode);

/**
 * Installs a thread-local nanosecond accumulator that every
 * checkCrashPoint on this thread adds the wall-clock of its workload
 * oracle (Workload::verify) to while the scope is alive, as
 * persist::RecoveryTimerScope does for Recovery::run. The crash sweep
 * uses it to report how much of its check time the oracle takes.
 * Scopes nest; a null sink means timing is off, the default.
 */
class VerifyTimerScope
{
  public:
    explicit VerifyTimerScope(std::uint64_t *sinkNs);
    ~VerifyTimerScope();

    VerifyTimerScope(const VerifyTimerScope &) = delete;
    VerifyTimerScope &operator=(const VerifyTimerScope &) = delete;

  private:
    std::uint64_t *prev;
};

/** True when @p mode promises full failure atomicity on recovery. */
bool guaranteesFailureAtomicity(PersistMode mode);

/**
 * Run every applicable checker against the crash snapshot @p image.
 * @param image      NVRAM image at the crash instant (not modified;
 *                   checkers recover private copies)
 * @param map        the run's address map
 * @param wl         the workload, for its verify() check
 * @param facts      trace facts at the crash tick
 * @param recOpts    recovery knobs (fault injection passes through
 *                   so snfcrash --inject-* exercises the checkers)
 * @param reportOut  if non-null, receives the recovery report of the
 *                   canonical (truncating) pass
 * @return all violations found; empty means the crash point passed.
 */
std::vector<Violation>
checkCrashPoint(const mem::BackingStore &image, const AddressMap &map,
                const workloads::Workload &wl, const CrashFacts &facts,
                const persist::RecoveryOptions &recOpts,
                persist::RecoveryReport *reportOut = nullptr);

/**
 * Debug dump of the log window in @p image: header fields plus the
 * per-slot written/torn/commit summary of every non-empty slot.
 * Attached to minimized failure reports.
 */
std::string describeLogWindow(const mem::BackingStore &image,
                              const AddressMap &map);

} // namespace snf::crashlab

#endif // SNF_CRASHLAB_INVARIANTS_HH
