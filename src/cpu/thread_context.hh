/**
 * @file
 * Per-thread (1:1 per-core) execution state of the timing model: the
 * local cycle clock, the store buffer that hides store latency, the
 * set of outstanding persist operations a fence must await, the
 * coroutine resume point used by the scheduler, and the stop tick
 * below which an op may run in place instead of parking.
 */

#ifndef SNF_CPU_THREAD_CONTEXT_HH
#define SNF_CPU_THREAD_CONTEXT_HH

#include <coroutine>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/types.hh"

namespace snf::cpu
{

/**
 * A simulated-memory operation parked by an awaiter, executed by the
 * scheduler when its thread is the globally earliest. Implementations
 * live in the awaiter objects inside coroutine frames. An execute()
 * that sets its thread's `pending` back to itself has more steps to
 * run; the scheduler then does not resume the coroutine.
 */
class PendingOp
{
  public:
    virtual void execute() = 0;

  protected:
    ~PendingOp() = default;
};

/** Instruction-count bookkeeping, by class. */
struct InstructionCounts
{
    std::uint64_t total = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t compute = 0;
    std::uint64_t logStores = 0;
    std::uint64_t logLoads = 0;
    std::uint64_t clwbs = 0;
    std::uint64_t fences = 0;
    std::uint64_t atomics = 0;
    std::uint64_t txOverhead = 0;

    InstructionCounts &operator+=(const InstructionCounts &o);
};

/** See file comment. */
class ThreadContext
{
  public:
    ThreadContext(CoreId coreId, std::uint32_t issueWidth,
                  std::uint32_t storeBufferEntries);

    CoreId id() const { return coreId; }

    /** Local cycle clock of this thread's core. */
    Tick localTime = 0;

    /** Instruction counters (by class). */
    InstructionCounts instr;

    // --- scheduler interface -------------------------------------

    bool started = false;
    bool finished = false;
    PendingOp *pending = nullptr;
    std::coroutine_handle<> resumePoint;
    std::coroutine_handle<> rootHandle;

    bool
    runnable() const
    {
        return !finished && (pending != nullptr || !started);
    }

    /** Ops run in place only below this tick; Scheduler::run sets it
     *  to its own stop tick. */
    Tick stopAt = 0;

    /**
     * May an op that reads and writes only this thread's state run
     * now, inside the coroutine, instead of parking? Only below
     * stopAt: the scheduler never executes an op parked at or past
     * it. On true the caller runs the op at once.
     */
    bool claimInPlace() const { return localTime < stopAt; }

    // --- timing helpers ------------------------------------------

    /** Retire @p n non-memory instructions. */
    void retireCompute(std::uint64_t n);

    /**
     * Record a store drain completing at @p done; stalls localTime if
     * the store buffer is full.
     */
    void noteStoreDrain(Tick done);

    /** Record an outstanding persist (clwb) completion tick. */
    void notePendingPersist(Tick done);

    /** Stall until all stores have drained and persists completed. */
    void drainForFence();

    std::uint32_t storeBufferCapacity() const { return sbCapacity; }

  private:
    CoreId coreId;
    std::uint32_t issueWidth;
    std::uint32_t sbCapacity;
    std::deque<Tick> storeBuffer;
    std::vector<Tick> pendingPersists;
};

} // namespace snf::cpu

#endif // SNF_CPU_THREAD_CONTEXT_HH
