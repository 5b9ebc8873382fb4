/**
 * @file
 * The Hardware Logging (HWL) engine (paper Section III-B).
 *
 * HWL observes every persistent store at the L1 — the old value comes
 * from the write-allocated cache line, the new value from the
 * in-flight store — and appends an undo and/or redo record to the log
 * buffer, with zero instructions executed in the pipeline. Commits
 * get a "free ride": a single commit record is appended, with no
 * flushes or barriers (Section III-D). The LogRouter decides which
 * region each record goes to and how a transaction spanning address
 * shards commits; this engine appends to the log buffers.
 */

#ifndef SNF_PERSIST_HWL_ENGINE_HH
#define SNF_PERSIST_HWL_ENGINE_HH

#include <vector>

#include "core/system_config.hh"
#include "mem/memory_system.hh"
#include "persist/log_buffer.hh"
#include "persist/log_router.hh"
#include "sim/stats.hh"

namespace snf::persist
{

/** See file comment. */
class HwlEngine : public mem::PersistentStoreHook
{
  public:
    /**
     * @param buffers one log buffer per log region of the router's
     *        layout: one for the central log, one per core for
     *        per-core regions, one per shard for address shards.
     */
    HwlEngine(std::vector<LogBuffer *> buffers, LogRouter router);

    /**
     * Cache-triggered logging of one persistent store. Returns the
     * tick the store may proceed at (log-buffer back-pressure).
     */
    Tick onPersistentStore(CoreId core, std::uint64_t txSeq, Addr addr,
                           std::uint32_t size, std::uint64_t oldVal,
                           std::uint64_t newVal, Tick now) override;

    /** Append the commit record(s) the router plans for @p txSeq. */
    Tick onCommit(CoreId core, std::uint64_t txSeq, Tick now);

    sim::StatGroup &stats() { return statGroup; }

  private:
    /** Append @p rec to region @p r's buffer and bind its slot. */
    Tick append(std::uint32_t r, const LogRecord &rec,
                std::uint64_t txSeq, Tick now);

    std::vector<LogBuffer *> buffers;
    LogRouter router;
    /**
     * Address shards only: durable tick of the most recent commit
     * record (any shard, any core). The next commit's drain is
     * issued no earlier than this, so commit records reach NVRAM in
     * commit-initiation order even though they live in independent
     * per-shard FIFOs — without it, tx N+1's commit in a fast shard
     * could become durable before tx N's in a slow one, and a crash
     * between the two would recover a non-prefix state. One FIFO
     * gives this ordering for free.
     */
    Tick commitFence = 0;
    sim::StatGroup statGroup;

  public:
    sim::Counter &updateRecords;
    sim::Counter &commitRecords;
    /** Cross-shard two-phase commits (subset of commitRecords). */
    sim::Counter &crossShardCommits;
    /** Participant prepare records appended. */
    sim::Counter &prepareRecords;
};

} // namespace snf::persist

#endif // SNF_PERSIST_HWL_ENGINE_HH
