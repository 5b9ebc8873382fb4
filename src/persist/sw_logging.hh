/**
 * @file
 * Software logging runtime for the baseline persistence schemes
 * (paper Figures 1 and 2): explicit logging instructions injected
 * into the instruction stream, uncacheable log stores through the
 * write-combining buffer, old-value loads for undo logging, and the
 * memory barrier redo logging needs between the log write and the
 * in-place data write. The LogRouter decides which region each record
 * goes to and how a transaction spanning address shards commits; this
 * runtime writes the records through the WCB.
 */

#ifndef SNF_PERSIST_SW_LOGGING_HH
#define SNF_PERSIST_SW_LOGGING_HH

#include <vector>

#include "core/system_config.hh"
#include "mem/memory_system.hh"
#include "persist/log_region.hh"
#include "persist/log_router.hh"
#include "sim/stats.hh"

namespace snf::persist
{

/** See file comment. */
class SwLogging
{
  public:
    /** Cost of the injected logging work for one operation. */
    struct Result
    {
        Tick done = 0;
        std::uint32_t instructions = 0;
        std::uint32_t logStores = 0;
        std::uint32_t logLoads = 0;
        std::uint32_t fences = 0;
        /**
         * logStore() only: the update record's region and slot. The
         * caller restamps the slot once its in-place store has written
         * the L1 line (LogRegion::restamp).
         */
        LogRegion *region = nullptr;
        std::uint64_t slot = 0;
    };

    /**
     * @param regions one circular region per log region of the
     *        router's layout (one, or one per address shard: software
     *        logging never has per-core regions).
     */
    SwLogging(mem::MemorySystem &memory,
              std::vector<LogRegion *> regions, LogRouter router);

    /**
     * Log one persistent store about to be performed (must be called
     * before the data write; undo logging reads the old value).
     */
    Result logStore(CoreId core, std::uint64_t txSeq, Addr addr,
                    std::uint32_t size, std::uint64_t newVal, Tick now);

    /** Write the commit record (no flushes; the caller orders them). */
    Result logCommit(CoreId core, std::uint64_t txSeq, Tick now);

    sim::StatGroup &stats() { return statGroup; }

  private:
    /**
     * Write a serialized record into its reserved log slot of
     * @p region as a sequence of <= 8-byte uncacheable stores
     * through the WCB. Returns the reserved slot.
     */
    std::uint64_t writeRecordViaWcb(LogRegion &region,
                                    const LogRecord &rec,
                                    std::uint64_t txSeq, Result &res,
                                    Tick now);

    mem::MemorySystem &mem;
    std::vector<LogRegion *> regions;
    LogRouter router;
    /**
     * Address shards only: durable tick of the most recent commit
     * record. Each sharded commit drains the WCB, issued no earlier
     * than this fence, so commit records reach NVRAM in
     * commit-initiation order even when they coalesce onto log lines
     * of different shard regions queued out of order. One region
     * gets the ordering for free: its slots (and hence WCB line
     * entries) are claimed in commit order. The drain folds into
     * res.done, matching the fence-at-commit semantics of one region
     * (CommitDurable is emitted at the caller's post-fence time).
     */
    Tick commitFence = 0;
    sim::StatGroup statGroup;

  public:
    sim::Counter &updateRecords;
    sim::Counter &commitRecords;
    sim::Counter &injectedInstructions;
    sim::Counter &crossShardCommits;
    sim::Counter &prepareRecords;
};

} // namespace snf::persist

#endif // SNF_PERSIST_SW_LOGGING_HH
