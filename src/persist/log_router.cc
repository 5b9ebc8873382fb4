#include "persist/log_router.hh"

#include <bit>

#include "sim/logging.hh"

namespace snf::persist
{

LogLayout
resolveLogLayout(const SystemConfig &config, PersistMode mode)
{
    config.validate(); // range-checks logShards before it divides
    LogLayout layout;
    if (config.persist.logShards != PersistConfig::kPerCoreLogs) {
        layout.regions = config.persist.logShards;
    } else if (isHardwareLogging(mode)) {
        layout.regions = config.numCores;
        layout.byCore = true;
    }
    // The regions split the log exactly, as address shards always
    // had to: a remainder would start regions mid-line, and faultlab
    // assumes no header or slot crosses a line.
    if (config.map.logSize % layout.regions != 0)
        fatal("log size %llu not divisible into %u shards",
              static_cast<unsigned long long>(config.map.logSize),
              layout.regions);
    return layout;
}

LogRouter::LogRouter(PersistMode mode, LogLayout layout,
                     TxnTracker &tracker, bool injectSkipShardMask)
    : persistMode(mode),
      lay(layout),
      txns(tracker),
      undo(supportsAbort(mode)),
      // Redo values: every logging mode but the undo-only ones.
      redo(mode != PersistMode::HwUlog && mode != PersistMode::UnsafeUndo &&
           mode != PersistMode::UndoClwb),
      skipShardMask(injectSkipShardMask)
{
}

LogRouter::CommitPlan
LogRouter::planCommit(CoreId core, std::uint64_t txSeq) const
{
    CommitPlan plan;
    plan.fenced = lay.addressSharded();
    auto thread = static_cast<std::uint8_t>(core);
    TxId txid = TxnTracker::txIdOf(txSeq);
    std::uint64_t mask = plan.fenced ? txns.shardMaskOf(txSeq) : 0;

    if ((mask & (mask - 1)) == 0) {
        // At most one participant: the plain commit record, behind
        // the transaction's updates in the same FIFO, so drain order
        // alone makes it atomic. Hardware logging commits a
        // transaction with no update record in the committing core's
        // region. Software logging no longer plans such a commit: a
        // transaction that wrote nothing ends with no record at all
        // (Thread::execTxEnd), and only a transactional CAS, which
        // its runtime does not log, still reaches region 0 here.
        // Such a record has nothing to redo or undo in any region.
        if (mask != 0)
            plan.owner =
                static_cast<std::uint32_t>(std::countr_zero(mask));
        else if (isHardwareLogging(persistMode))
            plan.owner = core % lay.regions;
        plan.commit = LogRecord::commit(thread, txid,
                                        txns.logRecordCount(txSeq));
        return plan;
    }

    // Cross-shard two-phase commit: the owner is the lowest
    // participant, and every other one gets a prepare first. The
    // engines make the prepares durable before the masked commit
    // record is appended, so the commit record is the one atomic
    // commit point and never pending together with a prepare.
    plan.owner = static_cast<std::uint32_t>(std::countr_zero(mask));
    plan.prepares = mask & (mask - 1);
    plan.commit = LogRecord::commitMasked(
        thread, txid, txns.shardRecordCount(txSeq, plan.owner), txSeq,
        skipShardMask ? 1ULL << plan.owner : mask);
    return plan;
}

LogRecord
LogRouter::prepare(CoreId core, std::uint64_t txSeq,
                   std::uint32_t s) const
{
    return LogRecord::prepare(static_cast<std::uint8_t>(core),
                              TxnTracker::txIdOf(txSeq),
                              txns.shardRecordCount(txSeq, s), txSeq);
}

} // namespace snf::persist
