#include "persist/hwl_engine.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace snf::persist
{

HwlEngine::HwlEngine(std::vector<LogBuffer *> bufs, LogRouter r)
    : buffers(std::move(bufs)),
      router(std::move(r)),
      statGroup("hwl"),
      updateRecords(statGroup.counter("update_records")),
      commitRecords(statGroup.counter("commit_records")),
      crossShardCommits(statGroup.counter("cross_shard_commits")),
      prepareRecords(statGroup.counter("prepare_records"))
{
    SNF_ASSERT(isHardwareLogging(router.mode()) &&
                   buffers.size() == router.layout().regions,
               "HWL engine with mode %s over %zu log buffers",
               persistModeName(router.mode()), buffers.size());
}

Tick
HwlEngine::append(std::uint32_t r, const LogRecord &rec,
                  std::uint64_t txSeq, Tick now)
{
    LogBuffer &buf = *buffers[r];
    Tick proceed = buf.append(rec, now);
    buf.logRegion().bindSlotTx(buf.lastSlot(), txSeq);
    return proceed;
}

Tick
HwlEngine::onPersistentStore(CoreId core, std::uint64_t txSeq, Addr addr,
                             std::uint32_t size, std::uint64_t oldVal,
                             std::uint64_t newVal, Tick now)
{
    LogRouter::Routed r =
        router.route(core, txSeq, addr, size, oldVal, newVal);
    updateRecords.inc();
    return append(r.region, r.rec, txSeq, now);
}

Tick
HwlEngine::onCommit(CoreId core, std::uint64_t txSeq, Tick now)
{
    LogRouter::CommitPlan plan = router.planCommit(core, txSeq);
    // Phase 1 of a cross-shard commit: each prepare is appended and
    // its participant's FIFO drained, so the prepares (and the
    // updates queued ahead of them) are durable before the masked
    // commit record is appended no earlier than the commit fence.
    Tick ready = now;
    Tick at = now;
    if (plan.crossShard()) {
        for (std::uint64_t m = plan.prepares; m != 0; m &= m - 1) {
            auto s = static_cast<std::uint32_t>(std::countr_zero(m));
            Tick t = append(s, router.prepare(core, txSeq, s), txSeq,
                            now);
            ready = std::max({ready, t, buffers[s]->drainAll(now)});
            prepareRecords.inc();
        }
        at = std::max(ready, commitFence);
        crossShardCommits.inc();
    }
    Tick proceed = append(plan.owner, plan.commit, txSeq, at);
    commitRecords.inc();
    if (plan.fenced) {
        // Commit-ordering interlock (see commitFence): drain the
        // commit no earlier than the previous commit's durable tick.
        // The core does not wait.
        commitFence =
            buffers[plan.owner]->drainAll(std::max(at, commitFence));
    }
    return std::max(proceed, ready);
}

} // namespace snf::persist
