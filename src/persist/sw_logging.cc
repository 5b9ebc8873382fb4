#include "persist/sw_logging.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace snf::persist
{

SwLogging::SwLogging(mem::MemorySystem &memory,
                     std::vector<LogRegion *> logRegions, LogRouter r)
    : mem(memory),
      regions(std::move(logRegions)),
      router(std::move(r)),
      statGroup("sw_log"),
      updateRecords(statGroup.counter("update_records")),
      commitRecords(statGroup.counter("commit_records")),
      injectedInstructions(statGroup.counter("injected_instructions")),
      crossShardCommits(statGroup.counter("cross_shard_commits")),
      prepareRecords(statGroup.counter("prepare_records"))
{
    SNF_ASSERT(isSoftwareLogging(router.mode()) &&
                   regions.size() == router.layout().regions,
               "SW logging with mode %s over %zu regions",
               persistModeName(router.mode()), regions.size());
}

std::uint64_t
SwLogging::writeRecordViaWcb(LogRegion &region, const LogRecord &rec,
                             std::uint64_t txSeq, Result &res, Tick now)
{
    auto reservation = region.reserve(rec, now);
    region.bindSlotTx(reservation.slot, txSeq);

    std::uint8_t img[LogRecord::kSlotBytes];
    rec.serialize(img, reservation.torn);

    // One uncacheable store per 8-byte word of the record payload.
    std::uint32_t bytes = rec.payloadBytes();
    Tick t = std::max({res.done, now, reservation.readyAt});
    for (std::uint32_t off = 0; off < bytes; off += 8) {
        std::uint32_t n = std::min<std::uint32_t>(8, bytes - off);
        t = std::max(t, mem.uncacheableWrite(reservation.addr + off, n,
                                             img + off, t));
        res.instructions += 1;
        res.logStores += 1;
    }
    res.done = t;
    return reservation.slot;
}

namespace
{
// Software logging is a library call per store: log-pointer
// arithmetic, bounds/overflow checks, record formatting (paper
// Figure 2(a) micro-ops). These instructions retire alongside the
// log loads/stores counted separately.
constexpr std::uint32_t kLogMgmtInstrPerStore = 8;
constexpr std::uint32_t kLogMgmtInstrPerCommit = 4;
} // namespace

SwLogging::Result
SwLogging::logStore(CoreId core, std::uint64_t txSeq, Addr addr,
                    std::uint32_t size, std::uint64_t newVal, Tick now)
{
    Result res;
    res.done = now + kLogMgmtInstrPerStore / 4;
    res.instructions += kLogMgmtInstrPerStore;

    std::uint64_t old_val = 0;
    if (router.logsUndo()) {
        // The undo value must be read from the cache hierarchy
        // explicitly (extra load instruction and memory traffic).
        auto lr = mem.load(core, addr, size, &old_val, res.done);
        res.done = lr.done;
        res.instructions += 1;
        res.logLoads += 1;
    }

    LogRouter::Routed r =
        router.route(core, txSeq, addr, size, old_val, newVal);
    res.region = regions[r.region];
    res.slot = writeRecordViaWcb(*res.region, r.rec, txSeq, res, now);
    updateRecords.inc();

    if (router.mode() == PersistMode::RedoClwb) {
        // Redo logging: the log entry must be durable before the
        // in-place data write may proceed (Figure 1(b) dashed line).
        res.done = std::max(res.done, mem.drainWcb(res.done));
        res.instructions += 1;
        res.fences += 1;
    }

    injectedInstructions.inc(res.instructions);
    return res;
}

SwLogging::Result
SwLogging::logCommit(CoreId core, std::uint64_t txSeq, Tick now)
{
    Result res;
    res.done = now + kLogMgmtInstrPerCommit / 4;
    res.instructions += kLogMgmtInstrPerCommit;

    LogRouter::CommitPlan plan = router.planCommit(core, txSeq);
    if (plan.crossShard()) {
        // Phase 1 of a cross-shard commit: every prepare goes through
        // the WCB, and one drain makes them durable before the masked
        // commit record is written.
        for (std::uint64_t m = plan.prepares; m != 0; m &= m - 1) {
            auto s = static_cast<std::uint32_t>(std::countr_zero(m));
            writeRecordViaWcb(*regions[s], router.prepare(core, txSeq, s),
                              txSeq, res, now);
            prepareRecords.inc();
        }
        res.done = std::max(res.done, mem.drainWcb(res.done));
        res.instructions += 1;
        res.fences += 1;
        crossShardCommits.inc();
    }
    writeRecordViaWcb(*regions[plan.owner], plan.commit, txSeq, res, now);
    commitRecords.inc();
    if (plan.fenced) {
        // Commit-ordering interlock (see commitFence). The fence
        // drain folds into res.done: the caller's commit fence
        // assumes the record is durable by then, exactly like the
        // fence-at-commit sequence of one region.
        commitFence = mem.drainWcb(std::max(res.done, commitFence));
        res.done = std::max(res.done, commitFence);
        res.instructions += 1;
        res.fences += 1;
    }
    injectedInstructions.inc(res.instructions);
    return res;
}

} // namespace snf::persist
