#include "crashlab/invariants.hh"

#include <algorithm>
#include <chrono>

#include "crashlab/trace.hh"
#include "persist/log_record.hh"
#include "persist/log_region.hh"
#include "sim/logging.hh"

namespace snf::crashlab
{

namespace
{

/** Active per-thread sink of VerifyTimerScope (null = off). */
thread_local std::uint64_t *verifyTimerSink = nullptr;

} // namespace

VerifyTimerScope::VerifyTimerScope(std::uint64_t *sinkNs)
    : prev(verifyTimerSink)
{
    verifyTimerSink = sinkNs;
}

VerifyTimerScope::~VerifyTimerScope()
{
    verifyTimerSink = prev;
}

CrashFacts
crashFactsAt(const CrashTrace &trace, Tick tick, std::uint32_t threads,
             std::uint64_t logWraps, PersistMode mode)
{
    CrashFacts f;
    f.tick = tick;
    f.txBegun = trace.begunBy(tick);
    f.txCommitted = trace.committedBy(tick) + trace.abortedBy(tick);
    f.txDurableCommits = trace.durableBy(tick);
    f.threads = threads;
    f.logWraps = logWraps;
    f.mode = mode;
    return f;
}

bool
guaranteesFailureAtomicity(PersistMode mode)
{
    switch (mode) {
      case PersistMode::RedoClwb:
      case PersistMode::UndoClwb:
      case PersistMode::Hwl:
      case PersistMode::Fwb:
        return true;
      case PersistMode::NonPers:
      case PersistMode::UnsafeRedo:
      case PersistMode::UnsafeUndo:
      case PersistMode::HwRlog:
      case PersistMode::HwUlog:
        return false;
    }
    return false;
}

std::vector<Violation>
checkCrashPoint(const mem::BackingStore &image, const AddressMap &map,
                const workloads::Workload &wl, const CrashFacts &facts,
                const persist::RecoveryOptions &recOpts,
                persist::RecoveryReport *reportOut)
{
    std::vector<Violation> out;

    // Canonical recovery: replay and truncate, as a real restart
    // would. The pass also hands back its image just before
    // truncation, which is the crash image replayed once.
    persist::RecoveryOptions canonOpts = recOpts;
    canonOpts.truncateLog = true;
    mem::BackingStore recovered = image;
    mem::BackingStore once(image.base(), image.size());
    persist::RecoveryReport rep =
        persist::Recovery::run(recovered, map, canonOpts, &once);
    if (reportOut)
        *reportOut = rep;

    // replay-idempotent (I6): replaying the replayed image again
    // without truncation must change no byte — redo/undo values are
    // absolute, so applying them twice is a no-op.
    persist::RecoveryOptions replayOpts = recOpts;
    replayOpts.truncateLog = false;
    mem::BackingStore twice = once;
    persist::Recovery::run(twice, map, replayOpts);
    if (auto diff = once.firstDifference(twice, once.base(),
                                         once.size())) {
        out.push_back({"replay-idempotent",
                       strfmt("second replay changed the image, first "
                              "difference at 0x%llx",
                              static_cast<unsigned long long>(*diff))});
    }

    // header-valid: the header is persisted before the workload runs
    // and is never overwritten, so no crash instant may lose it.
    if (facts.mode != PersistMode::NonPers && !rep.headerValid) {
        out.push_back({"header-valid",
                       "recovery rejected the log header after the crash"});
    }

    // truncate-idempotent (I6): recovering the recovered image must
    // find a truncated (empty) log and leave every byte alone.
    mem::BackingStore again = recovered;
    persist::RecoveryReport rep2 =
        persist::Recovery::run(again, map, canonOpts);
    if (rep2.validRecords != 0) {
        out.push_back({"truncate-idempotent",
                       strfmt("%llu live records survived truncation",
                              static_cast<unsigned long long>(
                                  rep2.validRecords))});
    }
    if (auto diff = recovered.firstDifference(again, recovered.base(),
                                              recovered.size())) {
        out.push_back({"truncate-idempotent",
                       strfmt("re-recovery changed the image, first difference "
                              "at 0x%llx",
                              static_cast<unsigned long long>(*diff))});
    }

    // verify: the workload's structural consistency check over the
    // recovered image. Only failure-atomic modes promise this; the
    // unsafe/partial baselines lose data by design.
    if (guaranteesFailureAtomicity(facts.mode)) {
        auto start = std::chrono::steady_clock::now();
        std::string why;
        bool verified = wl.verify(recovered, &why);
        if (verifyTimerSink)
            *verifyTimerSink += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count());
        if (!verified)
            out.push_back({"verify", why});
    }

    // Counting invariants against the probe trace. Upper bound first:
    // a commit record can only exist for a commit that initiated.
    if (rep.committedTxns > facts.txCommitted) {
        out.push_back(
            {"committed-upper",
             strfmt("recovered %llu committed txns but only %llu "
                    "commits had initiated by tick %llu",
                    static_cast<unsigned long long>(rep.committedTxns),
                    static_cast<unsigned long long>(facts.txCommitted),
                    static_cast<unsigned long long>(facts.tick))});
    }

    // The lower bound and the uncommitted bound need every record of
    // the run still in the log: once the log wraps, reclamation
    // erases old commit records and the counts legitimately shrink.
    if (facts.logWraps == 0) {
        if (rep.headerValid &&
            rep.committedTxns < facts.txDurableCommits) {
            out.push_back({"committed-durable",
                           strfmt("%llu commit records were durable by tick "
                                  "%llu but recovery found only %llu",
                                  static_cast<unsigned long long>(
                                      facts.txDurableCommits),
                                  static_cast<unsigned long long>(facts.tick),
                                  static_cast<unsigned long long>(
                                      rep.committedTxns))});
        }
        // An uncommitted generation is either a transaction still
        // open at the crash (at most one per thread) or one whose
        // commit initiated but whose commit record had not drained.
        std::uint64_t bound =
            facts.threads +
            (facts.txCommitted - facts.txDurableCommits);
        if (rep.uncommittedTxns > bound) {
            out.push_back(
                {"uncommitted-bound",
                 strfmt("recovery found %llu uncommitted txns; at "
                        "most %llu (threads + in-flight commits) can "
                        "exist at tick %llu",
                        static_cast<unsigned long long>(
                            rep.uncommittedTxns),
                        static_cast<unsigned long long>(bound),
                        static_cast<unsigned long long>(facts.tick))});
        }
    }

    return out;
}

std::string
describeLogWindow(const mem::BackingStore &image, const AddressMap &map)
{
    std::string out;
    for (std::uint32_t s = 0; s < map.logShards; ++s) {
        Addr base = map.logRegionBase(s);
        std::uint64_t magic = image.read64(base);
        std::uint64_t slots = image.read64(base + 8);
        out += strfmt("log[%u] @0x%llx magic=%s slots=%llu\n", s,
                      static_cast<unsigned long long>(base),
                      magic == persist::LogRegion::kMagic ? "ok"
                                                          : "BAD",
                      static_cast<unsigned long long>(slots));
        if (magic != persist::LogRegion::kMagic ||
            slots > (map.logRegionBytes() -
                     persist::LogRegion::kHeaderBytes) /
                        persist::LogRecord::kSlotBytes)
            continue;
        Addr slot0 = base + persist::LogRegion::kHeaderBytes;
        for (std::uint64_t i = 0; i < slots; ++i) {
            std::uint8_t img[persist::LogRecord::kSlotBytes];
            image.read(slot0 + i * persist::LogRecord::kSlotBytes,
                       persist::LogRecord::kSlotBytes, img);
            bool torn = false;
            auto rec = persist::LogRecord::deserialize(img, torn);
            if (!rec)
                continue;
            out += strfmt("  slot %4llu torn=%d tx=%u %s",
                          static_cast<unsigned long long>(i),
                          torn ? 1 : 0, rec->tx,
                          rec->isPrepare ? "PREPARE"
                          : rec->isCommit ? "COMMIT"
                                          : "update");
            if (rec->isPrepare || rec->hasShardMask) {
                out += strfmt(" seq=%llu",
                              static_cast<unsigned long long>(
                                  rec->commitSeq));
                if (rec->hasShardMask)
                    out += strfmt(" mask=0x%llx",
                                  static_cast<unsigned long long>(
                                      rec->shardMask));
            } else if (!rec->isCommit) {
                out += strfmt(" addr=0x%llx size=%u%s%s",
                              static_cast<unsigned long long>(
                                  rec->addr),
                              rec->size, rec->hasUndo ? " undo" : "",
                              rec->hasRedo ? " redo" : "");
            }
            out += "\n";
        }
    }
    return out;
}

} // namespace snf::crashlab
