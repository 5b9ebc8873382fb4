#include "conformlab/diffrun.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "conformlab/oracle.hh"
#include "core/system.hh"
#include "crashlab/reorder.hh"
#include "crashlab/trace.hh"
#include "persist/txn_tracker.hh"
#include "sim/logging.hh"
#include "workloads/prog.hh"

namespace snf::conformlab
{

namespace
{

/** One executed backend, kept alive for crash snapshots. */
struct BackendRun
{
    PersistMode mode = PersistMode::Fwb;
    std::unique_ptr<System> sys;
    std::unique_ptr<workloads::ProgWorkload> wl;
    crashlab::CrashTrace trace;
    Tick endTick = 0;
};

BackendRun
runBackend(const Program &p, PersistMode mode, CcMode cc,
           std::uint32_t logShards)
{
    BackendRun b;
    b.mode = mode;
    SystemConfig cfg = SystemConfig::scaled(p.threads);
    cfg.persist.crashJournal = true;
    cfg.persist.ccMode = cc;
    cfg.persist.logShards = logShards;
    b.sys = std::make_unique<System>(cfg, mode);
    b.wl = std::make_unique<workloads::ProgWorkload>(p);

    workloads::WorkloadParams params;
    params.threads = p.threads;
    params.seed = p.seed;
    b.wl->setup(*b.sys, params);

    b.sys->setProbe(b.trace.collector());
    for (CoreId c = 0; c < p.threads; ++c) {
        b.sys->spawn(c, [&](Thread &t) -> sim::Co<void> {
            return b.wl->thread(*b.sys, t, params);
        });
    }
    b.endTick = b.sys->run();
    // Detach before the graceful flush, like the crash sweep: the
    // flush's write-backs are not crash candidates.
    b.sys->setProbe({});
    b.trace.finalize();
    b.sys->flushAll(b.endTick);
    return b;
}

/** Per-committed-transaction event ticks of one backend run. */
struct CommitTimeline
{
    /** [thread][ordinal] tick the commit record became durable. */
    std::vector<std::vector<Tick>> durable;
    /** [thread][ordinal] tick tx_commit was initiated. */
    std::vector<std::vector<Tick>> initiated;
};

CommitTimeline
buildTimeline(const BackendRun &b, const ModelOracle &oracle)
{
    const Program &p = oracle.program();
    CommitTimeline tl;
    tl.durable.resize(p.threads);
    tl.initiated.resize(p.threads);

    // CommitDurable carries the 16-bit log txid under hardware
    // logging and the tracker sequence under software logging
    // (sim/probe.hh); TxCommit always carries the sequence. A
    // software-logged commit with no record is ordered at its
    // ReadOnlyEnd, which carries the sequence too.
    bool swKeys = isSoftwareLogging(b.mode);
    std::map<std::uint64_t, Tick> durableAt;
    std::map<std::uint64_t, Tick> initiatedAt;
    for (const auto &ev : b.trace.events()) {
        if (ev.kind == sim::ProbeEvent::CommitDurable ||
            ev.kind == sim::ProbeEvent::ReadOnlyEnd) {
            durableAt.emplace(ev.arg, ev.tick); // first wins
        } else if (ev.kind == sim::ProbeEvent::TxCommit) {
            initiatedAt.emplace(ev.arg, ev.tick);
        }
    }

    for (std::uint32_t t = 0; t < p.threads; ++t) {
        for (std::size_t i : oracle.committedTxs(t)) {
            std::uint64_t seq = b.wl->txSeqOf(i);
            SNF_ASSERT(seq != 0, "committed program tx never began");
            std::uint64_t key =
                swKeys ? seq : persist::TxnTracker::txIdOf(seq);
            auto d = durableAt.find(key);
            SNF_ASSERT(d != durableAt.end(),
                       "no durable-order event for committed tx");
            auto c = initiatedAt.find(seq);
            SNF_ASSERT(c != initiatedAt.end(),
                       "no TxCommit event for committed tx");
            tl.durable[t].push_back(d->second);
            tl.initiated[t].push_back(c->second);
        }
    }
    return tl;
}

/** The timeline as SerialOracle input (same ordinal alignment). */
std::vector<ObservedCommit>
observedCommits(const ModelOracle &oracle, const CommitTimeline &tl)
{
    const Program &p = oracle.program();
    std::vector<ObservedCommit> commits;
    for (std::uint32_t t = 0; t < p.threads; ++t) {
        const auto &mine = oracle.committedTxs(t);
        for (std::size_t j = 0; j < mine.size(); ++j)
            commits.push_back(
                {mine[j], tl.durable[t][j], tl.initiated[t][j]});
    }
    return commits;
}

std::size_t
countAtMost(const std::vector<Tick> &ticks, Tick t)
{
    std::size_t n = 0;
    for (Tick tk : ticks)
        if (tk <= t)
            ++n;
    return n;
}

/**
 * Crash instants for one backend: every durable-commit boundary (the
 * shared logical program points) bracketed by its t-1 sibling, plus a
 * deterministic stride sample of the harvested NVRAM-event ticks.
 */
std::vector<Tick>
crashTicks(const BackendRun &b, const CommitTimeline &tl,
           std::size_t maxHarvested)
{
    std::vector<Tick> ticks;
    for (const auto &perThread : tl.durable) {
        for (Tick d : perThread) {
            ticks.push_back(d);
            if (d > 0)
                ticks.push_back(d - 1);
        }
    }
    std::vector<crashlab::CrashPoint> points =
        b.trace.harvest(b.endTick);
    if (maxHarvested != 0 && points.size() > maxHarvested) {
        std::vector<crashlab::CrashPoint> kept;
        for (std::size_t i = 0; i < maxHarvested; ++i)
            kept.push_back(
                points[i * points.size() / maxHarvested]);
        points.swap(kept);
    }
    for (const auto &pt : points)
        ticks.push_back(pt.tick);
    std::sort(ticks.begin(), ticks.end());
    ticks.erase(std::unique(ticks.begin(), ticks.end()),
                ticks.end());
    return ticks;
}

/**
 * The model-consistency core: the recovered partition of each thread
 * must equal an oracle prefix whose depth lies within
 * [durable commits, initiated commit records] at the crash instant.
 */
bool
checkRecoveredImage(const mem::BackingStore &image,
                    const BackendRun &b, const ModelOracle &oracle,
                    const CommitTimeline &tl, Tick tick,
                    std::string *why)
{
    const Program &p = oracle.program();
    for (std::uint32_t t = 0; t < p.threads; ++t) {
        std::vector<std::uint64_t> partition(p.slotsPerThread);
        for (std::uint32_t s = 0; s < p.slotsPerThread; ++s)
            partition[s] = image.read64(
                b.wl->slotAddr(p.globalSlot(t, s)));

        std::size_t lo = countAtMost(tl.durable[t], tick);
        std::size_t hi = countAtMost(tl.initiated[t], tick);
        SNF_ASSERT(lo <= hi, "durable before initiated?");
        bool matched = false;
        std::size_t matchedAny = oracle.committedTxs(t).size() + 1;
        for (std::size_t k = 0;
             k <= oracle.committedTxs(t).size(); ++k) {
            if (partition == oracle.prefixImage(t, k)) {
                if (matchedAny > oracle.committedTxs(t).size())
                    matchedAny = k;
                if (k >= lo && k <= hi) {
                    matched = true;
                    break;
                }
            }
        }
        if (!matched) {
            if (why) {
                if (matchedAny <= oracle.committedTxs(t).size())
                    *why = strfmt(
                        "mode %s crash@%llu thread %u: recovered "
                        "prefix depth %zu outside the consistent "
                        "range [%zu, %zu] (durable commit lost or "
                        "uncommitted data exposed)",
                        persistModeName(b.mode),
                        static_cast<unsigned long long>(tick), t,
                        matchedAny, lo, hi);
                else
                    *why = strfmt(
                        "mode %s crash@%llu thread %u: recovered "
                        "partition matches no committed prefix "
                        "(non-atomic transaction state)",
                        persistModeName(b.mode),
                        static_cast<unsigned long long>(tick), t);
            }
            return false;
        }
    }
    return true;
}

/** All global slots of @p b's program as stored in @p store. */
std::vector<std::uint64_t>
readSlots(const mem::BackingStore &store, const BackendRun &b)
{
    const Program &p = b.wl->program();
    std::vector<std::uint64_t> slots(p.totalSlots());
    for (std::uint32_t g = 0; g < p.totalSlots(); ++g)
        slots[g] = store.read64(b.wl->slotAddr(g));
    return slots;
}

} // namespace

DiffResult
runDiff(const Program &p, const DiffConfig &cfg)
{
    DiffResult res;
    ModelOracle oracle(p);
    res.committedTx = oracle.committedCount();

    // Conflicting programs need concurrency control to serialize;
    // the lost-update self-test deliberately withholds it.
    CcMode cc = p.hasConflicts() && !cfg.injectLostUpdate
                    ? cfg.ccMode
                    : CcMode::None;
    BackendRun hw = runBackend(p, cfg.hwMode, cc, cfg.logShards);
    BackendRun sw = runBackend(p, cfg.swMode, cc, cfg.logShards);
    SNF_ASSERT(hw.wl->slotAddr(0) == sw.wl->slotAddr(0),
               "backend heap layouts diverged");

    if (!p.hasConflicts()) {
        // --- Final-image differential (field by field vs the
        // oracle; commit order is immaterial without conflicts) ---
        std::vector<std::uint64_t> expect = oracle.finalImage();
        const mem::BackingStore &hwStore =
            hw.sys->mem().nvram().store();
        const mem::BackingStore &swStore =
            sw.sys->mem().nvram().store();
        for (std::uint32_t g = 0; g < p.totalSlots(); ++g) {
            Addr a = hw.wl->slotAddr(g);
            std::uint64_t hv = hwStore.read64(a);
            std::uint64_t sv = swStore.read64(a);
            if (hv != expect[g] || sv != expect[g]) {
                res.passed = false;
                res.detail = strfmt(
                    "final image slot %u (thread %u): oracle 0x%llx, "
                    "%s 0x%llx, %s 0x%llx",
                    g, g / p.slotsPerThread,
                    static_cast<unsigned long long>(expect[g]),
                    persistModeName(cfg.hwMode),
                    static_cast<unsigned long long>(hv),
                    persistModeName(cfg.swMode),
                    static_cast<unsigned long long>(sv));
                return res;
            }
        }
        // Raw byte comparison over the whole slot range, so a backend
        // cannot hide damage between the sampled fields.
        if (auto d = hwStore.firstDifference(
                swStore, hw.wl->slotAddr(0),
                static_cast<std::uint64_t>(p.totalSlots()) * 8)) {
            res.passed = false;
            res.detail = strfmt("final heap images differ at 0x%llx",
                                static_cast<unsigned long long>(*d));
            return res;
        }
    }

    for (BackendRun *b : {&hw, &sw}) {
        const persist::RecoveryOptions &ropts =
            b == &hw ? cfg.hwRecovery : cfg.swRecovery;
        CommitTimeline tl = buildTimeline(*b, oracle);

        // --- Serializability differential (conflicting programs):
        // each backend is judged against its own durable commit
        // order, since the two may legitimately serialize
        // differently.
        std::unique_ptr<SerialOracle> serial;
        if (p.hasConflicts()) {
            serial = std::make_unique<SerialOracle>(
                p, observedCommits(oracle, tl));
            std::string why;
            if (!serial->checkFinalImage(
                    readSlots(b->sys->mem().nvram().store(), *b),
                    &why)) {
                res.passed = false;
                res.detail = strfmt("mode %s: %s",
                                    persistModeName(b->mode),
                                    why.c_str());
                return res;
            }
            for (const ObservedCommit &c : serial->order()) {
                if (!serial->checkReads(c.txIndex,
                                        b->wl->readsOf(c.txIndex),
                                        &why)) {
                    res.passed = false;
                    res.detail = strfmt("mode %s: %s",
                                        persistModeName(b->mode),
                                        why.c_str());
                    return res;
                }
            }
        }

        if (!cfg.crashDifferential)
            continue;

        // --- Crash-point differential ---------------------------
        std::vector<Tick> ticks =
            crashTicks(*b, tl, cfg.maxCrashPoints);
        const mem::BackingStore &store =
            b->sys->mem().nvram().store();
        store.buildSnapshotIndex();
        mem::BackingStore::Cursor cursor(store);
        crashlab::ReorderConfig rcfg;
        rcfg.enabled = cfg.reorderSamples != 0;
        rcfg.samples = cfg.reorderSamples;
        rcfg.maxImagesPerPoint = cfg.reorderSamples;
        std::optional<crashlab::PendingCursor> pendingCursor;
        if (rcfg.enabled)
            pendingCursor.emplace(store);
        for (Tick t : ticks) {
            mem::BackingStore crashImage = cursor.imageAt(t);
            mem::BackingStore image = crashImage;
            persist::Recovery::run(image, b->sys->config().map,
                                   ropts);
            ++res.crashPointsChecked;
            std::string why;
            auto judge = [&](const mem::BackingStore &img) {
                return serial
                           ? serial->checkCrashImage(
                                 readSlots(img, *b), t, &why)
                           : checkRecoveredImage(img, *b, oracle,
                                                 tl, t, &why);
            };
            if (!judge(image)) {
                res.passed = false;
                res.detail =
                    serial ? strfmt("mode %s: %s",
                                    persistModeName(b->mode),
                                    why.c_str())
                           : why;
                return res;
            }
            if (!rcfg.enabled)
                continue;
            // Any legal completion order of the pending persists must
            // also recover to a model-consistent image.
            std::vector<crashlab::PendingPersist> pending =
                pendingCursor->pendingAt(t);
            for (const crashlab::ReorderImage &plan :
                 crashlab::planReorderImages(pending, rcfg, t)) {
                mem::BackingStore variant = crashImage;
                crashlab::applyReorderImage(variant, pending, plan);
                persist::Recovery::run(
                    variant, b->sys->config().map, ropts);
                if (!judge(variant)) {
                    res.passed = false;
                    res.detail = strfmt(
                        "mode %s: reorder [%s] %s",
                        persistModeName(b->mode),
                        plan.describe(pending).c_str(),
                        why.c_str());
                    return res;
                }
            }
        }
    }
    return res;
}

} // namespace snf::conformlab
