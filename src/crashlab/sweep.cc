#include "crashlab/sweep.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "crashlab/lifecycle.hh"
#include "sim/rng.hh"

namespace snf::crashlab
{

namespace
{

/**
 * Deterministically keep @p keep of @p points. Each point draws a
 * sort key from its own Rng stream seeded by (sampleSeed, tick), and
 * the @p keep smallest keys win; a point's fate therefore depends
 * only on its tick and the seed, never on how many other points the
 * harvest produced around it.
 */
std::vector<CrashPoint>
samplePoints(std::vector<CrashPoint> points, std::size_t keep,
             std::uint64_t seed)
{
    if (keep == 0 || points.size() <= keep)
        return points;
    std::vector<std::pair<std::uint64_t, CrashPoint>> keyed;
    keyed.reserve(points.size());
    for (const CrashPoint &p : points) {
        sim::Rng rng(seed ^ (p.tick * 0x9e3779b97f4a7c15ULL));
        keyed.emplace_back(rng.next(), p);
    }
    std::nth_element(keyed.begin(), keyed.begin() + keep - 1,
                     keyed.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    keyed.resize(keep);
    points.clear();
    for (const auto &kp : keyed)
        points.push_back(kp.second);
    std::sort(points.begin(), points.end(),
              [](const CrashPoint &a, const CrashPoint &b) {
                  return a.tick < b.tick;
              });
    return points;
}

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

std::size_t
resolveJobs(std::size_t requested)
{
    if (requested != 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

SweepResult
runCrashSweep(const SweepConfig &cfg)
{
    SweepResult res;
    Clock::time_point tTotal = Clock::now();

    // Reference run, instrumented: the cell itself, journaled,
    // uncrashed and verified whatever the caller's spec says.
    workloads::RunSpec refSpec = cfg.run;
    refSpec.sys.persist.crashJournal = true; // the sweep depends on it
    refSpec.crashAt.reset();
    refSpec.verifyAtEnd = true;
    Clock::time_point tRef = Clock::now();
    workloads::LiveCell cell(refSpec);
    CrashTrace trace;
    cell.system().setProbe(trace.collector());
    res.endTick = cell.run();
    // Detach before the graceful flush: write-backs issued after the
    // run's end are not crash candidates.
    cell.system().setProbe({});
    workloads::RunOutcome ref = cell.finish();
    res.refCommittedTx = ref.stats.committedTx;
    res.refLogWraps = ref.stats.logWraps;
    res.refVerified = ref.verified;
    res.refVerifyMessage = std::move(ref.verifyMessage);
    res.perf.refRunSec = secondsSince(tRef);

    Clock::time_point tHarvest = Clock::now();
    trace.finalize();
    std::vector<CrashPoint> points = trace.harvest(res.endTick);
    res.pointsHarvested = points.size();
    points = samplePoints(std::move(points), cfg.maxPoints,
                          cfg.sampleSeed);
    res.pointsTested = points.size();
    res.perf.harvestSec = secondsSince(tHarvest);

    const System &csys = cell.system();
    const mem::BackingStore &store = csys.mem().nvram().store();

    // Sort the journal once, up front, so the cost shows as its own
    // phase instead of inside the first evaluated point, and so
    // parallel workers never contend on it.
    Clock::time_point tIndex = Clock::now();
    store.buildSnapshotIndex();
    res.perf.indexSec = secondsSince(tIndex);
    res.perf.journalEntries = store.journalSize();

    auto factsAt = [&](Tick t) {
        return crashFactsAt(trace, t, cfg.run.params.threads,
                            res.refLogWraps, cfg.run.mode);
    };
    // Evaluate one crash image. @p skipReentrancy drops the
    // interrupted-recovery sweep (each probe multiplies the cost by
    // the interior-write budget count) — the bisection minimizer uses
    // it for its interior probes and re-runs the full set only at the
    // final minimized tick.
    auto evaluate = [&](mem::BackingStore image, Tick t,
                        persist::RecoveryReport *rep,
                        ImageFaultPlan *plan, bool skipReentrancy) {
        std::vector<Violation> violations;
        if (cfg.imageFaults.enabled()) {
            violations = checkFaultedCrashPoint(
                image, csys.config().map, cfg.imageFaults, factsAt(t),
                cfg.recovery, rep, plan);
        } else {
            violations =
                checkCrashPoint(image, csys.config().map, cell.workload(),
                                factsAt(t), cfg.recovery, rep);
        }
        // Crash-during-recovery (I8 extension): recovery of this
        // snapshot, interrupted at any interior write and re-run,
        // must converge with the uninterrupted pass.
        if (cfg.recoverySweepStride != 0 && !skipReentrancy) {
            if (cfg.imageFaults.enabled())
                applyImageFaults(image, csys.config().map,
                                 cfg.imageFaults, t);
            persist::RecoveryOptions canon = cfg.recovery;
            canon.truncateLog = true;
            canon.promoteBadLines =
                csys.config().map.remapSize != 0;
            std::vector<Violation> v = checkRecoveryReentrancy(
                image, csys.config().map, canon,
                cfg.recoverySweepStride);
            violations.insert(violations.end(), v.begin(), v.end());
        }
        return violations;
    };

    // Parallel evaluation: the sampled points are in ascending tick
    // order, so each worker takes a contiguous chunk and advances one
    // copy-on-write image through it with a monotone cursor — the
    // whole sweep replays the journal once per worker instead of once
    // per point. Workers only read the (const) System and trace, and
    // write disjoint slots of the outcome vector.
    std::vector<PointOutcome> outcomes(points.size());
    std::size_t jobs = resolveJobs(cfg.jobs);
    if (!points.empty())
        jobs = std::min(jobs, points.size());
    jobs = std::max<std::size_t>(jobs, 1);
    res.perf.jobsUsed = jobs;

    struct WorkerPerf
    {
        std::uint64_t snapshotNs = 0;
        std::uint64_t evalNs = 0;
        persist::RecoveryTally recover;
        std::uint64_t verifyNs = 0;
        std::uint64_t reorderImages = 0;
        std::uint64_t reorderPointsWithPending = 0;
        std::uint64_t reorderMaxPending = 0;
    };
    std::vector<WorkerPerf> workerPerf(jobs);
    std::size_t chunk = points.empty()
                            ? 0
                            : (points.size() + jobs - 1) / jobs;
    auto worker = [&](std::size_t w) {
        std::size_t begin = w * chunk;
        std::size_t end = std::min(points.size(), begin + chunk);
        if (begin >= end)
            return;
        WorkerPerf &perf = workerPerf[w];
        persist::RecoveryTimerScope recoveryTimer(&perf.recover);
        VerifyTimerScope verifyTimer(&perf.verifyNs);
        mem::BackingStore::Cursor cursor(store);
        // Worker-local pending-set cursor (reorderlab): one journal
        // scan per worker, advanced monotonically with the points.
        std::optional<PendingCursor> pendingCursor;
        if (cfg.reorder.enabled)
            pendingCursor.emplace(store);
        for (std::size_t i = begin; i < end; ++i) {
            Clock::time_point t0 = Clock::now();
            mem::BackingStore image = cursor.imageAt(points[i].tick);
            Clock::time_point t1 = Clock::now();
            outcomes[i].point = points[i];
            outcomes[i].violations =
                evaluate(image, points[i].tick, &outcomes[i].report,
                         &outcomes[i].plan, false);
            // The adversary: every legal subset/linearization of the
            // pending persist set lands on top of the prefix image
            // (COW copies, so each variant is O(leaves) to set up) and
            // runs through the same checker pipeline. The first
            // failing ordering is recorded; re-entrancy is skipped
            // for variants (the prefix pass above covers it).
            if (cfg.reorder.enabled &&
                outcomes[i].violations.empty()) {
                std::vector<PendingPersist> pending =
                    pendingCursor->pendingAt(points[i].tick);
                perf.reorderMaxPending = std::max<std::uint64_t>(
                    perf.reorderMaxPending, pending.size());
                if (!pending.empty()) {
                    ++perf.reorderPointsWithPending;
                    for (const ReorderImage &plan : planReorderImages(
                             pending, cfg.reorder, points[i].tick)) {
                        mem::BackingStore variant = image;
                        applyReorderImage(variant, pending, plan);
                        ++perf.reorderImages;
                        persist::RecoveryReport vrep;
                        ImageFaultPlan vplan;
                        std::vector<Violation> v =
                            evaluate(std::move(variant),
                                     points[i].tick, &vrep, &vplan,
                                     true);
                        if (!v.empty()) {
                            outcomes[i].violations = std::move(v);
                            outcomes[i].report = vrep;
                            outcomes[i].plan = vplan;
                            outcomes[i].reorderDetail =
                                plan.describe(pending);
                            break;
                        }
                    }
                }
            }
            Clock::time_point t2 = Clock::now();
            perf.snapshotNs += std::chrono::duration_cast<
                                   std::chrono::nanoseconds>(t1 - t0)
                                   .count();
            perf.evalNs += std::chrono::duration_cast<
                               std::chrono::nanoseconds>(t2 - t1)
                               .count();
        }
    };
    if (jobs == 1 || points.size() <= 1) {
        worker(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (std::size_t j = 0; j < jobs; ++j)
            pool.emplace_back(worker, j);
        for (auto &t : pool)
            t.join();
    }
    res.reorderEnabled = cfg.reorder.enabled;
    for (const WorkerPerf &perf : workerPerf) {
        res.perf.snapshotSec += perf.snapshotNs * 1e-9;
        res.perf.recoverSec += perf.recover.ns * 1e-9;
        res.perf.recoverCalls += perf.recover.calls;
        res.perf.checkSec +=
            (perf.evalNs - std::min(perf.evalNs, perf.recover.ns)) *
            1e-9;
        res.perf.verifySec += perf.verifyNs * 1e-9;
        res.reorderImagesTested += perf.reorderImages;
        res.reorderPointsWithPending += perf.reorderPointsWithPending;
        res.reorderMaxPending = std::max(res.reorderMaxPending,
                                         perf.reorderMaxPending);
    }

    for (auto &o : outcomes) {
        res.totalSalvaged += o.report.salvagedTxns;
        res.totalQuarantined += o.report.quarantinedTxns;
        res.totalSlotsFaulted += o.plan.slotsFaulted;
        res.totalDeadShardAborted += o.report.deadShardAborted;
        if (res.shardTotals.size() < o.report.shards.size())
            res.shardTotals.resize(o.report.shards.size());
        for (std::size_t s = 0; s < o.report.shards.size(); ++s) {
            const persist::ShardSummary &sum = o.report.shards[s];
            SweepResult::ShardTotals &tot = res.shardTotals[s];
            tot.shard = sum.shard;
            tot.validRecords += sum.validRecords;
            tot.salvagedTxns += sum.salvagedTxns;
            tot.quarantinedTxns += sum.quarantinedTxns;
            tot.abortedDeadShard += sum.abortedDeadShard;
            tot.deadPoints += sum.dead ? 1 : 0;
        }
        if (!o.violations.empty()) {
            ++res.pointsFailed;
            res.failures.push_back(std::move(o));
        }
    }

    // Minimize: bisect down from the earliest observed failure to the
    // earliest failing tick. A probe's snapshot replays the journal
    // from its base, cheap next to the checks it feeds, so probing
    // arbitrary mid ticks (not just harvested ones) is fine. Interior
    // probes skip the re-entrancy sweep; the full checker set re-runs
    // at the final minimized tick below.
    if (!res.failures.empty() && cfg.minimizeFailures) {
        Clock::time_point tMin = Clock::now();
        // Probe one tick through the full adversary: the prefix image
        // first, then (reorder sweeps) every legal pending-set image,
        // so a failure only reachable through an out-of-order landing
        // still bisects to its earliest tick and reports the ordering
        // that exposes it.
        auto evaluateTick = [&](Tick t, persist::RecoveryReport *rep,
                                bool skipReentrancy,
                                std::string *reorderOut) {
            mem::BackingStore prefix = csys.crashSnapshot(t);
            std::vector<Violation> v =
                evaluate(prefix, t, rep, nullptr, skipReentrancy);
            if (!v.empty() || !cfg.reorder.enabled)
                return v;
            std::vector<PendingPersist> pending =
                pendingPersistsAt(store, t);
            for (const ReorderImage &plan :
                 planReorderImages(pending, cfg.reorder, t)) {
                mem::BackingStore variant = prefix;
                applyReorderImage(variant, pending, plan);
                v = evaluate(std::move(variant), t, rep, nullptr,
                             true);
                if (!v.empty()) {
                    if (reorderOut)
                        *reorderOut = plan.describe(pending);
                    return v;
                }
            }
            return std::vector<Violation>{};
        };
        Tick lo = 0;
        Tick hi = res.failures.front().point.tick; // known failing
        while (lo < hi) {
            Tick mid = lo + (hi - lo) / 2;
            if (!evaluateTick(mid, nullptr, true, nullptr).empty())
                hi = mid;
            else
                lo = mid + 1;
        }
        res.minimizedTick = hi;

        persist::RecoveryReport rep;
        std::string minReorder;
        auto violations = evaluateTick(hi, &rep, false, &minReorder);
        CrashFacts f = factsAt(hi);
        std::string detail;
        char line[256];
        std::snprintf(line, sizeof(line),
                      "earliest failing tick %llu (begun=%llu "
                      "committed=%llu durable=%llu wraps=%llu)\n",
                      static_cast<unsigned long long>(hi),
                      static_cast<unsigned long long>(f.txBegun),
                      static_cast<unsigned long long>(f.txCommitted),
                      static_cast<unsigned long long>(
                          f.txDurableCommits),
                      static_cast<unsigned long long>(f.logWraps));
        detail += line;
        for (const auto &v : violations)
            detail += "  " + v.invariant + ": " + v.detail + "\n";
        if (!minReorder.empty())
            detail += "  ordering: " + minReorder + "\n";
        std::snprintf(line, sizeof(line),
                      "recovery: header=%d records=%llu committed="
                      "%llu uncommitted=%llu redo=%llu undo=%llu\n",
                      rep.headerValid ? 1 : 0,
                      static_cast<unsigned long long>(
                          rep.validRecords),
                      static_cast<unsigned long long>(
                          rep.committedTxns),
                      static_cast<unsigned long long>(
                          rep.uncommittedTxns),
                      static_cast<unsigned long long>(rep.redoApplied),
                      static_cast<unsigned long long>(
                          rep.undoApplied));
        detail += line;
        if (cfg.imageFaults.enabled() || rep.damagedSlots() != 0) {
            std::snprintf(
                line, sizeof(line),
                "salvage: salvaged=%llu quarantined=%llu torn=%llu "
                "crc-fail=%llu stale=%llu first-bad=0x%llx\n",
                static_cast<unsigned long long>(rep.salvagedTxns),
                static_cast<unsigned long long>(rep.quarantinedTxns),
                static_cast<unsigned long long>(rep.tornSlots),
                static_cast<unsigned long long>(rep.crcFailSlots),
                static_cast<unsigned long long>(rep.stalePassSlots),
                static_cast<unsigned long long>(rep.firstBadSlotAddr));
            detail += line;
        }
        detail += describeLogWindow(csys.crashSnapshot(hi),
                                    csys.config().map);
        res.minimizedDetail = std::move(detail);
        res.perf.minimizeSec = secondsSince(tMin);
    }

    res.perf.entriesReplayed = store.entriesReplayed();
    res.perf.pagesCloned = store.pagesCloned();
    res.perf.totalSec = secondsSince(tTotal);
    return res;
}

} // namespace snf::crashlab
