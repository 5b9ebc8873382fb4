#include "crashlab/lifecycle.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>
#include <utility>

#include "crashlab/trace.hh"
#include "mem/remap_table.hh"
#include "persist/recovery.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace snf::crashlab
{

namespace
{

constexpr std::uint64_t kLine = mem::RemapTable::kLineBytes;

// Default lifelab geometry: a 16 KB dual-bank table (~500 entries)
// backed by 32 KB of spare lines.
constexpr std::uint64_t kDefaultRemapBytes = 16 * 1024;
constexpr std::uint64_t kDefaultSpareBytes = 32 * 1024;

} // namespace

std::vector<Violation>
checkRecoveryReentrancy(const mem::BackingStore &image,
                        const AddressMap &map,
                        const persist::RecoveryOptions &opts,
                        std::uint64_t stride, std::size_t jobs)
{
    persist::RecoveryOptions full = opts;
    full.crashAfterWrites = ~0ULL;
    full.collectWrites = false;

    mem::BackingStore ref = image;
    persist::RecoveryReport refRep =
        persist::Recovery::run(ref, map, full);
    std::uint64_t total = refRep.writesIssued;
    if (total < 2)
        return {}; // no interior point to interrupt at
    if (stride == 0)
        stride = std::max<std::uint64_t>(1, total / 5);

    // One probe per interior budget: interrupt, resume, compare. The
    // probes recover independent COW copies, so they parallelize;
    // like the serial loop, only the lowest failing budget reports.
    std::vector<std::uint64_t> budgets;
    for (std::uint64_t budget = stride; budget < total;
         budget += stride)
        budgets.push_back(budget);
    std::vector<std::vector<Violation>> probeOut(budgets.size());

    auto probeAt = [&](std::size_t i) {
        std::uint64_t budget = budgets[i];
        std::vector<Violation> &out = probeOut[i];
        persist::RecoveryOptions cut = full;
        cut.crashAfterWrites = budget;
        mem::BackingStore probe = image;
        persist::RecoveryReport r1 =
            persist::Recovery::run(probe, map, cut);
        if (r1.writesIssued != total) {
            out.push_back(
                {"recovery-reentrant",
                 strfmt("pass interrupted at budget %llu planned %llu "
                        "line writes but the uninterrupted pass "
                        "planned %llu: recovery's write plan must "
                        "depend only on pre-write reads",
                        static_cast<unsigned long long>(budget),
                        static_cast<unsigned long long>(
                            r1.writesIssued),
                        static_cast<unsigned long long>(total))});
            return;
        }
        persist::Recovery::run(probe, map, full);
        if (auto diff = probe.firstDifference(ref, probe.base(),
                                              probe.size())) {
            out.push_back({"recovery-reentrant",
                           strfmt("recovery interrupted after %llu/%llu line "
                                  "writes then re-run diverges from the "
                                  "uninterrupted pass at 0x%llx",
                                  static_cast<unsigned long long>(budget),
                                  static_cast<unsigned long long>(total),
                                  static_cast<unsigned long long>(*diff))});
        }
    };

    jobs = std::max<std::size_t>(1, std::min(jobs, budgets.size()));
    if (jobs == 1) {
        for (std::size_t i = 0; i < budgets.size(); ++i) {
            probeAt(i);
            if (!probeOut[i].empty())
                break; // matches the parallel path's report
        }
    } else {
        std::atomic<std::size_t> next{0};
        std::mutex poolMutex;
        persist::RecoveryTally pooled;
        auto drain = [&] {
            persist::RecoveryTally mine;
            {
                persist::RecoveryTimerScope scope(&mine);
                for (std::size_t i = next.fetch_add(1);
                     i < budgets.size(); i = next.fetch_add(1))
                    probeAt(i);
            }
            std::lock_guard<std::mutex> lock(poolMutex);
            pooled += mine;
        };
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (std::size_t j = 0; j < jobs; ++j)
            pool.emplace_back(drain);
        for (auto &t : pool)
            t.join();
        // Credit the probes' recovery time and calls to the caller's
        // tally (the thread-local scope does not span the pool
        // threads).
        if (persist::RecoveryTally *sink =
                persist::activeRecoveryTimerSink())
            *sink += pooled;
    }
    for (auto &out : probeOut)
        if (!out.empty())
            return std::move(out);
    return {};
}

LifecycleResult
runLifecycle(const LifecycleConfig &cfg)
{
    using Clock = std::chrono::steady_clock;
    auto secondsSince = [](Clock::time_point start) {
        return std::chrono::duration<double>(Clock::now() - start)
            .count();
    };

    LifecycleResult res;
    Clock::time_point tTotal = Clock::now();
    std::size_t jobs = resolveJobs(cfg.jobs);
    res.perf.jobsUsed = jobs;

    // Every Recovery::run under this frame (checkers, canonical pass,
    // re-entrancy probes — including pooled ones, which credit back)
    // adds its time and one call here; checkSec below is checker wall
    // minus that time.
    persist::RecoveryTally recover;
    std::uint64_t checkWallNs = 0;
    persist::RecoveryTimerScope recoveryTimer(&recover);

    SystemConfig sysCfg = cfg.run.sys;
    sysCfg.persist.crashJournal = true; // snapshots depend on it
    if (sysCfg.map.remapSize == 0) {
        sysCfg.map.remapSize = kDefaultRemapBytes;
        sysCfg.map.spareSize = kDefaultSpareBytes;
    }
    sysCfg.validate();

    if (cfg.run.params.threads > sysCfg.numCores)
        fatal("%u threads but only %u cores", cfg.run.params.threads,
              sysCfg.numCores);
    if (cfg.generations == 0)
        fatal("lifecycle needs at least one generation");

    auto workload = workloads::makeWorkload(cfg.run.workload);
    if (!workload->resumable())
        fatal("workload %s cannot resume on a recovered image",
              workload->name().c_str());

    const bool liveFaults = sysCfg.nvram.faults.enabled();
    const Addr nvEnd = sysCfg.map.nvramBase + sysCfg.map.nvramSize;

    // The image the current generation adopted (the previous
    // generation's recovered image); empty for generation 0, whose
    // baseline is the all-zero store underneath the journal.
    std::optional<mem::BackingStore> adopted;

    for (std::uint32_t g = 0; g < cfg.generations; ++g) {
        GenerationResult gr;
        gr.generation = g;

        Clock::time_point tRun = Clock::now();
        System sys(sysCfg, cfg.run.mode);
        // System folds the log region count into its own copy of
        // the map; recovery and the checkers must read that copy.
        const AddressMap &map = sys.config().map;
        if (g == 0) {
            workload->setup(sys, cfg.run.params);
            sys.mem().nvram().updateSuperblock(sys.heap().allocated(),
                                               0);
        } else {
            sys.adoptNvramImage(*adopted);
            mem::RemapTable *table = sys.mem().nvram().remap();
            if (table->generation != g - 1) {
                gr.violations.push_back(
                    {"superblock-continuity",
                     strfmt("superblock carries generation %llu at "
                            "the start of generation %u",
                            static_cast<unsigned long long>(
                                table->generation),
                            g)});
            }
            sys.heap().resumeTo(table->heapCursor);
            sys.mem().nvram().updateSuperblock(table->heapCursor, g);
        }

        // Same structure, fresh transaction stream per generation.
        workloads::WorkloadParams params = cfg.run.params;
        params.seed = cfg.run.params.seed + g * 7919;

        CrashTrace trace;
        sys.setProbe(trace.collector());
        for (CoreId c = 0; c < params.threads; ++c) {
            sys.spawn(c, [&](Thread &t) -> sim::Co<void> {
                return workload->thread(sys, t, params);
            });
        }
        gr.endTick = sys.run();
        sys.setProbe({});
        trace.finalize();

        RunStats stats = sys.collectStats(gr.endTick);
        gr.committedTx = stats.committedTx;
        gr.logWraps = stats.logWraps;
        gr.scrubRepairs = stats.scrubRepairs;
        gr.scrubPromotions = stats.scrubPromotions;
        res.perf.refRunSec += secondsSince(tRun);

        // Crash instant: a harvested point from the middle half of
        // the run, varied per generation by the soak seed.
        std::vector<CrashPoint> points = trace.harvest(gr.endTick);
        if (points.empty()) {
            gr.crashTick = std::max<Tick>(1, gr.endTick / 2);
        } else {
            sim::Rng rng(cfg.seed ^
                         ((g + 1) * 0x9e3779b97f4a7c15ULL));
            std::size_t lo = points.size() / 4;
            std::size_t hi = std::max<std::size_t>(
                lo + 1, (points.size() * 3) / 4);
            gr.crashTick = points[lo + rng.next() % (hi - lo)].tick;
        }

        Clock::time_point tSnap = Clock::now();
        mem::BackingStore image = sys.crashSnapshot(gr.crashTick);
        res.perf.snapshotSec += secondsSince(tSnap);
        Clock::time_point tCheck = Clock::now();

        CrashFacts facts =
            crashFactsAt(trace, gr.crashTick, params.threads,
                         stats.logWraps, cfg.run.mode);

        // I1-I8 on private copies of the (still clean) snapshot. A
        // run under live media faults has a damaged reference image,
        // which voids both checker sets' premises; the lifecycle
        // checks below still apply there.
        if (!liveFaults) {
            persist::RecoveryOptions checkOpts;
            std::vector<Violation> v =
                cfg.imageFaults.enabled()
                    ? checkFaultedCrashPoint(image, map,
                                             cfg.imageFaults, facts,
                                             checkOpts)
                    : checkCrashPoint(image, map, *workload, facts,
                                      checkOpts);
            gr.violations.insert(gr.violations.end(), v.begin(),
                                 v.end());
        }

        // Damage the resume image exactly as the checkers' private
        // copy was damaged (a pure function of seed, slot address and
        // crash tick), so the soak carries the damage forward.
        if (cfg.imageFaults.enabled()) {
            gr.slotsFaulted =
                applyImageFaults(image, map, cfg.imageFaults,
                                 gr.crashTick)
                    .slotsFaulted;
        }

        const bool sabotaged = g == cfg.sabotageGeneration;
        if (sabotaged)
            mem::RemapTable::sabotage(image, map.remapBase(),
                                      map.remapSize);

        persist::RecoveryOptions canon;
        canon.promoteBadLines = true;
        canon.collectWrites = true;

        std::optional<mem::BackingStore> preRecovery;
        if (cfg.checkReentrancy && !sabotaged)
            preRecovery.emplace(image);

        gr.recovery = persist::Recovery::run(image, map, canon);

        if (gr.recovery.remapCorrupt) {
            gr.violations.push_back(
                {"remap-table-valid",
                 strfmt("generation %u: both remap-table banks failed "
                        "their CRC over a nonzero region; the mapping "
                        "is lost and the image cannot be trusted",
                        g)});
        }

        if (preRecovery && gr.recovery.writesIssued >= 2 &&
            !gr.recovery.remapCorrupt) {
            std::uint64_t stride = std::max<std::uint64_t>(
                1, gr.recovery.writesIssued /
                       (cfg.reentrancyBudgets + 1));
            std::vector<Violation> v = checkRecoveryReentrancy(
                *preRecovery, map, canon, stride, jobs);
            gr.violations.insert(gr.violations.end(), v.begin(),
                                 v.end());
        }

        {
            mem::RemapTable table(map.remapBase(), map.remapSize,
                                  map.spareBase(), map.spareSize);
            table.load(image);
            gr.remapEntries = table.size();
        }

        // I9 (recovered-durable): the post-recovery image may differ
        // from the image this generation adopted only at lines the
        // generation's journaled writes (done <= crash tick) or the
        // recovery pass itself touched. Transitively, a byte
        // recovered in generation k survives until something
        // legitimately overwrites it.
        if (!sabotaged && !gr.recovery.remapCorrupt) {
            std::unordered_set<Addr> allowed;
            sys.mem().nvram().store().forEachJournalRecord(
                [&](const mem::BackingStore::JournalRecord &r) {
                    if (r.done > gr.crashTick)
                        return;
                    for (Addr l = r.addr & ~(kLine - 1);
                         l < r.addr + r.size; l += kLine)
                        allowed.insert(l);
                });
            for (Addr l : gr.recovery.touchedLines)
                allowed.insert(l);

            const mem::BackingStore genesis(image.base(),
                                            image.size());
            const mem::BackingStore &prev =
                adopted ? *adopted : genesis;
            Addr from = map.heapBase();
            while (from < nvEnd) {
                auto diff =
                    image.firstDifference(prev, from, nvEnd - from);
                if (!diff)
                    break;
                Addr line = *diff & ~(kLine - 1);
                if (!allowed.count(line)) {
                    gr.violations.push_back(
                        {"recovered-durable",
                         strfmt("generation %u lost recovered bytes "
                                "at 0x%llx: the line differs from the "
                                "adopted image but was written "
                                "neither by the generation's "
                                "journaled writes nor by recovery",
                                g,
                                static_cast<unsigned long long>(
                                    line))});
                    break;
                }
                from = line + kLine;
            }
        }

        checkWallNs += static_cast<std::uint64_t>(
            secondsSince(tCheck) * 1e9);
        const mem::BackingStore &st = sys.mem().nvram().store();
        res.perf.journalEntries += st.journalSize();
        res.perf.entriesReplayed += st.entriesReplayed();
        res.perf.pagesCloned += st.pagesCloned();

        const bool stop = sabotaged || gr.recovery.remapCorrupt;
        if (gr.recovery.remapCorrupt)
            res.aborted = true; // image untrusted: end the soak
        res.generations.push_back(std::move(gr));
        if (stop)
            break;

        adopted.emplace(std::move(image));
    }

    res.perf.recoverSec = recover.ns * 1e-9;
    res.perf.recoverCalls = recover.calls;
    res.perf.checkSec =
        (checkWallNs - std::min(checkWallNs, recover.ns)) * 1e-9;
    res.perf.totalSec = secondsSince(tTotal);
    return res;
}

} // namespace snf::crashlab
