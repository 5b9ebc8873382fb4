/**
 * @file
 * The benchmark's own tests: it drives the same program the committed
 * baselines describe, its latency merge is sound, its seed reaches the
 * simulation, and its probe and spans do not perturb the model.
 * Exits non-zero on the first failed check.
 */

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.hh"

using namespace snfbench;
using snf::oltp::LatencyHistogram;

namespace
{

int failures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

template <typename T>
void
checkEq(const T &got, const T &want, const std::string &what)
{
    std::ostringstream o;
    o << what << ": got " << got << ", want " << want;
    check(got == want, o.str());
}

/** The committed BENCH_oltp.json tpcc/fwb/2pl cell. */
OltpCell
committedTpccCell()
{
    OltpCell c;
    c.engine = "oltp-tpcc";
    c.mode = snf::PersistMode::Fwb;
    c.cc = snf::CcMode::TwoPhase;
    c.threads = 8;
    c.warehouses = 4;
    c.footprint = 256;
    c.txPerThread = 250;
    c.seed = 11;
    return c;
}

/** A small contended TPC-C cell for the cheaper checks. */
OltpCell
smallTpccCell(std::uint64_t seed)
{
    OltpCell c = committedTpccCell();
    c.threads = 4;
    c.warehouses = 2;
    c.footprint = 64;
    c.txPerThread = 40;
    c.seed = seed;
    return c;
}

void
reproducesCommittedBaseline()
{
    OltpRun r = runOltp(committedTpccCell(), nullptr, false);
    check(r.verified, "committed tpcc/fwb/2pl cell verifies");
    checkEq<std::uint64_t>(r.stats.cycles, 7801247, "cycles");
    checkEq<std::uint64_t>(r.stats.committedTx, 1987, "committed tx");
    checkEq<std::uint64_t>(r.stats.logRecords, 56533, "log records");
    checkEq<std::uint64_t>(r.stats.nvramWrites, 43594, "nvram writes");
    checkEq<std::uint64_t>(r.stats.instr.total, 33657537, "instructions");
    checkEq<std::uint64_t>(r.userAborts, 13, "user aborts");
}

void
mergedQuantilesMatchOneHistogram()
{
    // Two "types" recorded apart and merged must report the quantiles
    // of one histogram that recorded every sample.
    LatencyHistogram a, b, all;
    std::uint64_t x = 12345;
    for (int i = 0; i < 5000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        std::uint64_t v = (x >> 33) % (i % 3 ? 900 : 250000);
        (i % 2 ? a : b).record(v);
        all.record(v);
    }
    LatencyHistogram merged;
    merged.merge(a);
    merged.merge(b);
    checkEq(merged.count(), all.count(), "merged count");
    checkEq(merged.p50(), all.p50(), "merged p50");
    checkEq(merged.p99(), all.p99(), "merged p99");

    // The interpolated reading stays inside the reported bucket and
    // recovers a single recorded value's bucket.
    for (std::uint64_t v : {3ULL, 100ULL, 2200ULL, 300000ULL}) {
        LatencyHistogram one;
        one.record(v);
        double got = interpolatedQuantile(one, 0.5);
        check(got <= static_cast<double>(v) + 1 &&
                  got >= static_cast<double>(v) * 0.875 - 1,
              "interpolated quantile of one sample " + std::to_string(v));
    }
    for (double q : {0.5, 0.99}) {
        double got = interpolatedQuantile(all, q);
        check(got <= static_cast<double>(all.quantile(q)) &&
                  got > static_cast<double>(all.quantile(q)) * 0.875,
              "interpolated quantile lies in the reported bucket");
    }

    // On a real run the merge holds every commit, and its quantiles
    // lie within the per-type ones.
    OltpRun r = runOltp(smallTpccCell(3), nullptr, false);
    std::uint64_t commits = 0, lo50 = ~0ULL, hi50 = 0, lo99 = ~0ULL,
                  hi99 = 0;
    for (const auto &[name, m] : r.types) {
        commits += m.committed;
        if (m.latency.count() == 0)
            continue;
        lo50 = std::min(lo50, m.latency.p50());
        hi50 = std::max(hi50, m.latency.p50());
        lo99 = std::min(lo99, m.latency.p99());
        hi99 = std::max(hi99, m.latency.p99());
    }
    checkEq(r.latency.count(), commits, "merged histogram holds every commit");
    check(lo50 <= r.latency.p50() && r.latency.p50() <= hi50,
          "merged p50 within the per-type p50s");
    check(lo99 <= r.latency.p99() && r.latency.p99() <= hi99,
          "merged p99 within the per-type p99s");
}

void
seedChangesSimulation()
{
    OltpRun a = runOltp(smallTpccCell(1), nullptr, false);
    OltpRun b = runOltp(smallTpccCell(2), nullptr, false);
    OltpRun a2 = runOltp(smallTpccCell(1), nullptr, false);
    check(a.fingerprint() == a2.fingerprint(),
          "one seed gives identical simulated counters");
    check(a.fingerprint() != b.fingerprint(),
          "another seed changes the simulated counters");
    check(a.stats.cycles != b.stats.cycles,
          "another seed changes simulated cycles");

    OltpCell ycsb = workloadCell("ycsb-undo", 1);
    ycsb.footprint = 4096;
    ycsb.txPerThread = 50;
    OltpRun y1 = runOltp(ycsb, nullptr, false);
    ycsb.seed = 2;
    OltpRun y2 = runOltp(ycsb, nullptr, false);
    check(y1.verified && y2.verified, "small ycsb-undo cells verify");
    check(y1.fingerprint() != y2.fingerprint(),
          "another seed changes the ycsb-undo counters");
}

void
probeAndSpansDoNotPerturb()
{
    OltpCell cell = smallTpccCell(4);
    OltpRun plain = runOltp(cell, nullptr, false);
    Tracer tracer;
    tracer.beginRun();
    OltpRun traced = runOltp(cell, &tracer, true);
    check(traced.occSamples > 0, "commit probe sampled the run");
    check(plain.fingerprint() == traced.fingerprint(),
          "traced + probed run has the untraced run's counters");

    // Every public call got a span, and self times add up to the
    // spans' total.
    std::size_t roots = 0;
    double rootSeconds = 0;
    for (const Span &s : tracer.spans())
        if (s.parent < 0) {
            ++roots;
            rootSeconds += (s.endUs - s.startUs) * 1e-6;
        }
    checkEq<std::size_t>(tracer.spans().size(), 7, "spans per run");
    double selfSum = 0;
    for (const auto &[layer, sec] : tracer.selfSecondsByLayer())
        selfSum += sec;
    check(roots == 7 && std::abs(selfSum - rootSeconds) < 1e-6,
          "self times sum to the root spans' time");

    Tracer nested;
    {
        ScopedSpan outer(&nested, "bench.iteration");
        {
            ScopedSpan inner(&nested, "core.run");
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    auto self = nested.selfSecondsByLayer();
    check(self["core"] >= 0.019 && self["bench"] >= 0.009 &&
              self["bench"] < self["core"],
          "a parent's self time excludes its child");
    std::ostringstream json;
    nested.writeChromeJson(json);
    check(json.str().find("\"parent\": 0") != std::string::npos,
          "chrome trace names the parent span");
}

void
crashWalkRecovers()
{
    OltpCell cell = smallTpccCell(5);
    cell.crashJournal = true;
    CrashWalk walk;
    OltpRun r = runOltp(cell, nullptr, false,
                        [&](snf::System &sys,
                            const snf::workloads::Workload &wl,
                            snf::Tick end) {
                            walk = walkCrashTicks(sys, wl, end, 12, 7,
                                                  nullptr);
                        });
    check(r.verified, "journaled cell verifies");
    checkEq<std::size_t>(walk.points, 12, "crash ticks walked");
    checkEq<std::size_t>(walk.failed, 0, "crash ticks failing recovery");
    check(walk.slotsScanned > 0, "recovery scanned log slots");
}

} // namespace

int
main()
{
    reproducesCommittedBaseline();
    mergedQuantilesMatchOneHistogram();
    seedChangesSimulation();
    probeAndSpansDoNotPerturb();
    crashWalkRecovers();
    std::printf("%s: %d failed check(s)\n", failures ? "FAIL" : "PASS",
                failures);
    return failures ? 1 : 0;
}
