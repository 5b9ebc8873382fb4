/**
 * @file
 * snfdiff — conformlab front end: generate seeded random transaction
 * programs and check each one differentially across the hardware
 * HWL+FWB backend, the software-logging reference, and the pure
 * model oracle (final images plus crash-point recovery consistency).
 *
 * `snfdiff --help` lists every flag. Exit status 0 iff every program
 * agreed.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "conformlab/diffrun.hh"
#include "conformlab/proggen.hh"
#include "conformlab/shrink.hh"
#include "core/flags.hh"
#include "crashlab/sweep.hh"
#include "sim/logging.hh"

using namespace snf;
using namespace snf::conformlab;

namespace
{

struct Failure
{
    Program program;
    DiffResult result;
    std::string source; // "seed 42" or a file path
};

/** Shrink a failure and write the .snfprog repro. */
void
reportFailure(const Failure &f, const DiffConfig &cfg, bool shrink,
              const std::string &outPath)
{
    std::fprintf(stderr, "FAIL %s: %s\n", f.source.c_str(),
                 f.result.detail.c_str());
    Program repro = f.program;
    if (shrink) {
        ShrinkStats stats;
        repro = shrinkProgram(
            f.program,
            [&](const Program &cand) {
                return !runDiff(cand, cfg).passed;
            },
            ShrinkOptions{}, &stats);
        DiffResult minimal = runDiff(repro, cfg);
        std::fprintf(stderr,
                     "  shrunk to %zu operations after %zu "
                     "evaluations%s: %s\n",
                     repro.operationCount(), stats.evals,
                     stats.budgetExhausted ? " (budget exhausted)"
                                           : "",
                     minimal.detail.c_str());
    }
    if (!saveProgramFile(outPath, repro))
        std::fprintf(stderr, "  cannot write repro to %s\n",
                     outPath.c_str());
    else
        std::fprintf(stderr, "  repro written to %s\n",
                     outPath.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t programs = 50;
    std::uint64_t baseSeed = 1;
    std::size_t jobs = 0;
    std::string replayPath;
    std::string corpusDir;
    bool shrink = true;
    std::string outPath = "snfdiff-failure.snfprog";
    DiffConfig cfg;
    ProgGenConfig gen;

    FlagSet flags("snfdiff");
    flags.addCount("--programs N", &programs,
                   "seeded programs to run (default 50)");
    flags.addCount("--seed N", &baseSeed,
                   "base seed; program i uses seed base+i (default 1)");
    flags.addCount("--jobs N", &jobs,
                   "worker threads; 0 = one per hardware thread (0)");
    flags.addString("--replay FILE", &replayPath,
                    "replay one .snfprog repro instead");
    flags.addString("--corpus DIR", &corpusDir,
                    "replay every *.snfprog in DIR (sorted)");
    flags.addCount("--max-crash-points N", &cfg.maxCrashPoints,
                   "harvested crash points per backend (default 32)");
    flags.addCount("--reorder-samples N", &cfg.reorderSamples,
                   "reorderlab: legal orders recovered per crash point");
    flags.addCount("--log-shards N", &cfg.logShards,
                   "log shards on both backends (default 1)", 1, 64);
    flags.addSwitch("--no-crash", &cfg.crashDifferential,
                    "final-image differential only", false);
    flags.addSwitch("--no-shrink", &shrink,
                    "report the first failure unminimized", false);
    flags.addString("--out FILE", &outPath,
                    "repro path (default snfdiff-failure.snfprog)");
    // Conflicting programs are judged by the commit-order
    // serializability oracle.
    flags.addProbability("--conflict-rate R", &gen.conflictRate,
                         "share of ops on the shared region");
    flags.addProbability("--load-rate R", &gen.loadRate,
                         "per-op load share of conflicting programs");
    flags.addChoice("--cc 2pl|tl2|none", &cfg.ccMode, ccModeChoices(),
                    "CC for conflicting programs (default 2pl)");
    // Self-tests: give the differential a real bug to catch and
    // shrink.
    flags.addSwitch("--inject-skip-undo", &cfg.hwRecovery.faultSkipUndo,
                    "hardware recovery skips the undo phase");
    flags.addSwitch("--inject-skip-redo", &cfg.hwRecovery.faultSkipRedo,
                    "hardware recovery skips the redo phase");
    flags.addSwitch("--inject-ignore-crc",
                    &cfg.hwRecovery.faultIgnoreCrc,
                    "hardware recovery trusts bad CRCs");
    flags.addSwitch("--inject-lost-update", &cfg.injectLostUpdate,
                    "run conflicting programs without CC");
    flags.parse(argc, argv);
    jobs = crashlab::resolveJobs(jobs);

    // --- Replay paths: one repro file, or a whole corpus ---------
    std::vector<std::pair<std::string, Program>> fixed;
    if (flags.given("--replay")) {
        Program p;
        std::string err;
        if (!loadProgramFile(replayPath, &p, &err))
            fatal("%s", err.c_str());
        fixed.emplace_back(replayPath, p);
    }
    if (flags.given("--corpus")) {
        std::vector<std::string> files;
        std::error_code ec;
        for (const auto &e :
             std::filesystem::directory_iterator(corpusDir, ec))
            if (e.path().extension() == ".snfprog")
                files.push_back(e.path().string());
        if (ec)
            fatal("--corpus %s: %s", corpusDir.c_str(),
                  ec.message().c_str());
        std::sort(files.begin(), files.end());
        if (files.empty())
            fatal("no .snfprog files in %s", corpusDir.c_str());
        for (const auto &f : files) {
            Program p;
            std::string err;
            if (!loadProgramFile(f, &p, &err))
                fatal("%s", err.c_str());
            fixed.emplace_back(f, p);
        }
    }

    // --- Work list -----------------------------------------------
    struct Job
    {
        std::string source;
        Program program;
    };
    std::vector<Job> work;
    for (auto &[src, p] : fixed)
        work.push_back({src, std::move(p)});
    if (fixed.empty()) {
        for (std::size_t i = 0; i < programs; ++i) {
            std::uint64_t seed = baseSeed + i;
            work.push_back(
                {strfmt("seed %llu",
                        static_cast<unsigned long long>(seed)),
                 generateProgram(seed, gen)});
        }
    }

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> crashPoints{0};
    std::atomic<std::size_t> committed{0};
    std::mutex failLock;
    // The lowest failing index so far, and its failure. Workers
    // finish every index below it and skip every index above it, so
    // the reported failure is the one --jobs 1 reports.
    std::size_t lowestFailing = work.size();
    std::optional<Failure> firstFailure;

    auto worker = [&] {
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= work.size())
                return;
            {
                std::lock_guard<std::mutex> g(failLock);
                if (i > lowestFailing)
                    return; // indices only grow from here
            }
            DiffResult r = runDiff(work[i].program, cfg);
            crashPoints += r.crashPointsChecked;
            committed += r.committedTx;
            if (!r.passed) {
                std::lock_guard<std::mutex> g(failLock);
                if (i < lowestFailing) {
                    lowestFailing = i;
                    firstFailure =
                        Failure{work[i].program, r, work[i].source};
                }
            }
        }
    };
    std::vector<std::thread> pool;
    for (std::size_t t = 1; t < jobs; ++t)
        pool.emplace_back(worker);
    worker();
    for (auto &t : pool)
        t.join();

    if (firstFailure) {
        reportFailure(*firstFailure, cfg, shrink, outPath);
        return 1;
    }
    std::printf("snfdiff: %zu programs agreed (%zu committed tx, "
                "%zu crash points recovered)\n",
                work.size(), committed.load(), crashPoints.load());
    return 0;
}
