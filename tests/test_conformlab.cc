/**
 * @file
 * Tests for conformlab: the `.snfprog` program representation and
 * serialization, the seeded program generator, the pure model oracle
 * (golden images and metamorphic commutation), the three-way
 * differential runner, and the program shrinker (including the
 * end-to-end self-test: an injected recovery bug must be caught and
 * minimized to a trivial repro).
 */

#include <gtest/gtest.h>

#include <string>

#include "conformlab/diffrun.hh"
#include "conformlab/oracle.hh"
#include "conformlab/proggen.hh"
#include "conformlab/program.hh"
#include "conformlab/shrink.hh"
#include "workloads/driver.hh"

using namespace snf;
using namespace snf::conformlab;

#ifndef SNF_CORPUS_DIR
#define SNF_CORPUS_DIR "tests/corpus"
#endif

namespace
{

Program
twoThreadProgram()
{
    Program p;
    p.threads = 2;
    p.slotsPerThread = 4;
    p.txs.push_back({0, false, 0, {{0, 0xa}, {1, 0xb}}});
    p.txs.push_back({1, false, 3, {{0, 0xc}}});
    p.txs.push_back({0, true, 0, {{2, 0xdead}}});
    p.txs.push_back({1, false, 0, {{0, 0xd}, {3, 0xe}}});
    return p;
}

} // namespace

// ------------------------ representation -------------------------

TEST(Program, EmitParseRoundTrip)
{
    Program p = twoThreadProgram();
    p.seed = 99;
    Program q;
    std::string err;
    ASSERT_TRUE(parseProgram(emitProgram(p), &q, &err)) << err;
    EXPECT_EQ(p, q);
    EXPECT_EQ(q.seed, 99u);
    // The emission itself is deterministic (repro files are diffable).
    EXPECT_EQ(emitProgram(p), emitProgram(q));
}

TEST(Program, ParseRejectsMalformedDocuments)
{
    Program q;
    std::string err;
    EXPECT_FALSE(parseProgram("", &q, &err));
    EXPECT_FALSE(parseProgram("snfprog 3\nthreads 1\nslots 1\nend\n",
                              &q, &err))
        << "unknown version must be rejected";
    // v2-only directives under a v1 header.
    EXPECT_FALSE(parseProgram("snfprog 1\nthreads 1\nslots 2\n"
                              "shared 2\nseed 0\nend\n",
                              &q, &err));
    EXPECT_FALSE(parseProgram("snfprog 1\nthreads 1\nslots 2\n"
                              "seed 0\ntx 0 commit 0\n"
                              "  load 0\nend\n",
                              &q, &err));
    // Shared op outside the declared shared region.
    EXPECT_FALSE(parseProgram("snfprog 2\nthreads 1\nslots 2\n"
                              "shared 1\nseed 0\ntx 0 commit 0\n"
                              "  sstore 1 0x1\nend\n",
                              &q, &err));
    // Store outside the owning thread's partition.
    EXPECT_FALSE(parseProgram("snfprog 1\nthreads 1\nslots 2\n"
                              "seed 0\ntx 0 commit 0\n"
                              "  store 2 0x1\nend\n",
                              &q, &err));
    // Transaction on a nonexistent thread.
    EXPECT_FALSE(parseProgram("snfprog 1\nthreads 1\nslots 2\n"
                              "seed 0\ntx 1 commit 0\nend\n",
                              &q, &err));
    // Missing end marker (truncated repro).
    EXPECT_FALSE(parseProgram("snfprog 1\nthreads 1\nslots 2\n"
                              "seed 0\ntx 0 commit 0\n",
                              &q, &err));
    EXPECT_FALSE(err.empty());
}

TEST(Program, CorpusFilesLoadAndEmitBack)
{
    for (const char *name : {"basic", "abort", "wide"}) {
        Program p;
        std::string err;
        std::string path = std::string(SNF_CORPUS_DIR) + "/" + name +
                           ".snfprog";
        ASSERT_TRUE(loadProgramFile(path, &p, &err)) << err;
        Program q;
        ASSERT_TRUE(parseProgram(emitProgram(p), &q, &err)) << err;
        EXPECT_EQ(p, q) << name;
    }
}

TEST(Program, StoreOnlyProgramsStillEmitFormatOne)
{
    // Pre-shared-region repro files must stay byte-stable: private
    // store-only programs round-trip through format 1 exactly.
    Program p = twoThreadProgram();
    std::string text = emitProgram(p);
    EXPECT_EQ(text.rfind("snfprog 1\n", 0), 0u) << text;
    EXPECT_EQ(text.find("shared"), std::string::npos);
}

TEST(Program, SharedOpsAndLoadsRoundTripInFormatTwo)
{
    Program p = twoThreadProgram();
    p.sharedSlots = 2;
    p.txs[0].ops.push_back({1, 0x5, ProgOpKind::SharedStore});
    p.txs[0].ops.push_back({0, 0, ProgOpKind::SharedLoad});
    p.txs[1].ops.push_back({0, 0, ProgOpKind::Load});
    std::string text = emitProgram(p);
    EXPECT_EQ(text.rfind("snfprog 2\n", 0), 0u) << text;
    EXPECT_NE(text.find("shared 2\n"), std::string::npos);
    Program q;
    std::string err;
    ASSERT_TRUE(parseProgram(text, &q, &err)) << err;
    EXPECT_EQ(p, q);
    EXPECT_TRUE(q.hasConflicts());
    EXPECT_TRUE(q.hasLoads());
    // Shared slots live after every private partition.
    EXPECT_EQ(q.sharedGlobalSlot(0), q.privateSlots());
    EXPECT_EQ(q.totalSlots(), q.privateSlots() + 2);
}

// ---------------------------- oracle -----------------------------

TEST(ModelOracle, GoldenImageOfBasicCorpusProgram)
{
    Program p;
    std::string err;
    ASSERT_TRUE(loadProgramFile(
        std::string(SNF_CORPUS_DIR) + "/basic.snfprog", &p, &err))
        << err;
    ModelOracle o(p);
    EXPECT_EQ(o.committedCount(), 2u);
    std::vector<std::uint64_t> img = o.finalImage();
    ASSERT_EQ(img.size(), 4u);
    EXPECT_EQ(img[0], 0x20u);
    EXPECT_EQ(img[1], 0x11u);
    EXPECT_EQ(img[2], 0x12u);
    EXPECT_EQ(img[3], initValue(3));
}

TEST(ModelOracle, AbortedTransactionsLeaveNoTrace)
{
    Program p;
    std::string err;
    ASSERT_TRUE(loadProgramFile(
        std::string(SNF_CORPUS_DIR) + "/abort.snfprog", &p, &err))
        << err;
    ModelOracle o(p);
    EXPECT_EQ(o.committedCount(), 2u);
    std::vector<std::uint64_t> img = o.finalImage();
    EXPECT_EQ(img[0], 0xau);
    EXPECT_EQ(img[1], 0xbu);
    // No prefix image may contain the aborted tx's 0xdead values.
    for (std::size_t k = 0; k <= o.committedTxs(0).size(); ++k)
        for (std::uint64_t v : o.prefixImage(0, k))
            EXPECT_NE(v, 0xdeadu);
}

TEST(ModelOracle, PrefixImagesChainIncrementally)
{
    Program p = twoThreadProgram();
    ModelOracle o(p);
    ASSERT_EQ(o.committedTxs(0).size(), 1u);
    ASSERT_EQ(o.committedTxs(1).size(), 2u);
    // k=0 is the initial image.
    EXPECT_EQ(o.prefixImage(0, 0)[0], initValue(0));
    EXPECT_EQ(o.prefixImage(1, 0)[0], initValue(4));
    // Thread 1's two commits both hit its slot 0: 0xc then 0xd.
    EXPECT_EQ(o.prefixImage(1, 1)[0], 0xcu);
    EXPECT_EQ(o.prefixImage(1, 2)[0], 0xdu);
    EXPECT_EQ(o.prefixImage(1, 2)[3], 0xeu);
}

TEST(ModelOracle, MetamorphicCrossThreadCommutation)
{
    // Transactions of different threads touch disjoint partitions,
    // so swapping their program order must not change the final
    // image — the property that makes the differential well-defined
    // under arbitrary backend timing.
    Program p = twoThreadProgram();
    ModelOracle base(p);
    for (std::size_t i = 0; i + 1 < p.txs.size(); ++i) {
        if (p.txs[i].thread == p.txs[i + 1].thread)
            continue;
        Program q = p;
        std::swap(q.txs[i], q.txs[i + 1]);
        EXPECT_EQ(ModelOracle(q).finalImage(), base.finalImage())
            << "swap at " << i;
    }
}

// --------------------------- generator ---------------------------

TEST(ProgGen, DeterministicPerSeed)
{
    EXPECT_EQ(generateProgram(7), generateProgram(7));
    EXPECT_FALSE(generateProgram(7) == generateProgram(8));
}

TEST(ProgGen, ProgramsAreWellFormed)
{
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        Program p = generateProgram(seed);
        EXPECT_GE(p.threads, 1u);
        EXPECT_GE(p.slotsPerThread, 1u);
        EXPECT_FALSE(p.txs.empty());
        for (const ProgTx &tx : p.txs) {
            EXPECT_LT(tx.thread, p.threads);
            EXPECT_FALSE(tx.ops.empty());
            for (const ProgOp &op : tx.ops)
                EXPECT_LT(op.slot, op.isShared() ? p.sharedSlots
                                                 : p.slotsPerThread);
        }
        // Round-trips through the repro format.
        Program q;
        std::string err;
        ASSERT_TRUE(parseProgram(emitProgram(p), &q, &err)) << err;
        EXPECT_EQ(p, q);
    }
}

TEST(ProgGen, SomeSeedsAbortAndInterleave)
{
    bool sawAbort = false, sawMultiThread = false, sawDelay = false;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        Program p = generateProgram(seed);
        sawMultiThread |= p.threads > 1;
        for (const ProgTx &tx : p.txs) {
            sawAbort |= tx.aborts;
            sawDelay |= tx.delay != 0;
        }
    }
    EXPECT_TRUE(sawAbort);
    EXPECT_TRUE(sawMultiThread);
    EXPECT_TRUE(sawDelay);
}

namespace
{

/** FNV-1a over the repro text of the programs of seeds 1..200. */
std::uint64_t
programsHash(const ProgGenConfig &gen)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        for (unsigned char c : emitProgram(generateProgram(seed, gen))) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

} // namespace

// A seed names its program: snfdiff's runs, its failure reports and
// the corpus are all reproduced from seeds. Pins the programs of 200
// seeds, conflict-free and with a shared region.
TEST(ProgGen, SeedsKeepTheirPrograms)
{
    EXPECT_EQ(programsHash(ProgGenConfig{}), 0x81e9701bec81083cULL);
    ProgGenConfig conflicts;
    conflicts.conflictRate = 0.5;
    EXPECT_EQ(programsHash(conflicts), 0x4bf69dd653b851a0ULL);
}

namespace
{

/** Two txs contending on one shared slot; tx0 also reads it. */
Program
contendedProgram()
{
    Program p;
    p.threads = 2;
    p.slotsPerThread = 1;
    p.sharedSlots = 1;
    p.txs.push_back({0, false, 0,
                     {{0, 0, ProgOpKind::SharedLoad},
                      {0, 0xa1, ProgOpKind::SharedStore}}});
    p.txs.push_back({1, false, 4,
                     {{0, 0xb2, ProgOpKind::SharedStore}}});
    return p;
}

} // namespace

TEST(SerialOracle, ReplaysTheDurableCommitOrder)
{
    Program p = contendedProgram();
    std::uint32_t g = p.sharedGlobalSlot(0);
    // tx1's commit record hardened first: serial order is tx1, tx0.
    SerialOracle o(p, {{0, 20, 18}, {1, 10, 8}});
    ASSERT_EQ(o.order().size(), 2u);
    EXPECT_EQ(o.order()[0].txIndex, 1u);
    EXPECT_EQ(o.order()[1].txIndex, 0u);
    std::vector<std::uint64_t> img = o.finalImage();
    EXPECT_EQ(img[g], 0xa1u);

    std::string why;
    EXPECT_TRUE(o.checkFinalImage(img, &why)) << why;
    img[g] = 0xb2;
    EXPECT_FALSE(o.checkFinalImage(img, &why));
    EXPECT_NE(why.find("commit-order replay"), std::string::npos);
}

TEST(SerialOracle, CheckReadsRequiresPredecessorState)
{
    Program p = contendedProgram();
    std::string why;
    {
        // tx0 serialized first: its load must see the initial value.
        SerialOracle o(p, {{0, 10, 8}, {1, 20, 18}});
        EXPECT_TRUE(o.checkReads(
            0, {initValue(p.sharedGlobalSlot(0)), 0}, &why))
            << why;
        EXPECT_FALSE(o.checkReads(0, {0xb2, 0}, &why));
    }
    {
        // tx0 serialized second: its load must see tx1's 0xb2. A
        // stale initial-value read is the classic lost update.
        SerialOracle o(p, {{0, 20, 18}, {1, 10, 8}});
        EXPECT_TRUE(o.checkReads(0, {0xb2, 0}, &why)) << why;
        EXPECT_FALSE(o.checkReads(
            0, {initValue(p.sharedGlobalSlot(0)), 0}, &why));
        EXPECT_NE(why.find("loaded"), std::string::npos);
    }
}

TEST(SerialOracle, CrashImagesMustMatchSomeDepthCombination)
{
    Program p = contendedProgram();
    std::uint32_t g = p.sharedGlobalSlot(0);
    SerialOracle o(p, {{0, 20, 18}, {1, 10, 8}});

    std::vector<std::uint64_t> img(p.totalSlots());
    for (std::uint32_t i = 0; i < p.totalSlots(); ++i)
        img[i] = initValue(i);

    std::string why;
    // Before any commit record initiated: only the initial image.
    EXPECT_TRUE(o.checkCrashImage(img, 5, &why)) << why;
    img[g] = 0xb2;
    EXPECT_FALSE(o.checkCrashImage(img, 5, &why));

    // tx1 durable by 15, tx0 not yet initiated: exactly tx1's state.
    EXPECT_TRUE(o.checkCrashImage(img, 15, &why)) << why;
    img[g] = initValue(g);
    EXPECT_FALSE(o.checkCrashImage(img, 15, &why))
        << "a durable commit must not be lost";

    // tx0's record initiated but not durable at 19: both depths OK.
    img[g] = 0xb2;
    EXPECT_TRUE(o.checkCrashImage(img, 19, &why)) << why;
    img[g] = 0xa1;
    EXPECT_TRUE(o.checkCrashImage(img, 19, &why)) << why;
    img[g] = 0xdead;
    EXPECT_FALSE(o.checkCrashImage(img, 19, &why));
    EXPECT_NE(why.find("depth combinations"), std::string::npos);
}

TEST(ProgGen, DefaultConfigStaysConflictFree)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Program p = generateProgram(seed);
        EXPECT_FALSE(p.hasConflicts());
        EXPECT_FALSE(p.hasLoads());
        EXPECT_EQ(emitProgram(p).rfind("snfprog 1\n", 0), 0u);
    }
}

TEST(ProgGen, ConflictRateProducesSharedOpsAndLoads)
{
    ProgGenConfig gen;
    gen.conflictRate = 0.5;
    std::size_t sharedStores = 0, sharedLoads = 0, privateOps = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Program p = generateProgram(seed, gen);
        EXPECT_TRUE(p.hasConflicts());
        EXPECT_GE(p.sharedSlots, 2u);
        for (const ProgTx &tx : p.txs) {
            for (const ProgOp &op : tx.ops) {
                if (op.kind == ProgOpKind::SharedStore)
                    ++sharedStores;
                else if (op.kind == ProgOpKind::SharedLoad)
                    ++sharedLoads;
                else
                    ++privateOps;
            }
        }
        // Conflict structure survives the repro round-trip.
        Program q;
        std::string err;
        ASSERT_TRUE(parseProgram(emitProgram(p), &q, &err)) << err;
        EXPECT_EQ(p, q);
    }
    EXPECT_GT(sharedStores, 0u);
    EXPECT_GT(sharedLoads, 0u);
    EXPECT_GT(privateOps, 0u);
}

// -------------------------- differential -------------------------

TEST(DiffRun, SeededProgramsAgreeAcrossBackends)
{
    for (std::uint64_t seed : {1, 2, 3}) {
        DiffConfig cfg;
        cfg.maxCrashPoints = 8; // keep the unit test quick
        DiffResult r = runDiff(generateProgram(seed), cfg);
        EXPECT_TRUE(r.passed) << "seed " << seed << ": " << r.detail;
        EXPECT_GT(r.crashPointsChecked, 0u);
    }
}

TEST(DiffRun, CorpusProgramsAgreeAcrossBackends)
{
    for (const char *name : {"basic", "abort", "wide"}) {
        Program p;
        std::string err;
        ASSERT_TRUE(loadProgramFile(std::string(SNF_CORPUS_DIR) +
                                        "/" + name + ".snfprog",
                                    &p, &err))
            << err;
        DiffResult r = runDiff(p, DiffConfig{});
        EXPECT_TRUE(r.passed) << name << ": " << r.detail;
    }
}

TEST(DiffRun, CatchesSkippedRedoAndShrinksToTrivialRepro)
{
    // The acceptance self-test: sabotage the hardware backend's
    // recovery (skip the redo phase — under no-force a durable
    // commit's data is still volatile, so recovery silently loses
    // it) and require the differential to catch it and the shrinker
    // to minimize the failure to a near-minimal program.
    DiffConfig cfg;
    cfg.hwRecovery.faultSkipRedo = true;
    cfg.maxCrashPoints = 8;

    Program failing;
    bool found = false;
    for (std::uint64_t seed = 1; seed <= 10 && !found; ++seed) {
        Program p = generateProgram(seed);
        if (!runDiff(p, cfg).passed) {
            failing = p;
            found = true;
        }
    }
    ASSERT_TRUE(found) << "injected bug must be detectable";

    ShrinkStats stats;
    Program minimal = shrinkProgram(
        failing,
        [&](const Program &cand) { return !runDiff(cand, cfg).passed; },
        ShrinkOptions{}, &stats);
    EXPECT_FALSE(runDiff(minimal, cfg).passed);
    EXPECT_LE(minimal.operationCount(), 5u)
        << "shrink left " << minimal.operationCount()
        << " operations after " << stats.evals << " evaluations";
    // And the repro replays: a healthy recovery passes it.
    EXPECT_TRUE(runDiff(minimal, DiffConfig{}).passed);
}

TEST(DiffRun, ConflictProgramsSerializeUnderBothCcSchemes)
{
    ProgGenConfig gen;
    gen.conflictRate = 0.5;
    for (CcMode cc : {CcMode::TwoPhase, CcMode::Tl2}) {
        for (std::uint64_t seed : {1, 2, 3}) {
            Program p = generateProgram(seed, gen);
            ASSERT_TRUE(p.hasConflicts());
            DiffConfig cfg;
            cfg.ccMode = cc;
            cfg.maxCrashPoints = 6; // keep the unit test quick
            DiffResult r = runDiff(p, cfg);
            EXPECT_TRUE(r.passed) << ccModeName(cc) << " seed "
                                  << seed << ": " << r.detail;
            EXPECT_GT(r.crashPointsChecked, 0u);
        }
    }
}

TEST(DiffRun, HandCraftedContentionAgreesUnderBothCcSchemes)
{
    Program p = contendedProgram();
    for (CcMode cc : {CcMode::TwoPhase, CcMode::Tl2}) {
        DiffConfig cfg;
        cfg.ccMode = cc;
        cfg.maxCrashPoints = 8;
        DiffResult r = runDiff(p, cfg);
        EXPECT_TRUE(r.passed) << ccModeName(cc) << ": " << r.detail;
    }
}

TEST(DiffRun, CatchesLostUpdateAndShrinksTheConflict)
{
    // The serializability-oracle self-test: a reader transaction
    // stretched across a writer's commit, run with CC disabled
    // (--inject-lost-update), reads state inconsistent with its
    // position in the durable commit order. The oracle must flag it
    // and the shrinker must keep the conflict while discarding the
    // noise.
    const char *text = "snfprog 2\n"
                       "threads 2\n"
                       "slots 1\n"
                       "shared 1\n"
                       "seed 0\n"
                       "tx 0 commit 0\n"
                       "  sload 0\n"
                       "  store 0 0x1\n"
                       "  store 0 0x2\n"
                       "  store 0 0x3\n"
                       "  store 0 0x4\n"
                       "  store 0 0x5\n"
                       "  store 0 0x6\n"
                       "  sstore 0 0xa1\n"
                       "tx 1 commit 2\n"
                       "  sstore 0 0xb2\n"
                       "end\n";
    Program p;
    std::string err;
    ASSERT_TRUE(parseProgram(text, &p, &err)) << err;

    DiffConfig cfg;
    cfg.injectLostUpdate = true;
    cfg.crashDifferential = false; // the reads check is the point
    DiffResult r = runDiff(p, cfg);
    ASSERT_FALSE(r.passed) << "lost update must be detected";
    EXPECT_NE(r.detail.find("loaded"), std::string::npos)
        << r.detail;

    ShrinkStats stats;
    Program minimal = shrinkProgram(
        p,
        [&](const Program &cand) {
            return !runDiff(cand, cfg).passed;
        },
        ShrinkOptions{}, &stats);
    EXPECT_FALSE(runDiff(minimal, cfg).passed);
    EXPECT_TRUE(minimal.hasConflicts())
        << "the shared-slot conflict is the bug; it must survive";
    EXPECT_LE(minimal.operationCount(), 10u)
        << "shrink left " << minimal.operationCount()
        << " operations after " << stats.evals << " evaluations";

    // Under real concurrency control the same program is clean.
    for (CcMode cc : {CcMode::TwoPhase, CcMode::Tl2}) {
        DiffConfig clean;
        clean.ccMode = cc;
        clean.crashDifferential = false;
        DiffResult ok = runDiff(p, clean);
        EXPECT_TRUE(ok.passed) << ccModeName(cc) << ": "
                               << ok.detail;
    }
}

// --------------------------- shrinker ----------------------------

TEST(Shrink, ReducesToTheCulpritTransaction)
{
    // Predicate: "fails" iff the program still stores 0x666 on
    // thread 0. Everything else must be stripped.
    Program p = generateProgram(5);
    p.txs.push_back({0, false, 17, {{0, 0x666}, {1, 0x42}}});
    auto hasPoison = [](const Program &cand) {
        for (const ProgTx &tx : cand.txs)
            for (const ProgOp &op : tx.ops)
                if (op.value == 0x666)
                    return true;
        return false;
    };
    ShrinkStats stats;
    Program minimal = shrinkProgram(p, hasPoison, ShrinkOptions{},
                                    &stats);
    EXPECT_TRUE(hasPoison(minimal));
    EXPECT_EQ(minimal.txs.size(), 1u);
    ASSERT_EQ(minimal.txs[0].ops.size(), 1u);
    EXPECT_EQ(minimal.txs[0].ops[0].value, 0x666u);
    EXPECT_EQ(minimal.txs[0].delay, 0u);
    EXPECT_EQ(minimal.threads, 1u);
    EXPECT_EQ(minimal.operationCount(), 3u);
    EXPECT_GT(stats.evals, 0u);
}

TEST(Shrink, HonorsEvaluationBudget)
{
    Program p = generateProgram(6);
    ShrinkOptions opts;
    opts.maxEvals = 3;
    ShrinkStats stats;
    shrinkProgram(
        p, [](const Program &) { return true; }, opts, &stats);
    EXPECT_TRUE(stats.budgetExhausted);
}

// ----------------------- workload adapter ------------------------

TEST(ProgWorkload, RunsUnderDriverInBothBackends)
{
    for (PersistMode mode :
         {PersistMode::Fwb, PersistMode::UndoClwb}) {
        workloads::RunSpec spec;
        spec.workload = "prog";
        spec.mode = mode;
        spec.params.threads = 2;
        spec.params.seed = 12;
        spec.sys = SystemConfig::scaled(2);
        auto o = workloads::runWorkload(spec);
        EXPECT_TRUE(o.verified)
            << persistModeName(mode) << ": " << o.verifyMessage;
        EXPECT_GT(o.stats.committedTx, 0u);
    }
}

TEST(ProgWorkload, ContendedProgramsRunUnderBothCcSchemes)
{
    for (CcMode cc : {CcMode::TwoPhase, CcMode::Tl2}) {
        std::uint64_t committed = 0;
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            workloads::RunSpec spec;
            spec.workload = "prog";
            spec.mode = PersistMode::Fwb;
            spec.params.threads = 2;
            spec.params.seed = seed;
            spec.params.conflictRate = 0.6;
            spec.sys = SystemConfig::scaled(2);
            spec.sys.persist.ccMode = cc;
            auto o = workloads::runWorkload(spec);
            EXPECT_TRUE(o.verified) << ccModeName(cc) << " seed "
                                    << seed << ": "
                                    << o.verifyMessage;
            committed += o.stats.committedTx;
        }
        EXPECT_GT(committed, 0u) << ccModeName(cc);
    }
}

TEST(ProgWorkload, CrashRecoverVerifyRoundTrip)
{
    workloads::RunSpec spec;
    spec.workload = "prog";
    spec.mode = PersistMode::Fwb;
    spec.params.threads = 2;
    spec.params.seed = 12;
    spec.sys = SystemConfig::scaled(2);
    spec.sys.persist.crashJournal = true;
    spec.crashAt = 4000;
    auto o = workloads::runWorkload(spec);
    EXPECT_TRUE(o.crashed);
    EXPECT_TRUE(o.verified) << o.verifyMessage;
}
