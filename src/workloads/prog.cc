#include "workloads/prog.hh"

#include <algorithm>

#include "conformlab/proggen.hh"
#include "sim/logging.hh"

namespace snf::workloads
{

using conformlab::ModelOracle;
using conformlab::ProgOp;
using conformlab::Program;
using conformlab::ProgTx;

namespace
{

/** Abort-retry attempts per transaction before declaring livelock. */
constexpr std::uint32_t kMaxTxAttempts = 200;

} // namespace

ProgWorkload::ProgWorkload(Program p)
    : prog(std::move(p)), fixedProgram(true)
{
}

void
ProgWorkload::setup(System &sys, const WorkloadParams &params)
{
    if (!fixedProgram) {
        conformlab::ProgGenConfig gen;
        gen.threads = params.threads;
        if (params.footprint != 0)
            gen.slotsPerThread =
                static_cast<std::uint32_t>(params.footprint);
        if (params.txPerThread != 0)
            gen.txPerThread =
                static_cast<std::uint32_t>(params.txPerThread);
        gen.conflictRate = params.conflictRate;
        prog = conformlab::generateProgram(params.seed, gen);
    }
    SNF_ASSERT(prog.threads == params.threads,
               "program has %u threads but the run spawns %u",
               prog.threads, params.threads);
    // Deadlock aborts (CC) and TL2 validation failures both resolve
    // through tx_abort's undo rollback; redo-only modes cannot run
    // under a CC scheme.
    SNF_ASSERT(sys.config().persist.ccMode == CcMode::None ||
                   supportsAbort(sys.mode()),
               "ccMode=%s needs rollback but mode %s cannot abort",
               ccModeName(sys.config().persist.ccMode),
               persistModeName(sys.mode()));
    model = std::make_unique<ModelOracle>(prog);
    txSeqs.assign(prog.txs.size(), 0);
    readObs.assign(prog.txs.size(), {});
    for (std::size_t i = 0; i < prog.txs.size(); ++i)
        readObs[i].assign(prog.txs[i].ops.size(), 0);

    base = sys.heap().alloc(
        static_cast<std::uint64_t>(prog.privateSlots()) * 8, 64);
    if (prog.sharedSlots != 0)
        sharedBase = sys.heap().alloc(
            static_cast<std::uint64_t>(prog.sharedSlots) * 64, 64);
    for (std::uint32_t g = 0; g < prog.totalSlots(); ++g)
        sys.heap().prewrite64(slotAddr(g), conformlab::initValue(g));
}

sim::Co<void>
ProgWorkload::thread(System &sys, Thread &t,
                     const WorkloadParams &params)
{
    (void)params;
    // Aborting transactions need undo values to roll back; under the
    // redo-only and non-persistent modes tx_abort() would leave the
    // stolen stores in place, so those transactions are skipped — the
    // oracle's "aborted transactions apply nothing" then still holds.
    bool canAbort = supportsAbort(sys.mode());
    for (std::size_t i = 0; i < prog.txs.size(); ++i) {
        const ProgTx &tx = prog.txs[i];
        if (tx.thread != t.id())
            continue;
        if (tx.aborts && !canAbort)
            continue;
        if (tx.delay != 0)
            co_await t.compute(tx.delay);

        std::uint32_t backoff = 16;
        for (std::uint32_t attempt = 0;; ++attempt) {
            SNF_ASSERT(attempt < kMaxTxAttempts,
                       "tx %zu livelocked after %u abort-retries", i,
                       kMaxTxAttempts);
            co_await t.txBegin();
            txSeqs[i] = t.currentTxSeq();

            bool doomed = false;
            for (std::size_t j = 0;
                 j < tx.ops.size() && !doomed; ++j) {
                const ProgOp &op = tx.ops[j];
                Addr a = slotAddr(prog.globalSlotOf(tx.thread, op));
                if (op.isLoad()) {
                    std::uint64_t v = 0;
                    doomed = !co_await t.txLoad64(a, &v);
                    readObs[i][j] = v;
                } else {
                    doomed = !co_await t.txStore64(a, op.value);
                }
            }

            if (doomed) {
                // Deadlock victim: roll back, back off, retry.
                co_await t.txAbort();
            } else if (tx.aborts) {
                co_await t.txAbort();
                break;
            } else {
                co_await t.txCommit();
                if (!t.lastTxAborted())
                    break;
                // TL2 validation failure.
            }
            co_await t.compute(backoff + t.id());
            backoff = std::min<std::uint32_t>(backoff * 2, 2048);
        }
    }
}

bool
ProgWorkload::verify(const mem::BackingStore &nvram,
                     std::string *why) const
{
    for (std::uint32_t t = 0; t < prog.threads; ++t) {
        std::vector<std::uint64_t> partition(prog.slotsPerThread);
        for (std::uint32_t s = 0; s < prog.slotsPerThread; ++s)
            partition[s] =
                nvram.read64(slotAddr(prog.globalSlot(t, s)));

        std::size_t m = model->committedTxs(t).size();
        bool matched = false;
        for (std::size_t k = 0; k <= m && !matched; ++k)
            matched = partition == model->prefixImage(t, k);
        if (!matched) {
            if (why)
                *why = strfmt("thread %u partition matches no "
                              "committed prefix (0..%zu)",
                              t, m);
            return false;
        }
    }
    for (std::uint32_t s = 0; s < prog.sharedSlots; ++s) {
        std::uint64_t v =
            nvram.read64(slotAddr(prog.sharedGlobalSlot(s)));
        const auto &cands = model->sharedCandidates(s);
        if (std::find(cands.begin(), cands.end(), v) ==
            cands.end()) {
            if (why)
                *why = strfmt("shared slot %u holds 0x%llx, not a "
                              "candidate value of any committed tx",
                              s, static_cast<unsigned long long>(v));
            return false;
        }
    }
    return true;
}

} // namespace snf::workloads
