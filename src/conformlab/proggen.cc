#include "conformlab/proggen.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace snf::conformlab
{

namespace
{

/** Child-stream ids under the program seed (stable API surface). */
enum Stream : std::uint64_t
{
    kShape = 0,   ///< threads, slots, tx counts, abort/skew picks
    kAddress = 1, ///< slot selection
    kValue = 2,   ///< store values
    kDelay = 3,   ///< scheduler-jitter compute delays
    kOrder = 4,   ///< cross-thread interleaving of the tx list
    kConflict = 5, ///< shared-region sizing and per-op targeting
    kOpKind = 6,  ///< load-vs-store pick per op
};

constexpr std::uint32_t kMaxThreads = 3;
constexpr std::uint32_t kMinSlotsPerThread = 4;
constexpr std::uint32_t kMaxSlotsPerThread = 24;
constexpr std::uint32_t kMaxOpsPerTx = 6;
/** Probability a transaction ends with tx_abort(). */
constexpr double kAbortRate = 0.15;
/** Probability the seed selects Zipf-skewed slot addressing (hot-slot
 *  contention within the partition) instead of uniform. */
constexpr double kSkewRate = 0.5;
constexpr double kSkewTheta = 0.8;
/** Max compute-jitter ticks before a transaction (interleaving). */
constexpr std::uint32_t kMaxDelay = 40;
constexpr std::uint32_t kMinSharedSlots = 2;
constexpr std::uint32_t kMaxSharedSlots = 8;

} // namespace

Program
generateProgram(std::uint64_t seed, const ProgGenConfig &cfg)
{
    sim::Rng root(seed);
    sim::Rng shape = root.split(kShape);
    sim::Rng address = root.split(kAddress);
    sim::Rng value = root.split(kValue);
    sim::Rng delay = root.split(kDelay);
    sim::Rng order = root.split(kOrder);
    sim::Rng conflict = root.split(kConflict);
    sim::Rng opKind = root.split(kOpKind);

    Program p;
    p.seed = seed;
    p.threads = cfg.threads != 0
                    ? cfg.threads
                    : static_cast<std::uint32_t>(
                          shape.range(1, kMaxThreads));
    p.slotsPerThread =
        cfg.slotsPerThread != 0
            ? cfg.slotsPerThread
            : static_cast<std::uint32_t>(shape.range(
                  kMinSlotsPerThread, kMaxSlotsPerThread));

    bool conflicts = cfg.conflictRate > 0.0;
    if (conflicts)
        p.sharedSlots = static_cast<std::uint32_t>(
            conflict.range(kMinSharedSlots, kMaxSharedSlots));

    bool skewed = shape.chance(kSkewRate) && p.slotsPerThread > 1;
    sim::Zipf zipf(p.slotsPerThread,
                   skewed ? kSkewTheta : 0.5 /* unused */);

    // Per-thread transaction counts, then an interleaved global
    // order: repeatedly pick a random thread that still has
    // transactions left. The per-thread subsequences are the program
    // semantics; the global order only styles the repro file.
    std::vector<std::uint32_t> remaining(p.threads);
    std::size_t total = 0;
    for (std::uint32_t t = 0; t < p.threads; ++t) {
        remaining[t] = static_cast<std::uint32_t>(
            shape.range(1, std::max<std::uint32_t>(
                               1, 2 * cfg.txPerThread)));
        total += remaining[t];
    }

    for (std::size_t n = 0; n < total; ++n) {
        std::uint32_t t;
        do {
            t = static_cast<std::uint32_t>(order.below(p.threads));
        } while (remaining[t] == 0);
        --remaining[t];

        ProgTx tx;
        tx.thread = t;
        tx.aborts = shape.chance(kAbortRate);
        tx.delay = static_cast<std::uint32_t>(delay.below(kMaxDelay + 1));
        std::uint32_t ops =
            static_cast<std::uint32_t>(shape.range(1, kMaxOpsPerTx));
        for (std::uint32_t s = 0; s < ops; ++s) {
            ProgOp op;
            bool shared =
                conflicts && conflict.chance(cfg.conflictRate);
            bool isLoad =
                conflicts && opKind.chance(cfg.loadRate);
            if (shared) {
                op.slot = static_cast<std::uint32_t>(
                    conflict.below(p.sharedSlots));
                op.kind = isLoad ? ProgOpKind::SharedLoad
                                 : ProgOpKind::SharedStore;
            } else {
                op.slot = static_cast<std::uint32_t>(
                    skewed ? zipf.sample(address)
                           : address.below(p.slotsPerThread));
                op.kind = isLoad ? ProgOpKind::Load
                                 : ProgOpKind::Store;
            }
            if (!isLoad)
                op.value = value.next();
            tx.ops.push_back(op);
        }
        p.txs.push_back(tx);
    }
    return p;
}

} // namespace snf::conformlab
