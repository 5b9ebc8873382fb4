/**
 * @file
 * reorderlab — the persist-ordering adversary.
 *
 * The plain crash sweep tests exactly one image per crash tick: the
 * linear prefix of writes that *completed* by then
 * (BackingStore::snapshotAt). Real NVM at power failure exposes any
 * state consistent with the ordering the hardware actually enforces
 * over the writes still in flight — a strictly larger space, and the
 * one the paper's whole correctness argument (log persists before
 * data) lives in.
 *
 * The in-flight persist set at tick t is recovered from the NVRAM
 * write journal: a write is *pending* iff it was accepted onto the
 * channel but not yet ADR-durable (issue <= t < done). The enforced
 * ordering edges between two pending writes are:
 *
 *  1. Serialized priority channel: log-buffer drains, WCB flushes and
 *     device metadata share one FIFO acceptance queue at the memory
 *     controller, so any two pending non-Data writes land in
 *     completion order.
 *  2. Same-bytes serialization: overlapping byte ranges land in
 *     completion order (the bank writes a cell once per pass).
 *  3. Nothing else: independent dirty-data lines are unordered with
 *     respect to each other and to disjoint log traffic. Fences and
 *     drain barriers never appear as edges because they separate
 *     *issue after done* — a barrier-ordered pair is simply never
 *     concurrently pending.
 *
 * A legal crash image is then the prefix snapshot plus any order
 * ideal (downward-closed subset under those edges) of the pending
 * set, optionally with its last element torn at an 8-byte boundary.
 * planReorderImages() enumerates those ideals exhaustively when the
 * pending set is small and samples seeded random linearization cuts
 * otherwise; every image flows through the same invariant library and
 * faultlab injection as the prefix image.
 */

#ifndef SNF_CRASHLAB_REORDER_HH
#define SNF_CRASHLAB_REORDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/backing_store.hh"
#include "sim/types.hh"

namespace snf::crashlab
{

/** One in-flight (issued, not yet durable) NVRAM write. */
struct PendingPersist
{
    Tick issue = 0;
    Tick done = 0;
    Addr addr = 0;
    std::uint32_t size = 0;
    PersistOrigin origin = PersistOrigin::Data;
    /** Journal issue-order index (the snapshot replay tiebreak). */
    std::uint32_t seq = 0;
    std::vector<std::uint8_t> data;
};

/** Adversary knobs (SweepConfig::reorder, snfcrash --reorder). */
struct ReorderConfig
{
    bool enabled = false;
    /**
     * Largest exhaustiveBound that enumerates: the ideals of n pending
     * persists are walked as 32-bit masks, 2^n of them, so a larger
     * bound samples instead.
     */
    static constexpr std::size_t kMaxExhaustiveBound = 19;
    /** Enumerate every order ideal when pending <= this bound. */
    std::size_t exhaustiveBound = 6;
    /** Sampled linearization cuts above the bound. */
    std::size_t samples = 32;
    /** Also tear each image's last pending line at 8B boundaries. */
    bool tornLines = true;
    /** Seed of the sampled-orderings stream (mixed with the tick). */
    std::uint64_t seed = 1;
    /** Hard cap on images per crash point (subsets + torn). */
    std::size_t maxImagesPerPoint = 256;
};

/**
 * One crash image, as a plan over a pending set: apply @p applied
 * (indices into the canonically (done, seq)-sorted pending vector) in
 * that order, then — if @p tornIndex >= 0 — the first @p tornBytes
 * bytes of pending[tornIndex]. The subset alone determines the final
 * bytes: unordered pending pairs touch disjoint ranges by edge rule
 * 2, so any linearization of the same ideal lands the same image.
 */
struct ReorderImage
{
    std::vector<std::uint32_t> applied;
    std::int32_t tornIndex = -1;
    std::uint32_t tornBytes = 0;

    /** Human-readable ordering description for failure reports. */
    std::string
    describe(const std::vector<PendingPersist> &pending) const;
};

/**
 * Must @p earlier persist before @p later? Both pending, @p earlier
 * preceding @p later in (done, seq) order. Edge rules 1 and 2 above.
 */
bool reorderEdge(const PendingPersist &earlier,
                 const PendingPersist &later);

/**
 * The pending set at @p t, in canonical (done, seq) apply order. One
 * journal scan per call — sweeps over many ticks use PendingCursor.
 */
std::vector<PendingPersist>
pendingPersistsAt(const mem::BackingStore &store, Tick t);

/**
 * Incremental pending-set extraction for monotone tick sequences
 * (the same contract as BackingStore::Cursor): one journal scan per
 * sweep worker instead of one per crash point.
 */
class PendingCursor
{
  public:
    explicit PendingCursor(const mem::BackingStore &store);

    /** Pending set at @p t (>= the previous call's tick). */
    std::vector<PendingPersist> pendingAt(Tick t);

  private:
    /** Pending-capable (issue < done) writes, sorted by issue. */
    std::vector<PendingPersist> all;
    /** Indices into `all` issued but possibly not yet retired. */
    std::vector<std::size_t> live;
    std::size_t pos = 0;
    Tick lastTick = 0;
    bool started = false;
};

/**
 * Enumerate legal crash images of @p pending (canonically sorted, as
 * returned by pendingAt): every non-empty order ideal when
 * |pending| <= cfg.exhaustiveBound, otherwise cfg.samples seeded
 * random linearization cuts (deduplicated); plus torn-line variants
 * when cfg.tornLines. The empty ideal is omitted — it is the prefix
 * image the plain sweep already tests. Capped at
 * cfg.maxImagesPerPoint.
 */
std::vector<ReorderImage>
planReorderImages(const std::vector<PendingPersist> &pending,
                  const ReorderConfig &cfg, Tick tick);

/** Apply one planned image on top of a prefix snapshot. */
void applyReorderImage(mem::BackingStore &image,
                       const std::vector<PendingPersist> &pending,
                       const ReorderImage &plan);

} // namespace snf::crashlab

#endif // SNF_CRASHLAB_REORDER_HH
