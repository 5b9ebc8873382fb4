/**
 * @file
 * Sparse byte-accurate backing store for a simulated memory device,
 * with an optional timestamped write journal used to reconstruct the
 * device image as of a simulated crash instant.
 *
 * Snapshot engine (perf): pages live in a two-level copy-on-write
 * page table — a directory of `shared_ptr` leaves, each holding 512
 * `shared_ptr` page refs (2 MB of address space) — so cloning an
 * image is O(leaves) refcount bumps instead of byte copies, a lookup
 * is two array indexes, and a write unshares first its leaf, then its
 * page. A write that changes no bytes leaves the table untouched (no
 * allocation, no clone), so replaying values an image already holds
 * keeps it sharing every page with its parent. Journal payloads live
 * in one byte arena, so journaling a write allocates only when the
 * record table or the arena grows. The monotone Cursor replays the
 * journal from its base image in completion-tick order; a crash
 * sweep walks one cursor in ascending tick order, so its whole walk
 * costs one journal replay, and snapshotAt(t) is a fresh cursor's
 * imageAt(t).
 */

#ifndef SNF_MEM_BACKING_STORE_HH
#define SNF_MEM_BACKING_STORE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "sim/types.hh"

namespace snf::mem
{

/**
 * Byte storage for a [base, base+size) physical range. Pages are
 * allocated lazily and zero-filled; a write that leaves every byte as
 * it was (zeros over an absent page included) changes nothing, not
 * even page residency or sharing. When journaling is enabled, every
 * write is recorded with its completion tick — no-op writes too — so
 * snapshotAt() can rebuild the exact persistent image at any earlier
 * tick.
 *
 * Thread safety: concurrent const use (snapshotAt, read,
 * firstDifference, Cursor) on a quiescent store is safe — the lazy
 * snapshot index is built once under an internal lock, and page
 * sharing is via atomic shared_ptr refcounts. Mutation requires
 * exclusive access, as before.
 */
class BackingStore
{
  public:
    BackingStore(Addr base, std::uint64_t size);

    BackingStore(const BackingStore &other);
    BackingStore(BackingStore &&other) noexcept;
    BackingStore &operator=(const BackingStore &other);
    BackingStore &operator=(BackingStore &&other) noexcept;

    /** Read @p size bytes at @p addr into @p out. */
    void read(Addr addr, std::uint64_t size, void *out) const;

    /**
     * Write @p size bytes. @p doneTick is the simulated completion
     * time, recorded if journaling is on. @p issueTick is the tick the
     * write was accepted onto the NVRAM channel and @p origin who
     * issued it; together they let crash tooling recover the pending
     * set (issue <= t < done) at any crash tick. The default
     * issueTick (kTickNever) means "issue == done": the write is
     * never pending, which is correct for functional/zero-time writes
     * and keeps every legacy call site inert under reorder sweeps.
     */
    void write(Addr addr, std::uint64_t size, const void *in,
               Tick doneTick = 0, Tick issueTick = kTickNever,
               PersistOrigin origin = PersistOrigin::Functional);

    /** Convenience 64-bit accessors. */
    std::uint64_t read64(Addr addr) const;
    void write64(Addr addr, std::uint64_t v, Tick doneTick = 0);

    /** One word of a batch: the low @p size (1..8) bytes of @p value. */
    struct Word
    {
        Addr addr;
        std::uint64_t value;
        std::uint32_t size;
    };

    /**
     * Apply @p words in order, leaving the bytes a loop of
     * write(w.addr, w.size, &w.value) leaves. The page is looked up
     * once per run of same-page words and unshared at the first word
     * of the run that changes a byte. A journaled store writes word
     * by word, so its journal matches that loop too.
     */
    void writeWords(std::span<const Word> words);

    /**
     * Zero [addr, addr+size), leaving the bytes write() of zeros
     * leaves. Pages the range covers whole are released (an absent
     * page reads as zero), so a page shared with a sibling image is
     * dropped instead of cloned; a partial page is zeroed in place
     * only if it holds a nonzero byte. A journaled store journals one
     * write() of zeros and releases nothing.
     */
    void zeroRange(Addr addr, std::uint64_t size);

    /**
     * Sparse read view: pointer to the resident bytes at @p addr, or
     * nullptr when the covering page was never written (the range
     * reads as zero). @p avail receives the number of contiguous
     * bytes from @p addr to the end of that page and of the store
     * range — the extent of the returned pointer's validity, or, for
     * nullptr, the extent known to read as zero. Bulk scanners (the
     * recovery slot scan) use this to skip untouched pages without
     * copying them.
     */
    const std::uint8_t *pageAt(Addr addr, std::uint64_t *avail) const;

    /**
     * Start journaling writes. Clones the current image as the
     * snapshot base; prior contents are the tick-0 state.
     */
    void enableJournal();

    bool journalEnabled() const { return journalOn; }

    /** Number of journal records accumulated so far. */
    std::size_t journalSize() const { return journal.size(); }

    /**
     * Sort the journal into completion-tick order now (otherwise the
     * first snapshotAt/Cursor does it). Exposed so sweeps can time the
     * sort as its own phase.
     */
    void buildSnapshotIndex() const { ensureIndex(); }

    /** Journal entries replayed by snapshots/cursors so far. */
    std::uint64_t entriesReplayed() const { return statReplayed; }

    /** Pages cloned by copy-on-write so far. */
    std::uint64_t pagesCloned() const { return statCloned; }

    /**
     * Reconstruct the device image as of @p tick: the journal-base
     * image plus every journaled write with doneTick <= @p tick,
     * applied in completion-tick order (the bus serializes by
     * completion, not by issue). Requires enableJournal(). The
     * returned image shares unmodified pages with the journal base
     * (copy-on-write); the call replays every entry up to @p tick,
     * through a fresh Cursor.
     */
    BackingStore snapshotAt(Tick tick) const;

    /**
     * Incremental snapshot construction for monotone tick sequences.
     * imageAt(t) advances an internal image by exactly the journal
     * delta since the previous call and returns a COW copy, so a
     * whole ascending sweep costs one journal replay total. Ticks
     * must be non-decreasing across calls. The source store must
     * outlive the cursor and stay unmodified while it is used.
     */
    class Cursor
    {
      public:
        explicit Cursor(const BackingStore &source);
        ~Cursor();

        Cursor(const Cursor &) = delete;
        Cursor &operator=(const Cursor &) = delete;

        /** The image as of @p t (>= the previous call's tick). */
        BackingStore imageAt(Tick t);

      private:
        const BackingStore *src;
        /** Working image (pointer: BackingStore is incomplete here). */
        std::unique_ptr<BackingStore> image;
        std::size_t pos = 0; ///< sorted journal entries applied
        Tick lastTick = 0;
        bool started = false;
    };

    /**
     * Replace this store's contents with @p other's (same range
     * required). If journaling is on, the adopted image becomes the
     * new journal base and the journal restarts empty — used by the
     * lifecycle driver to resume a system on a recovered image while
     * keeping crash snapshots of the new generation possible.
     */
    void assignFrom(const BackingStore &other);

    /**
     * Read-only view of one journaled write, including the persist
     * metadata reorderlab needs. @p data points into the journal and
     * is valid while the store is alive and unmodified. @p seq is the
     * journal issue-order index (the snapshot replay tiebreak).
     */
    struct JournalRecord
    {
        Tick issue;
        Tick done;
        Addr addr;
        std::uint32_t size;
        PersistOrigin origin;
        std::uint32_t seq;
        const std::uint8_t *data;
    };

    /** Visit every journaled write in issue (append) order. */
    void forEachJournalRecord(
        const std::function<void(const JournalRecord &)> &fn) const;

    /**
     * Lowest address in [from, from+size) at which this store and
     * @p other differ (absent pages compare as zero), or nullopt if
     * the ranges are byte-identical. Both stores must cover the
     * range. Walks both page tables in address order and skips
     * leaves and pages the two stores share or both lack (COW
     * siblings diff only where they actually diverged), so sparse
     * images stay cheap.
     */
    std::optional<Addr> firstDifference(const BackingStore &other,
                                        Addr from,
                                        std::uint64_t size) const;

    Addr base() const { return rangeBase; }

    std::uint64_t size() const { return rangeSize; }

    bool
    contains(Addr addr, std::uint64_t sz) const
    {
        return addr >= rangeBase && addr + sz <= rangeBase + rangeSize;
    }

  private:
    static constexpr std::uint64_t kPageBytes = 4096;
    /** Page refs per page-table leaf: 2 MB of address space. */
    static constexpr std::uint64_t kLeafPages = 512;

    struct Page
    {
        std::uint8_t bytes[kPageBytes];
    };
    using PageRef = std::shared_ptr<Page>;

    struct Leaf
    {
        PageRef page[kLeafPages]; ///< null = page never written
    };
    using LeafRef = std::shared_ptr<Leaf>;

    /**
     * Two-level copy-on-write page table: entry i covers pages
     * [i*kLeafPages, (i+1)*kLeafPages) of the range, null when none of
     * them was ever written. It grows only to the highest leaf
     * touched. Copying one is a refcount bump per leaf; leaves and
     * pages are shared until a write unshares them.
     */
    using PageTable = std::vector<LeafRef>;

    /** The all-zero page an absent page reads as. */
    static const Page kZeroPage;

    /** One journaled write; its bytes are journalBytes[off, off+len). */
    struct JournalEntry
    {
        Tick done;
        /** Channel-acceptance tick; == done for non-pending writes. */
        Tick issue;
        Addr addr;
        std::uint64_t off;
        std::uint32_t len;
        PersistOrigin origin;
    };

    const Page *pagePtr(std::uint64_t pageIdx) const;
    std::uint8_t *pagePtrMut(std::uint64_t pageIdx);

    void rawWrite(Addr addr, std::uint64_t size, const void *in);

    void copyFrom(const BackingStore &other);
    void moveFrom(BackingStore &&other) noexcept;
    void invalidateIndex();
    void ensureIndex() const;

    Addr rangeBase;
    std::uint64_t rangeSize;
    PageTable pages;

    bool journalOn = false;
    PageTable journalBase;
    std::vector<JournalEntry> journal;
    /** Every journaled payload, in issue order. */
    std::vector<std::uint8_t> journalBytes;

    /**
     * Journal indices sorted by (doneTick, issue order), built lazily
     * under indexMutex; current while it is as long as the journal.
     */
    mutable std::mutex indexMutex;
    mutable std::vector<std::uint32_t> sortedIdx;

    mutable std::atomic<std::uint64_t> statReplayed{0};
    mutable std::atomic<std::uint64_t> statCloned{0};
};

} // namespace snf::mem

#endif // SNF_MEM_BACKING_STORE_HH
