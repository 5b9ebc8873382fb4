#include "mem/backing_store.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace snf::mem
{

// --- construction / copying ------------------------------------------

BackingStore::BackingStore(Addr base, std::uint64_t size)
    : rangeBase(base), rangeSize(size)
{
}

void
BackingStore::copyFrom(const BackingStore &other)
{
    rangeBase = other.rangeBase;
    rangeSize = other.rangeSize;
    pages = other.pages;
    journalOn = other.journalOn;
    journalBase = other.journalBase;
    journal = other.journal;
    journalBytes = other.journalBytes;
    sortedIdx = other.sortedIdx;
    statReplayed = other.statReplayed.load();
    statCloned = other.statCloned.load();
}

void
BackingStore::moveFrom(BackingStore &&other) noexcept
{
    rangeBase = other.rangeBase;
    rangeSize = other.rangeSize;
    pages = std::move(other.pages);
    journalOn = other.journalOn;
    journalBase = std::move(other.journalBase);
    journal = std::move(other.journal);
    journalBytes = std::move(other.journalBytes);
    sortedIdx = std::move(other.sortedIdx);
    statReplayed = other.statReplayed.load();
    statCloned = other.statCloned.load();
}

BackingStore::BackingStore(const BackingStore &other)
{
    copyFrom(other);
}

BackingStore::BackingStore(BackingStore &&other) noexcept
{
    moveFrom(std::move(other));
}

BackingStore &
BackingStore::operator=(const BackingStore &other)
{
    if (this != &other)
        copyFrom(other);
    return *this;
}

BackingStore &
BackingStore::operator=(BackingStore &&other) noexcept
{
    if (this != &other)
        moveFrom(std::move(other));
    return *this;
}

// --- page access (copy-on-write) -------------------------------------

const BackingStore::Page BackingStore::kZeroPage{};

const BackingStore::Page *
BackingStore::pagePtr(std::uint64_t pageIdx) const
{
    const std::uint64_t leaf = pageIdx / kLeafPages;
    if (leaf >= pages.size() || !pages[leaf])
        return nullptr;
    return pages[leaf]->page[pageIdx % kLeafPages].get();
}

std::uint8_t *
BackingStore::pagePtrMut(std::uint64_t pageIdx)
{
    // Shared with a snapshot, the journal base or a sibling image:
    // unshare the leaf, then the page, before the first write diverges
    // us from them. Cloning a leaf adds a ref to each of its pages, so
    // the page step below then clones the written page too.
    const std::uint64_t leaf = pageIdx / kLeafPages;
    if (leaf >= pages.size())
        pages.resize(leaf + 1);
    LeafRef &lref = pages[leaf];
    if (!lref)
        lref = std::make_shared<Leaf>(); // value-initialized: all null
    else if (lref.use_count() > 1)
        lref = std::make_shared<Leaf>(*lref);
    PageRef &ref = lref->page[pageIdx % kLeafPages];
    if (!ref) {
        ref = std::make_shared<Page>(); // value-initialized: zeroed
    } else if (ref.use_count() > 1) {
        ref = std::make_shared<Page>(*ref);
        // Mutation is exclusive, so a plain load and store count the
        // clone; a locked add would also fence the 4 KB copy above.
        statCloned.store(statCloned.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
    }
    return ref->bytes;
}

void
BackingStore::read(Addr addr, std::uint64_t size, void *out) const
{
    SNF_ASSERT(contains(addr, size),
               "read [%llx,+%llu) outside store range",
               static_cast<unsigned long long>(addr),
               static_cast<unsigned long long>(size));
    auto *dst = static_cast<std::uint8_t *>(out);
    std::uint64_t off = addr - rangeBase;
    while (size > 0) {
        std::uint64_t page = off / kPageBytes;
        std::uint64_t in_page = off % kPageBytes;
        std::uint64_t n = std::min(size, kPageBytes - in_page);
        const Page *src = pagePtr(page);
        if (src)
            std::memcpy(dst, src->bytes + in_page, n);
        else
            std::memset(dst, 0, n);
        dst += n;
        off += n;
        size -= n;
    }
}

const std::uint8_t *
BackingStore::pageAt(Addr addr, std::uint64_t *avail) const
{
    SNF_ASSERT(contains(addr, 1),
               "pageAt %llx outside store range",
               static_cast<unsigned long long>(addr));
    const std::uint64_t off = addr - rangeBase;
    const std::uint64_t inPage = off % kPageBytes;
    *avail = std::min(kPageBytes - inPage, rangeSize - off);
    const Page *p = pagePtr(off / kPageBytes);
    return p ? p->bytes + inPage : nullptr;
}

void
BackingStore::rawWrite(Addr addr, std::uint64_t size, const void *in)
{
    const auto *src = static_cast<const std::uint8_t *>(in);
    std::uint64_t off = addr - rangeBase;
    // A write that changes no bytes is the identity on the image
    // (absent pages read as zero), so it must not allocate or clone:
    // zeroing absent pages (log truncation) keeps the store sparse for
    // the sparse scans, and replaying values an image already holds
    // (a second recovery pass) keeps its pages shared, so
    // firstDifference skips them by pointer.
    if (size == sizeof(std::uint64_t) &&
        off % kPageBytes <= kPageBytes - sizeof(std::uint64_t)) {
        // One word inside one page (replayed log values, word stores):
        // compare and store as one 64-bit value, no library calls.
        std::uint64_t v = 0;
        std::uint64_t old = 0;
        std::memcpy(&v, src, sizeof(v));
        const std::uint64_t page = off / kPageBytes;
        if (const Page *cur = pagePtr(page))
            std::memcpy(&old, cur->bytes + off % kPageBytes, sizeof(old));
        if (v != old)
            std::memcpy(pagePtrMut(page) + off % kPageBytes, &v,
                        sizeof(v));
        return;
    }
    while (size > 0) {
        std::uint64_t page = off / kPageBytes;
        std::uint64_t in_page = off % kPageBytes;
        std::uint64_t n = std::min(size, kPageBytes - in_page);
        const Page *cur = pagePtr(page);
        if (std::memcmp(src, (cur ? cur : &kZeroPage)->bytes + in_page,
                        n) != 0)
            std::memcpy(pagePtrMut(page) + in_page, src, n);
        src += n;
        off += n;
        size -= n;
    }
}

void
BackingStore::write(Addr addr, std::uint64_t size, const void *in,
                    Tick doneTick, Tick issueTick, PersistOrigin origin)
{
    SNF_ASSERT(contains(addr, size),
               "write [%llx,+%llu) outside store range",
               static_cast<unsigned long long>(addr),
               static_cast<unsigned long long>(size));
    rawWrite(addr, size, in);
    if (journalOn) {
        SNF_ASSERT(size <= ~std::uint32_t{0}, "journal write of %llu bytes",
                   static_cast<unsigned long long>(size));
        // Default issue == done: the write is never observed as
        // pending, so untimed call sites stay inert under reorder.
        Tick issue = issueTick == kTickNever ? doneTick
                                             : std::min(issueTick, doneTick);
        journal.push_back({doneTick, issue, addr, journalBytes.size(),
                           static_cast<std::uint32_t>(size), origin});
        const auto *src = static_cast<const std::uint8_t *>(in);
        journalBytes.insert(journalBytes.end(), src, src + size);
    }
}

std::uint64_t
BackingStore::read64(Addr addr) const
{
    std::uint64_t v = 0;
    // Fast path: an in-range word that does not straddle a page is
    // one page-table lookup + one 8-byte copy; the generic loop
    // handles the page-straddling and out-of-range (assert) cases.
    const std::uint64_t off = addr - rangeBase;
    if (addr >= rangeBase && off + sizeof(v) <= rangeSize &&
        off % kPageBytes <= kPageBytes - sizeof(v)) {
        if (const Page *src = pagePtr(off / kPageBytes))
            std::memcpy(&v, src->bytes + off % kPageBytes, sizeof(v));
        return v;
    }
    read(addr, sizeof(v), &v);
    return v;
}

void
BackingStore::write64(Addr addr, std::uint64_t v, Tick doneTick)
{
    write(addr, sizeof(v), &v, doneTick);
}

void
BackingStore::writeWords(std::span<const Word> words)
{
    if (journalOn) {
        for (const Word &w : words)
            write(w.addr, w.size, &w.value);
        return;
    }
    // The run cursor: the page the previous word hit, read in place
    // until a word changes one of its bytes, then its private copy.
    // Nothing else touches the page table while a run lasts, so the
    // pointers stay valid until the run ends; they never outlive
    // this call (a copied store shares these pages).
    std::uint64_t runPage = ~0ULL;
    const std::uint8_t *cur = nullptr; ///< null: absent, reads as zero
    std::uint8_t *mut = nullptr;
    for (const Word &w : words) {
        SNF_ASSERT(w.size >= 1 && w.size <= sizeof(w.value) &&
                       contains(w.addr, w.size),
                   "word write [%llx,+%u) outside store range",
                   static_cast<unsigned long long>(w.addr), w.size);
        const std::uint64_t off = w.addr - rangeBase;
        const std::uint64_t inPage = off % kPageBytes;
        if (inPage + w.size > kPageBytes) {
            // Straddles two pages: the generic path, which may
            // unshare the run's page too.
            rawWrite(w.addr, w.size, &w.value);
            runPage = ~0ULL;
            continue;
        }
        const std::uint64_t page = off / kPageBytes;
        if (page != runPage) {
            const Page *p = pagePtr(page);
            runPage = page;
            cur = p ? p->bytes : nullptr;
            mut = nullptr;
        }
        // A full word compares as one value, like rawWrite's fast
        // path; a shorter one against the bytes it would replace.
        if (w.size == sizeof(std::uint64_t)) {
            std::uint64_t old = 0;
            if (cur)
                std::memcpy(&old, cur + inPage, sizeof(old));
            if (old == w.value)
                continue;
        } else if (std::memcmp(&w.value,
                               (cur ? cur : kZeroPage.bytes) + inPage,
                               w.size) == 0) {
            continue;
        }
        if (!mut)
            cur = mut = pagePtrMut(page);
        std::memcpy(mut + inPage, &w.value, w.size);
    }
}

void
BackingStore::zeroRange(Addr addr, std::uint64_t size)
{
    SNF_ASSERT(contains(addr, size),
               "zero [%llx,+%llu) outside store range",
               static_cast<unsigned long long>(addr),
               static_cast<unsigned long long>(size));
    if (journalOn) {
        const std::vector<std::uint8_t> zeros(size);
        write(addr, size, zeros.data());
        return;
    }
    std::uint64_t off = addr - rangeBase;
    while (size > 0) {
        const std::uint64_t page = off / kPageBytes;
        const std::uint64_t inPage = off % kPageBytes;
        const std::uint64_t n = std::min(size, kPageBytes - inPage);
        if (n == kPageBytes) {
            // A whole page: drop its ref. A leaf shared with a sibling
            // image is unshared first, so the sibling keeps the page.
            if (pagePtr(page)) {
                LeafRef &lref = pages[page / kLeafPages];
                if (lref.use_count() > 1)
                    lref = std::make_shared<Leaf>(*lref);
                lref->page[page % kLeafPages].reset();
            }
        } else if (const Page *cur = pagePtr(page);
                   cur && std::memcmp(cur->bytes + inPage,
                                      kZeroPage.bytes, n) != 0) {
            std::memset(pagePtrMut(page) + inPage, 0, n);
        }
        off += n;
        size -= n;
    }
}

// --- journal / snapshot index ----------------------------------------

void
BackingStore::enableJournal()
{
    SNF_ASSERT(!journalOn, "journal already enabled");
    journalOn = true;
    journalBase = pages; // COW share: O(leaves) refcount bumps
    journal.clear();
    journalBytes.clear();
    invalidateIndex();
}

void
BackingStore::invalidateIndex()
{
    std::lock_guard<std::mutex> guard(indexMutex);
    sortedIdx.clear();
}

void
BackingStore::ensureIndex() const
{
    std::lock_guard<std::mutex> guard(indexMutex);
    if (sortedIdx.size() == journal.size())
        return;

    // Writes are journaled in issue order but can complete out of
    // order (bank conflicts, read priority); at the crash instant the
    // device holds the value of the *latest-completing* write, so
    // replay order is (completion tick, issue order) — the index
    // tiebreak makes the sort stable.
    sortedIdx.resize(journal.size());
    for (std::uint32_t i = 0; i < sortedIdx.size(); ++i)
        sortedIdx[i] = i;
    std::sort(sortedIdx.begin(), sortedIdx.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  if (journal[a].done != journal[b].done)
                      return journal[a].done < journal[b].done;
                  return a < b;
              });
}

BackingStore
BackingStore::snapshotAt(Tick tick) const
{
    SNF_ASSERT(journalOn, "snapshotAt without journaling");
    return Cursor(*this).imageAt(tick);
}

// --- monotone cursor --------------------------------------------------

BackingStore::Cursor::Cursor(const BackingStore &source)
    : src(&source),
      image(std::make_unique<BackingStore>(source.rangeBase,
                                           source.rangeSize))
{
    SNF_ASSERT(source.journalOn, "Cursor without journaling");
    source.ensureIndex();
    image->pages = source.journalBase;
}

BackingStore::Cursor::~Cursor() = default;

BackingStore
BackingStore::Cursor::imageAt(Tick t)
{
    SNF_ASSERT(!started || t >= lastTick,
               "Cursor ticks must be non-decreasing (%llu after %llu)",
               static_cast<unsigned long long>(t),
               static_cast<unsigned long long>(lastTick));
    started = true;
    lastTick = t;

    // The one loop that applies journal entries to an image.
    std::uint64_t replayed = 0;
    while (pos < src->sortedIdx.size()) {
        const JournalEntry &e = src->journal[src->sortedIdx[pos]];
        if (e.done > t)
            break;
        image->rawWrite(e.addr, e.len, src->journalBytes.data() + e.off);
        ++pos;
        ++replayed;
    }
    src->statReplayed.fetch_add(replayed, std::memory_order_relaxed);
    src->statCloned.fetch_add(image->statCloned.load(),
                              std::memory_order_relaxed);
    image->statCloned = 0;
    return *image; // COW copy: O(leaves) refcount bumps
}

// --- whole-image operations ------------------------------------------

void
BackingStore::assignFrom(const BackingStore &other)
{
    SNF_ASSERT(rangeBase == other.rangeBase &&
                   rangeSize == other.rangeSize,
               "assignFrom with mismatched store geometry");
    pages = other.pages; // COW share
    if (journalOn) {
        journalBase = pages;
        journal.clear();
        journalBytes.clear();
        invalidateIndex();
    }
}

void
BackingStore::forEachJournalRecord(
    const std::function<void(const JournalRecord &)> &fn) const
{
    for (std::uint32_t i = 0; i < journal.size(); ++i) {
        const JournalEntry &e = journal[i];
        fn(JournalRecord{e.issue, e.done, e.addr, e.len, e.origin, i,
                         journalBytes.data() + e.off});
    }
}

std::optional<Addr>
BackingStore::firstDifference(const BackingStore &other, Addr from,
                              std::uint64_t size) const
{
    SNF_ASSERT(rangeBase == other.rangeBase,
               "firstDifference needs equal store bases");
    SNF_ASSERT(contains(from, size) && other.contains(from, size),
               "firstDifference range outside store");
    const std::uint64_t lo = from - rangeBase; // byte offsets [lo, hi)
    const std::uint64_t hi = lo + size;
    const std::uint64_t first_page = lo / kPageBytes;
    const std::uint64_t end_page = (hi + kPageBytes - 1) / kPageBytes;
    // Walk both tables in address order. Only leaves and pages the two
    // stores neither share nor both lack can differ (absent pages read
    // as zero), so the range can be gigabytes while the walk touches a
    // few leaves and the pages that actually diverged.
    const std::uint64_t end_leaf = std::min<std::uint64_t>(
        (end_page + kLeafPages - 1) / kLeafPages,
        std::max(pages.size(), other.pages.size()));
    for (std::uint64_t l = first_page / kLeafPages; l < end_leaf; ++l) {
        const Leaf *la = l < pages.size() ? pages[l].get() : nullptr;
        const Leaf *lb =
            l < other.pages.size() ? other.pages[l].get() : nullptr;
        if (la == lb) // both absent, or one COW-shared leaf
            continue;
        const std::uint64_t p_end =
            std::min(end_page, (l + 1) * kLeafPages);
        for (std::uint64_t p = std::max(first_page, l * kLeafPages);
             p < p_end; ++p) {
            const Page *a = la ? la->page[p % kLeafPages].get() : nullptr;
            const Page *b = lb ? lb->page[p % kLeafPages].get() : nullptr;
            if (a == b)
                continue;
            const std::uint8_t *pa = (a ? a : &kZeroPage)->bytes;
            const std::uint8_t *pb = (b ? b : &kZeroPage)->bytes;
            const std::uint64_t page_off = p * kPageBytes;
            const std::uint64_t b0 = std::max(page_off, lo) - page_off;
            const std::uint64_t b1 =
                std::min(page_off + kPageBytes, hi) - page_off;
            if (std::memcmp(pa + b0, pb + b0, b1 - b0) == 0)
                continue;
            for (std::uint64_t i = b0; i < b1; ++i)
                if (pa[i] != pb[i])
                    return rangeBase + page_off + i;
        }
    }
    return std::nullopt;
}

} // namespace snf::mem
