/**
 * @file
 * A set-associative cache array with per-line valid/dirty/fwb state.
 *
 * The cache is a passive container: the access protocol (fills,
 * write-backs, coherence) lives in mem::MemorySystem, and the FWB
 * state machine in persist::FwbEngine drives the fwb bits. This keeps
 * the entire protocol in one auditable place.
 *
 * Lookups run against a packed parallel tag array: one Addr compare
 * per way, no per-way valid-bit branch (invalid ways hold a sentinel
 * that can never equal a line-aligned address). The tag array is kept
 * consistent by install()/invalidate(), the only mutators of line
 * identity.
 *
 * Every line's data lives in one contiguous array owned by the cache,
 * and a bitmap indexes the dirty slots. setDirty()/clearDirty() are the
 * only writers of a line's dirty bit and of the bitmap, so the two
 * always agree and forEachDirtyLine() can skip clean lines whole.
 */

#ifndef SNF_MEM_CACHE_HH
#define SNF_MEM_CACHE_HH

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/system_config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace snf::mem
{

/** One cache line: tag state plus its byte-accurate data image. */
class CacheLine
{
  public:
    Addr lineAddr = 0;
    std::uint64_t lastUse = 0;
    /**
     * Inclusive L2 only: bitmask of the L1 caches holding this line
     * (the sharer directory). Always zero in an L1 line and in an
     * invalid line.
     */
    std::uint64_t sharers = 0;
    /**
     * Inclusive L2 only: the copy stamp (MemorySystem::copyStamp) of
     * the last L1 data copied into this line. Only such a copy dirties
     * an L2 line, so a write-back always hands on the stamp of data
     * this line really holds.
     */
    std::uint64_t copyStamp = 0;
    bool valid = false;

    bool dirty() const { return dirtyBit; }

    /** Force-write-back flag bit (paper Section IV-D). Only ever set
     *  on a dirty line; cleaning the line clears it. */
    bool fwb() const { return fwbBit; }

    /** The line's lineBytes() of data, inside the cache's array. */
    std::uint8_t *data() { return bytes; }
    const std::uint8_t *data() const { return bytes; }

  private:
    friend class Cache;

    std::uint8_t *bytes = nullptr;
    bool dirtyBit = false;
    bool fwbBit = false;
};

/**
 * A single cache level (array + tags + LRU), parameterized by
 * CacheConfig. Timing is tracked with a port busy-until tick so FWB
 * tag scans can delay demand accesses.
 */
class Cache
{
  public:
    Cache(std::string name, const CacheConfig &config);

    /** Lines point into this cache's data array: no copies. */
    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    /** Look up @p lineAddr; nullptr on miss. Does not update LRU. */
    CacheLine *
    find(Addr lineAddr)
    {
        const std::uint32_t set = setIndex(lineAddr);
        const std::size_t base =
            static_cast<std::size_t>(set) * cfg.ways;
        const Addr *tagBase = &tags[base];
        for (std::uint32_t w = 0; w < cfg.ways; ++w) {
            if (tagBase[w] == lineAddr)
                return &lines[base + w];
        }
        return nullptr;
    }

    const CacheLine *
    find(Addr lineAddr) const
    {
        return const_cast<Cache *>(this)->find(lineAddr);
    }

    /**
     * Pick the victim slot for installing @p lineAddr: an invalid way
     * if available, else the LRU way. The returned slot may still hold
     * a valid victim that the caller must write back / invalidate
     * before calling install().
     */
    CacheLine *victimFor(Addr lineAddr);

    /**
     * Bind the invalid (hence clean, sharer-free) @p slot to
     * @p lineAddr. The caller then fills slot->data().
     */
    void install(CacheLine *slot, Addr lineAddr);

    /** Mark @p line most recently used. */
    void touch(CacheLine *line);

    /** Mark @p line dirty. */
    void
    setDirty(CacheLine *line)
    {
        line->dirtyBit = true;
        const std::size_t slot = slotOf(line);
        dirtyIndex[slot / 64] |= std::uint64_t{1} << (slot % 64);
    }

    /** Mark @p line clean; a clean line never carries fwb. */
    void
    clearDirty(CacheLine *line)
    {
        line->dirtyBit = false;
        line->fwbBit = false;
        const std::size_t slot = slotOf(line);
        dirtyIndex[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    }

    /** Set the fwb bit of the dirty @p line (FWB FLAG state). */
    void setFwb(CacheLine *line) { line->fwbBit = true; }

    /** Invalidate a line (also clears dirty, fwb and sharers). */
    void invalidate(CacheLine *line);

    /** Invalidate every line (crash model). */
    void invalidateAll();

    /** Apply @p fn to every line slot (valid or not). Statically
     *  dispatched so per-line scans pay no std::function call. */
    template <typename Fn>
    void
    forEachLine(Fn &&fn)
    {
        for (auto &l : lines)
            fn(l);
    }

    /**
     * Apply @p fn to every dirty line, in slot order. The index word
     * is re-read after each visit, so a line that @p fn dirties ahead
     * of the cursor is still visited and one it cleans is skipped:
     * the visits are exactly those of a walk over every slot that
     * tests the dirty bit as it passes.
     */
    template <typename Fn>
    void
    forEachDirtyLine(Fn &&fn)
    {
        for (std::size_t w = 0; w < dirtyIndex.size(); ++w) {
            std::uint64_t pending = dirtyIndex[w];
            while (pending != 0) {
                const int bit = std::countr_zero(pending);
                fn(lines[w * 64 + static_cast<std::size_t>(bit)]);
                pending = dirtyIndex[w] &
                          ~((std::uint64_t{2} << bit) - 1);
            }
        }
    }

    std::uint32_t lineBytes() const { return cfg.lineBytes; }

    std::uint32_t numLines() const { return cfg.numLines(); }

    std::uint32_t latency() const { return cfg.latency; }

    const std::string &name() const { return cacheName; }

    Addr
    lineOf(Addr a) const
    {
        return a & ~static_cast<Addr>(cfg.lineBytes - 1);
    }

    sim::StatGroup &stats() { return statGroup; }

    /** Port contention: accesses may not start before this tick. */
    Tick busyUntil = 0;

  private:
    /** All-ones is never line-aligned (lineBytes >= 2), so an invalid
     *  way can never match a lookup tag. */
    static constexpr Addr kInvalidTag = ~Addr{0};

    std::string cacheName;
    CacheConfig cfg;
    /** log2(lineBytes) and numSets() - 1: both are powers of two. */
    std::uint32_t lineShift = 0;
    std::uint32_t setMask = 0;
    sim::StatGroup statGroup; // must precede the counter references

  public:
    // Demand statistics, maintained by the protocol layer.
    sim::Counter &hits;
    sim::Counter &misses;
    sim::Counter &evictions;
    sim::Counter &writebacks;

    /** Hot-path demand hit/miss counts accumulate here (plain adds,
     *  no counter indirection) and fold into the named counters at
     *  stat-read boundaries via syncDemandStats(). */
    std::uint64_t pendingHits = 0;
    std::uint64_t pendingMisses = 0;

    void
    syncDemandStats()
    {
        if (pendingHits) {
            hits.inc(pendingHits);
            pendingHits = 0;
        }
        if (pendingMisses) {
            misses.inc(pendingMisses);
            pendingMisses = 0;
        }
    }

  private:
    std::uint32_t
    setIndex(Addr lineAddr) const
    {
        return static_cast<std::uint32_t>(lineAddr >> lineShift) & setMask;
    }

    std::size_t
    slotOf(const CacheLine *line) const
    {
        return static_cast<std::size_t>(line - lines.data());
    }

    std::vector<CacheLine> lines;
    /** Parallel to `lines`: lineAddr when valid, kInvalidTag when not. */
    std::vector<Addr> tags;
    /** numLines() × lineBytes(): line i's data starts at i × lineBytes. */
    std::vector<std::uint8_t> dataArray;
    /** Bit i of word i / 64 is set iff lines[i] is dirty. */
    std::vector<std::uint64_t> dirtyIndex;
    std::uint64_t useClock = 0;
};

} // namespace snf::mem

#endif // SNF_MEM_CACHE_HH
