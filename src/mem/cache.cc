#include "mem/cache.hh"

#include <bit>

#include "sim/logging.hh"

namespace snf::mem
{

Cache::Cache(std::string name, const CacheConfig &config)
    : cacheName(std::move(name)),
      cfg(config),
      statGroup(cacheName),
      hits(statGroup.counter("hits")),
      misses(statGroup.counter("misses")),
      evictions(statGroup.counter("evictions")),
      writebacks(statGroup.counter("writebacks"))
{
    SNF_ASSERT(cfg.lineBytes >= 2, "line size too small for tag "
               "sentinel in %s", cacheName.c_str());
    SNF_ASSERT(std::has_single_bit(cfg.lineBytes) &&
                   std::has_single_bit(cfg.numSets()),
               "line size and set count of %s must be powers of two",
               cacheName.c_str());
    lineShift = static_cast<std::uint32_t>(std::countr_zero(cfg.lineBytes));
    setMask = cfg.numSets() - 1;
    const std::size_t n = cfg.numLines();
    lines.resize(n);
    dataArray.assign(n * cfg.lineBytes, 0);
    for (std::size_t i = 0; i < n; ++i)
        lines[i].bytes = &dataArray[i * cfg.lineBytes];
    tags.assign(n, kInvalidTag);
    dirtyIndex.assign((n + 63) / 64, 0);
}

CacheLine *
Cache::victimFor(Addr lineAddr)
{
    std::uint32_t set = setIndex(lineAddr);
    CacheLine *base = &lines[static_cast<std::size_t>(set) * cfg.ways];
    CacheLine *victim = nullptr;
    for (std::uint32_t w = 0; w < cfg.ways; ++w) {
        CacheLine &l = base[w];
        if (!l.valid)
            return &l;
        if (!victim || l.lastUse < victim->lastUse)
            victim = &l;
    }
    return victim;
}

void
Cache::install(CacheLine *slot, Addr lineAddr)
{
    SNF_ASSERT(!slot->valid, "install over a valid line in %s",
               cacheName.c_str());
    SNF_ASSERT(lineOf(lineAddr) == lineAddr, "unaligned line address");
    slot->lineAddr = lineAddr;
    slot->valid = true;
    tags[slotOf(slot)] = lineAddr;
    touch(slot);
}

void
Cache::touch(CacheLine *line)
{
    line->lastUse = ++useClock;
}

void
Cache::invalidate(CacheLine *line)
{
    line->valid = false;
    line->sharers = 0;
    clearDirty(line);
    tags[slotOf(line)] = kInvalidTag;
}

void
Cache::invalidateAll()
{
    for (auto &l : lines)
        invalidate(&l);
}

} // namespace snf::mem
