#include "mem/memory_system.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "sim/logging.hh"

namespace snf::mem
{

namespace
{

/** Apply @p fn to each core whose bit is set in @p sharers, in
 *  ascending core order. */
template <typename Fn>
void
forEachSharer(std::uint64_t sharers, Fn &&fn)
{
    for (; sharers != 0; sharers &= sharers - 1)
        fn(static_cast<CoreId>(std::countr_zero(sharers)));
}

/** Port busy time an FWB scan charges a cache of @p lines lines. */
Tick
scanCharge(std::uint32_t lines, double costPerLine)
{
    return static_cast<Tick>(static_cast<double>(lines) * costPerLine);
}

} // namespace

MemorySystem::MemorySystem(const SystemConfig &config)
    : cfg(config),
      statGroup("mem"),
      l2("l2", config.l2),
      nvramDev("nvram", config.nvram, config.map.nvramBase),
      dramDev("dram", config.dram, config.map.dramBase),
      wcbuf(nvramDev, kWcbEntries, config.l1.lineBytes),
      coherenceInvalidations(statGroup.counter("coherence_invals")),
      cacheToCacheTransfers(statGroup.counter("cache_to_cache")),
      wbBarrierWaitCycles(statGroup.counter("wb_barrier_wait_cycles"))
{
    cfg.validate();
    for (CoreId c = 0; c < cfg.numCores; ++c) {
        l1s.push_back(std::make_unique<Cache>(strfmt("l1.%u", c),
                                              cfg.l1));
        statGroup.addChild(&l1s.back()->stats());
    }
    statGroup.addChild(&l2.stats());
    statGroup.addChild(&nvramDev.stats());
    statGroup.addChild(&dramDev.stats());
    statGroup.addChild(&wcbuf.stats());
    statGroup.addChild(&busMonitor.stats());
    if (cfg.persist.crashJournal)
        nvramDev.store().enableJournal();
}

MemDevice &
MemorySystem::deviceFor(Addr addr)
{
    if (cfg.map.isNvram(addr))
        return nvramDev;
    SNF_ASSERT(cfg.map.isDram(addr), "address %llx unmapped",
               static_cast<unsigned long long>(addr));
    return dramDev;
}

CacheLine *
MemorySystem::l2ParentOf(CoreId core, const CacheLine *line)
{
    CacheLine *parent = l2.find(line->lineAddr);
    SNF_ASSERT(parent != nullptr,
               "inclusivity violated: L1.%u line %llx missing in L2",
               core, static_cast<unsigned long long>(line->lineAddr));
    return parent;
}

void
MemorySystem::evictL2Line(CacheLine *slot, Tick now)
{
    Addr line = slot->lineAddr;
    // Inclusive hierarchy: recall every L1 copy first.
    forEachSharer(slot->sharers, [&](CoreId c) {
        CacheLine *l1line = l1s[c]->find(line);
        if (!l1line)
            return;
        if (l1line->dirty())
            copyToL2(slot, l1line);
        l1s[c]->invalidate(l1line);
        coherenceInvalidations.inc();
    });
    l2.evictions.inc();
    if (slot->dirty())
        writebackL2(*slot, now, now);
    l2.invalidate(slot);
}

Tick
MemorySystem::writebackL2(CacheLine &line, Tick issue, Tick barrierAt,
                          Tick checkFrom)
{
    const Addr addr = line.lineAddr;
    const bool nvram = cfg.map.isNvram(addr);
    Tick start = issue;
    if (dataWbBarrier && nvram)
        start = std::max(start, dataWbBarrier(barrierAt));
    wbBarrierWaitCycles.inc(start - issue);
    // The journaled issue tick is normally the access tick
    // (kTickNever), but the injectSkipWbBarrier self-test reports the
    // pre-barrier tick, making the write-back concurrently pending
    // with the log drains the barrier waited on, without moving a
    // single cycle.
    const Tick journaledIssue =
        cfg.persist.injectSkipWbBarrier ? issue : kTickNever;
    auto res = deviceFor(addr).access(true, addr, l2.lineBytes(),
                                      line.data(), nullptr, start, false,
                                      PersistOrigin::Data,
                                      journaledIssue);
    l2.clearDirty(&line);
    l2.writebacks.inc();
    if (nvram) {
        // Data writes are served in FIFO order per bank, so a line's
        // write-backs complete in the order they issue; the bus
        // monitor's history relies on it.
        SNF_ASSERT(res.done > busMonitor.lastWritebackOf(addr),
                   "write-back of line %llx completes at %llu, before "
                   "the line's previous one",
                   static_cast<unsigned long long>(addr),
                   static_cast<unsigned long long>(res.done));
        busMonitor.onDataWriteback(
            addr, checkFrom == kTickNever ? start : checkFrom, res.done,
            line.copyStamp);
    }
    return res.done;
}

MemorySystem::FillResult
MemorySystem::fillL2(Addr lineAddr, Tick now)
{
    Tick start = std::max(now, l2.busyUntil);
    if (CacheLine *l = l2.find(lineAddr)) {
        ++l2.pendingHits;
        l2.touch(l);
        return FillResult{l, start + l2.latency(), true};
    }
    ++l2.pendingMisses;
    CacheLine *slot = l2.victimFor(lineAddr);
    if (slot->valid)
        evictL2Line(slot, start);
    MemDevice &dev = deviceFor(lineAddr);
    auto res = dev.access(false, lineAddr, l2.lineBytes(), nullptr,
                          slot->data(), start + l2.latency());
    l2.install(slot, lineAddr);
    return FillResult{slot, res.done, false};
}

void
MemorySystem::copyToL2(CacheLine *parent, const CacheLine *src)
{
    std::memcpy(parent->data(), src->data(), l2.lineBytes());
    l2.setDirty(parent);
    parent->copyStamp = ++copyClock;
}

void
MemorySystem::writebackL1ToL2(CoreId core, CacheLine *line,
                              CacheLine *parent)
{
    copyToL2(parent, line);
    l2.touch(parent);
    l1s[core]->writebacks.inc();
}

void
MemorySystem::evictL1Line(CoreId core, CacheLine *victim)
{
    CacheLine *parent = l2ParentOf(core, victim);
    if (victim->dirty())
        writebackL1ToL2(core, victim, parent);
    parent->sharers &= ~(1ULL << core);
    l1s[core]->evictions.inc();
    l1s[core]->invalidate(victim);
}

MemorySystem::FillResult
MemorySystem::ensureInL1(CoreId core, Addr lineAddr, Tick now,
                         bool for_store, HitLevel &level)
{
    Cache &l1 = *l1s[core];
    Tick start = std::max(now, l1.busyUntil);

    if (CacheLine *line = l1.find(lineAddr)) {
        ++l1.pendingHits;
        l1.touch(line);
        Tick done = start + l1.latency();
        if (for_store) {
            // Invalidate other (clean) sharers for exclusivity.
            CacheLine *parent = l2ParentOf(core, line);
            const std::uint64_t others =
                parent->sharers & ~(1ULL << core);
            if (others != 0) {
                parent->sharers = 1ULL << core;
                done += l1.latency();
            }
            forEachSharer(others, [&](CoreId c) {
                if (CacheLine *other = l1s[c]->find(lineAddr)) {
                    SNF_ASSERT(!other->dirty(),
                               "two dirty copies of line %llx",
                               static_cast<unsigned long long>(lineAddr));
                    l1s[c]->invalidate(other);
                }
                coherenceInvalidations.inc();
            });
        }
        level = HitLevel::L1;
        return FillResult{line, done, true};
    }

    ++l1.pendingMisses;
    FillResult l2res = fillL2(lineAddr, start + l1.latency());
    CacheLine *parent = l2res.line;
    Tick done = l2res.done;
    level = l2res.hit ? HitLevel::L2 : HitLevel::Memory;

    // If another L1 holds a dirty copy, pull it into L2 first
    // (cache-to-cache transfer).
    forEachSharer(parent->sharers & ~(1ULL << core), [&](CoreId c) {
        CacheLine *other = l1s[c]->find(lineAddr);
        if (!other)
            return;
        if (other->dirty()) {
            copyToL2(parent, other);
            l1s[c]->clearDirty(other);
            cacheToCacheTransfers.inc();
            done += l1.latency();
        }
        if (for_store) {
            l1s[c]->invalidate(other);
            coherenceInvalidations.inc();
        }
    });
    if (for_store)
        parent->sharers = 0;

    CacheLine *victim = l1.victimFor(lineAddr);
    if (victim->valid)
        evictL1Line(core, victim);
    l1.install(victim, lineAddr);
    std::memcpy(victim->data(), parent->data(), l1.lineBytes());
    parent->sharers |= 1ULL << core;

    return FillResult{victim, done + l1.latency(), false};
}

AccessResult
MemorySystem::load(CoreId core, Addr addr, std::uint32_t size, void *out,
                   Tick now)
{
    SNF_ASSERT(size > 0 && size <= 8, "load size %u", size);
    Addr line = lineOf(addr);
    SNF_ASSERT(lineOf(addr + size - 1) == line, "load crosses line");
    HitLevel level = HitLevel::L1;
    FillResult r = ensureInL1(core, line, now, false, level);
    std::memcpy(out, r.line->data() + (addr - line), size);
    return AccessResult{r.done, level};
}

AccessResult
MemorySystem::store(CoreId core, Addr addr, std::uint32_t size,
                    const void *in, Tick now, const StoreCtx &ctx)
{
    SNF_ASSERT(size > 0 && size <= 8, "store size %u", size);
    Addr line = lineOf(addr);
    SNF_ASSERT(lineOf(addr + size - 1) == line, "store crosses line");
    HitLevel level = HitLevel::L1;
    FillResult r = ensureInL1(core, line, now, true, level);

    std::uint8_t *p = r.line->data() + (addr - line);
    std::uint64_t old_val = 0;
    std::uint64_t new_val = 0;
    std::memcpy(&old_val, p, size);
    std::memcpy(&new_val, in, size);

    std::memcpy(p, in, size);
    l1s[core]->setDirty(r.line);
    l1s[core]->touch(r.line);

    Tick done = r.done;
    if (ctx.persistent && hook && cfg.map.isNvram(addr)) {
        Tick hd = hook->onPersistentStore(core, ctx.txSeq, addr, size,
                                          old_val, new_val, r.done);
        done = std::max(done, hd);
    }
    return AccessResult{done, level};
}

Tick
MemorySystem::uncacheableWrite(Addr addr, std::uint32_t size,
                               const void *in, Tick now)
{
    return wcbuf.append(addr, size, in, now);
}

Tick
MemorySystem::drainWcb(Tick now)
{
    return wcbuf.drainAll(now);
}

Tick
MemorySystem::clwb(CoreId core, Addr addr, Tick now)
{
    Addr line = lineOf(addr);
    Tick t = std::max(now, l1s[core]->busyUntil);
    // A clean line may be clean only because a write-back carrying
    // this core's stores is still in flight (see the header).
    const Tick clean = std::max(t + l2.latency(),
                                busMonitor.lastWritebackOf(line));

    // Inclusion: a line absent from L2 is in no L1 either.
    CacheLine *l2line = l2.find(line);
    if (!l2line)
        return clean;

    // Step 1: any dirty L1 copy is written through to L2.
    forEachSharer(l2line->sharers, [&](CoreId c) {
        CacheLine *l1line = l1s[c]->find(line);
        if (l1line && l1line->dirty()) {
            writebackL1ToL2(c, l1line, l2line);
            l1s[c]->clearDirty(l1line);
            t += l1s[c]->latency();
        }
    });

    // Step 2: a dirty L2 copy is written back to its device.
    if (l2line->dirty()) {
        Tick issue = std::max(t, l2.busyUntil) + l2.latency();
        return writebackL2(*l2line, issue, issue);
    }
    return clean;
}

FwbScanResult
MemorySystem::fwbScanAll(Tick now, double costPerLine)
{
    FwbScanResult out;

    // The hardware scanner reads every tag, but only dirty NVRAM
    // lines change state: a clean line is IDLE and never carries fwb,
    // and a DRAM line is never flagged. So the walk visits just the
    // dirty lines while the port is charged for all of them.
    fwbBatch.clear();
    auto scan_cache = [&](Cache &cache, bool is_l1, CoreId core) {
        cache.forEachDirtyLine([&](CacheLine &line) {
            if (!cfg.map.isNvram(line.lineAddr))
                return;
            if (!line.fwb()) {
                // FLAG state: mark for write-back on the next pass.
                cache.setFwb(&line);
                ++out.linesFlagged;
                return;
            }
            // {fwb,dirty} == {1,1}: force the write-back.
            if (is_l1) {
                writebackL1ToL2(core, &line, l2ParentOf(core, &line));
                cache.clearDirty(&line);
            } else {
                fwbBatch.push_back(&line);
            }
            ++out.linesWrittenBack;
        });
        out.linesScanned += cache.numLines();
        cache.busyUntil = std::max(cache.busyUntil, now) +
                          scanCharge(cache.numLines(), costPerLine);
    };

    for (CoreId c = 0; c < cfg.numCores; ++c)
        scan_cache(*l1s[c], true, c);
    scan_cache(l2, false, 0);

    // Forced write-backs are background traffic: the memory
    // controller trickles them out instead of bursting them all at
    // the scan instant, so demand accesses are not starved. It drains
    // the scan's batch in line-address order, as a row-hit-first
    // controller drains a burst of queued writes, so consecutive
    // lines of one NVRAM row hit the open row; the tag walk would
    // alternate rows set by set.
    std::sort(fwbBatch.begin(), fwbBatch.end(),
              [](const CacheLine *a, const CacheLine *b) {
                  return a->lineAddr < b->lineAddr;
              });
    const Tick wb_spacing =
        (cfg.nvram.writeConflictLat + cfg.nvram.burstCycles) /
            cfg.nvram.banks +
        1;
    Tick wb_issue = now;
    for (CacheLine *line : fwbBatch) {
        wb_issue += wb_spacing;
        out.lastWritebackDone = std::max(out.lastWritebackDone,
                                         writebackL2(*line, wb_issue, now));
    }
    return out;
}

Tick
MemorySystem::fwbScanCharge(double costPerLine) const
{
    return scanCharge(std::max(cfg.l1.numLines(), cfg.l2.numLines()),
                      costPerLine);
}

Tick
MemorySystem::flushAllDirty(Tick now)
{
    Tick done = now;
    for (CoreId c = 0; c < cfg.numCores; ++c) {
        l1s[c]->forEachDirtyLine([&](CacheLine &line) {
            writebackL1ToL2(c, &line, l2ParentOf(c, &line));
            l1s[c]->clearDirty(&line);
        });
    }
    // The bus monitor checks each write against the records appended
    // up to the flush's own tick, not the write's post-barrier start.
    l2.forEachDirtyLine([&](CacheLine &line) {
        done = std::max(done, writebackL2(line, now, now, now));
    });
    done = std::max(done, wcbuf.drainAll(now));
    return done;
}

void
MemorySystem::syncStats()
{
    for (auto &l1 : l1s)
        l1->syncDemandStats();
    l2.syncDemandStats();
}

void
MemorySystem::invalidateAllCaches()
{
    for (auto &l1 : l1s)
        l1->invalidateAll();
    l2.invalidateAll();
    wcbuf.dropAll();
}

bool
MemorySystem::isLineDirtyAnywhere(Addr addr) const
{
    Addr line = addr & ~static_cast<Addr>(cfg.l1.lineBytes - 1);
    for (const auto &l1 : l1s) {
        const CacheLine *l = l1->find(line);
        if (l && l->dirty())
            return true;
    }
    const CacheLine *l = l2.find(line);
    return l && l->dirty();
}

} // namespace snf::mem
