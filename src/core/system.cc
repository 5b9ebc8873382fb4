#include "core/system.hh"

#include <algorithm>
#include <ostream>

#include "sim/logging.hh"

namespace snf
{

System::System(const SystemConfig &config, PersistMode m)
    : cfg(config),
      persistMode(m),
      threadScheduler(eventQueue)
{
    cfg.validate();
    // Hand the NVRAM device its remap-table geometry (lifelab) so it
    // can translate promoted lines; zero sizes leave it inert.
    if (cfg.map.remapSize != 0) {
        cfg.nvram.remapBase = cfg.map.remapBase();
        cfg.nvram.remapSize = cfg.map.remapSize;
        cfg.nvram.spareBase = cfg.map.spareBase();
        cfg.nvram.spareSize = cfg.map.spareSize;
    }
    memory = std::make_unique<mem::MemorySystem>(cfg);
    // Fault parity by construction: every timed write into the log
    // area must arrive on the serialized priority channel with a
    // log/metadata origin, for both logging backends.
    memory->nvram().setLogRegion(cfg.map.logBase(), cfg.map.logSize);
    pheap = std::make_unique<PersistentHeap>(cfg.map, memory->nvram());
    dheap = std::make_unique<BumpAllocator>(cfg.map.dramBase,
                                            cfg.map.dramSize);
    // Resolve the log layout: AddressMap::logShards circular regions
    // (what recovery reads) and the routing the engine's LogRouter
    // applies.
    persist::LogLayout layout = persist::resolveLogLayout(cfg, persistMode);
    cfg.map.logShards = layout.regions;
    for (std::uint32_t p = 0; p < layout.regions; ++p) {
        logRegions.push_back(std::make_unique<persist::LogRegion>(
            cfg.map.logRegionBase(p), cfg.map.logRegionBytes(),
            memory->nvram(),
            layout.regions == 1 ? "log" : strfmt("log.%u", p)));
        logRegions.back()->create();
    }
    memory->nvram().setLogShards(layout.regions);

    // Wire reclamation-hazard predicates (invariant I4).
    for (auto &region : logRegions) {
        region->setTxActive([this](std::uint64_t seq) {
            return txnTracker.isActive(seq);
        });
        region->setStampSource([this] { return memory->copyStamp(); });
        // A completed write-back that carried a copy made after the
        // store persisted it, whatever is queued behind it.
        region->setPersistedSince(
            [this](Addr addr, std::uint64_t stamp, Tick now) {
                return memory->monitor().carriedSince(
                    memory->lineOf(addr), stamp, now);
            });
        region->setHazardSink(
            [this]() { memory->monitor().onLogOverwriteHazard(); });
        // Reclaiming a slot whose guarded line is still volatile
        // forces that line back to NVRAM first (a clwb, which also
        // waits for a write-back of the line already in flight).
        region->setForceWriteback([this](Addr addr, Tick now) {
            return memory->clwb(0, addr, now);
        });
    }
    txnTracker.setCcMode(cfg.persist.ccMode);

    persist::LogRouter router(persistMode, layout, txnTracker,
                              cfg.persist.injectSkipShardMask);
    if (isHardwareLogging(persistMode)) {
        std::vector<persist::LogBuffer *> buf_ptrs;
        for (auto &region : logRegions) {
            logBufs.push_back(std::make_unique<persist::LogBuffer>(
                *region, memory->nvram(), &memory->monitor(),
                cfg.persist.logBufferEntries, cfg.l1.lineBytes,
                cfg.persist.crashJournal /* torn-test drains */));
            buf_ptrs.push_back(logBufs.back().get());
        }
        hwlEngine = std::make_unique<persist::HwlEngine>(
            std::move(buf_ptrs), std::move(router));
        memory->setStoreHook(hwlEngine.get());
        // The memory controller issues log-buffer entries to the
        // NVRAM bus ahead of data write-backs (FIFO order at the
        // channel), preserving log-before-data without barriers.
        if (!cfg.persist.disableWbBarrier) {
            memory->setDataWbBarrier([this](Tick now) {
                Tick done = now;
                for (auto &buf : logBufs)
                    done = std::max(done, buf->drainAll(now));
                return done;
            });
        }
    } else if (isSoftwareLogging(persistMode)) {
        std::vector<persist::LogRegion *> region_ptrs;
        for (auto &region : logRegions)
            region_ptrs.push_back(region.get());
        swLogging = std::make_unique<persist::SwLogging>(
            *memory, std::move(region_ptrs), std::move(router));
        // The WCB sits in the memory controller ahead of the data
        // write queue: uncacheable log stores issued before a data
        // write-back drain first (same FIFO argument as the hardware
        // log buffer). Without this, a clwb or eviction could steal a
        // line to NVRAM while its undo record is still volatile.
        memory->setDataWbBarrier(
            [this](Tick now) { return memory->drainWcb(now); });
    }

    if (persistMode == PersistMode::Fwb) {
        fwbEngine = std::make_unique<persist::FwbEngine>(
            *memory, eventQueue, cfg.persist, layout);
        fwbEngine->start(0);
    }

    if (cfg.persist.scrub) {
        scrubber =
            std::make_unique<persist::LogScrubber>(memory->nvram());
        for (auto &region : logRegions)
            scrubber->addRegion(region.get());
        if (fwbEngine) {
            // Ride the FWB cadence: one scrub chunk per scan pass.
            fwbEngine->setScanHook(
                [this](Tick now) { scrubber->step(now); });
        } else {
            scrubber->start(
                eventQueue,
                persist::FwbEngine::derivePeriod(cfg, layout), 0);
        }
    }

    for (CoreId c = 0; c < cfg.numCores; ++c)
        threads.push_back(std::make_unique<Thread>(c, *this));
}

System::~System() = default;

void
System::setProbe(sim::ProbeFn p)
{
    probeFn = std::move(p);
    for (auto &buf : logBufs)
        buf->setProbe(probeFn);
    memory->monitor().setProbe(probeFn);
    memory->wcb().setProbe(probeFn);
    if (fwbEngine)
        fwbEngine->setProbe(probeFn);
}

void
System::spawn(CoreId id,
              const std::function<sim::Co<void>(Thread &)> &fn)
{
    SNF_ASSERT(id < cfg.numCores, "spawn on core %u of %u", id,
               cfg.numCores);
    Thread &t = *threads[id];
    SNF_ASSERT(!t.context().rootHandle,
               "core %u already has a workload", id);
    rootCoros.push_back(fn(t));
    t.context().rootHandle = rootCoros.back().raw();
    threadScheduler.addThread(&t.context());
}

Tick
System::run(Tick stopAt)
{
    Tick end = threadScheduler.run(stopAt);
    if (threadScheduler.allFinished()) {
        // The hardware log-buffer FIFOs drain continuously; at a
        // natural end of execution they empty within a few cycles,
        // so the final records are durable (commits acknowledged).
        for (auto &buf : logBufs)
            end = std::max(end, buf->drainAll(end));
        if (fwbEngine)
            fwbEngine->stop();
        if (scrubber)
            scrubber->stop();
    }
    return end;
}

Tick
System::flushAll(Tick now)
{
    Tick done = now;
    for (auto &buf : logBufs)
        done = std::max(done, buf->drainAll(now));
    done = std::max(done, memory->flushAllDirty(now));
    return done;
}

Tick
System::drainLogs(Tick now)
{
    Tick done = now;
    for (auto &buf : logBufs)
        done = std::max(done, buf->drainAll(now));
    done = std::max(done, memory->drainWcb(done));
    return done;
}

std::vector<persist::LogRegion::UndoEntry>
System::collectUndo(std::uint64_t txSeq) const
{
    std::vector<persist::LogRegion::UndoEntry> out;
    for (const auto &region : logRegions) {
        auto part = region->collectUndo(txSeq);
        out.insert(out.end(), part.begin(), part.end());
    }
    // Per-core partitions keep a transaction's records in a single
    // region (the appending core's); with address-interleaved shards
    // every update to one address lands in one shard, so reverse
    // rollback order only has to hold per address — newest-first
    // within each region's contribution suffices either way.
    return out;
}

mem::BackingStore
System::crashSnapshot(Tick at) const
{
    const auto &store = memory->nvram().store();
    SNF_ASSERT(store.journalEnabled(),
               "crashSnapshot requires PersistConfig::crashJournal");
    return store.snapshotAt(at);
}

void
System::adoptNvramImage(const mem::BackingStore &image)
{
    memory->nvram().store().assignFrom(image);
    if (memory->nvram().remapActive())
        memory->nvram().reloadRemap();
    // Recovery truncated the log, so the regions' freshly-constructed
    // volatile state (empty, pass 1) is right; re-install matching
    // pristine headers over whatever header the crash image carried.
    for (auto &region : logRegions)
        region->create();
}

RunStats
System::collectStats(Tick cycles) const
{
    // Fold the hot-path batched hit/miss accumulators into the named
    // counters before reading them (and before the energy model does).
    memory->syncStats();
    RunStats s;
    s.cycles = cycles;
    s.committedTx = txnTracker.committed.value();
    s.abortedTx = txnTracker.aborted.value();
    for (const auto &t : threads)
        s.instr += t->context().instr;
    if (cycles > 0) {
        s.ipc = static_cast<double>(s.instr.total) /
                static_cast<double>(cycles) /
                static_cast<double>(cfg.numCores);
        s.txPerMcycle = static_cast<double>(s.committedTx) * 1e6 /
                        static_cast<double>(cycles);
    }

    const auto &nv = memory->nvram();
    s.nvramReads = nv.reads.value();
    s.nvramWrites = nv.writes.value();
    s.nvramReadBytes = nv.readBytes.value();
    s.nvramWriteBytes = nv.writeBytes.value();
    const auto &dr = memory->dram();
    s.dramReads = dr.reads.value();
    s.dramWrites = dr.writes.value();

    for (CoreId c = 0; c < cfg.numCores; ++c) {
        const auto &l1 = memory->l1(c);
        s.l1Hits += l1.hits.value();
        s.l1Misses += l1.misses.value();
    }
    s.l2Hits = memory->l2Cache().hits.value();
    s.l2Misses = memory->l2Cache().misses.value();

    for (const auto &region : logRegions) {
        s.logRecords += region->appends.value();
        s.logWraps += region->wraps.value();
    }
    for (const auto &buf : logBufs)
        s.logBufferStalls += buf->stats().counterValue("stalls");
    if (fwbEngine) {
        s.fwbScans = fwbEngine->scans.value();
        s.fwbWritebacks = fwbEngine->forcedWritebacks.value();
    }

    for (const auto &region : logRegions) {
        s.forcedWritebacks += region->forcedWritebacks.value();
        s.reclaimWaitCycles += region->reclaimWaitCycles.value();
    }
    s.ccLockWaits = txnTracker.lockWaits.value();
    s.ccDeadlockAborts = txnTracker.deadlockAborts.value();
    s.ccValidationFailures = txnTracker.validationFailures.value();
    s.remappedLines = nv.remappedLines.value();
    if (scrubber) {
        s.scrubSlotsScanned = scrubber->slotsScanned.value();
        s.scrubReadBytes = scrubber->readBytes.value();
        s.scrubWriteBytes = scrubber->writeBytes.value();
        s.scrubRepairs = scrubber->repairs.value();
        s.scrubPromotions = scrubber->promotions.value();
    }

    s.orderViolations = memory->monitor().orderViolations();
    s.overwriteHazards = memory->monitor().overwriteHazards();
    s.faultsInjected = nv.faultBitFlips.value() +
                       nv.faultMultiBit.value() +
                       nv.faultTornLines.value() +
                       nv.faultDroppedWrites.value() +
                       nv.faultStuckWords.value();
    s.faultExaminedBytes = nv.faultExaminedBytes.value();

    s.eventsScheduled = eventQueue.statScheduled();
    s.eventsExecuted = eventQueue.statExecuted();
    s.journalEntries = nv.store().journalSize();

    s.energy = energy::EnergyModel::compute(*memory, s.instr.total);
    return s;
}

void
System::dumpStats(std::ostream &os)
{
    memory->syncStats();
    memory->stats().dump(os);
    txnTracker.stats().dump(os);
    for (auto &region : logRegions)
        region->stats().dump(os);
    for (auto &buf : logBufs)
        buf->stats().dump(os);
    if (hwlEngine)
        hwlEngine->stats().dump(os);
    if (swLogging)
        swLogging->stats().dump(os);
    if (fwbEngine)
        fwbEngine->stats().dump(os);
    if (scrubber)
        scrubber->stats().dump(os);
    threadScheduler.stats().dump(os);
}

} // namespace snf
