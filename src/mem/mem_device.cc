#include "mem/mem_device.hh"

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "sim/logging.hh"

namespace snf::mem
{

MemDevice::MemDevice(std::string name, const MemDeviceConfig &config,
                     Addr base)
    : devName(std::move(name)),
      cfg(config),
      baseAddr(base),
      backing(base, config.sizeBytes),
      faults(config.faults, config.rowBytes),
      banks(config.banks),
      statGroup(devName),
      reads(statGroup.counter("reads")),
      writes(statGroup.counter("writes")),
      readBytes(statGroup.counter("read_bytes")),
      writeBytes(statGroup.counter("write_bytes")),
      rowHits(statGroup.counter("row_hits")),
      rowConflicts(statGroup.counter("row_conflicts")),
      readEnergyPj(statGroup.scalar("read_energy_pj")),
      writeEnergyPj(statGroup.scalar("write_energy_pj")),
      dataWrites(statGroup.counter("data_writes")),
      dataQueueCycles(statGroup.counter("data_queue_cycles")),
      dataQueueMax(statGroup.counter("data_queue_max")),
      dataRowHits(statGroup.counter("data_row_hits")),
      faultBitFlips(statGroup.counter("fault_bit_flips")),
      faultMultiBit(statGroup.counter("fault_multi_bit")),
      faultTornLines(statGroup.counter("fault_torn_lines")),
      faultDroppedWrites(statGroup.counter("fault_dropped_writes")),
      faultStuckWords(statGroup.counter("fault_stuck_words")),
      faultExaminedBytes(statGroup.counter("fault_examined_bytes")),
      remappedLines(statGroup.counter("remapped_lines"))
{
    if (cfg.remapSize != 0)
        remapTable = std::make_unique<RemapTable>(
            cfg.remapBase, cfg.remapSize, cfg.spareBase, cfg.spareSize);
    fastMedia = !faults.enabled();
}

void
MemDevice::rebuildLineMap()
{
    lineMap.clear();
    if (remapTable) {
        for (const RemapTable::Entry &e : remapTable->entries())
            lineMap.emplace(e.orig, e.spare);
    }
    fastMedia = lineMap.empty() && !faults.enabled();
}

Addr
MemDevice::translate(Addr addr) const
{
    if (lineMap.empty())
        return addr;
    Addr line = addr & ~static_cast<Addr>(RemapTable::kLineBytes - 1);
    auto it = lineMap.find(line);
    if (it == lineMap.end())
        return addr;
    return it->second + (addr - line);
}

void
MemDevice::mediaRead(Addr addr, std::uint64_t size, void *out) const
{
    if (lineMap.empty()) {
        backing.read(addr, size, out);
        return;
    }
    auto *dst = static_cast<std::uint8_t *>(out);
    while (size > 0) {
        Addr line_end =
            (addr | (RemapTable::kLineBytes - 1)) + 1;
        std::uint64_t n = std::min<std::uint64_t>(size,
                                                  line_end - addr);
        backing.read(translate(addr), n, dst);
        dst += n;
        addr += n;
        size -= n;
    }
}

void
MemDevice::mediaWrite(Addr addr, std::uint64_t size, const void *in,
                      Tick done, Tick issue, PersistOrigin origin)
{
    const auto *src = static_cast<const std::uint8_t *>(in);
    if (fastMedia) {
        backing.write(addr, size, in, done, issue, origin);
        return;
    }
    if (lineMap.empty()) {
        // Legacy faultlab path (no promoted lines): damage the whole
        // buffer at its logical address, bit-identical to pre-lifelab
        // behavior.
        std::vector<std::uint8_t> fresh(size), old(size);
        std::memcpy(fresh.data(), in, size);
        backing.read(addr, size, old.data());
        FaultCounters fc =
            faults.apply(addr, size, fresh.data(), old.data(), done);
        faultBitFlips.inc(fc.bitFlips);
        faultMultiBit.inc(fc.multiBit);
        faultTornLines.inc(fc.tornLines);
        faultDroppedWrites.inc(fc.droppedWrites);
        faultStuckWords.inc(fc.stuckWords);
        faultExaminedBytes.inc(fc.examinedBytes);
        backing.write(addr, size, fresh.data(), done, issue, origin);
        return;
    }
    // Promoted lines exist: split by 64-byte line and land each
    // segment at its physical (possibly spare) address. Faults are
    // hashed on the physical address, so remapping away from a stuck
    // row genuinely heals it.
    while (size > 0) {
        Addr line_end =
            (addr | (RemapTable::kLineBytes - 1)) + 1;
        std::uint64_t n = std::min<std::uint64_t>(size,
                                                  line_end - addr);
        Addr phys = translate(addr);
        if (faults.enabled()) {
            std::vector<std::uint8_t> fresh(n), old(n);
            std::memcpy(fresh.data(), src, n);
            backing.read(phys, n, old.data());
            FaultCounters fc = faults.apply(phys, n, fresh.data(),
                                            old.data(), done);
            faultBitFlips.inc(fc.bitFlips);
            faultMultiBit.inc(fc.multiBit);
            faultTornLines.inc(fc.tornLines);
            faultDroppedWrites.inc(fc.droppedWrites);
            faultStuckWords.inc(fc.stuckWords);
            faultExaminedBytes.inc(fc.examinedBytes);
            backing.write(phys, n, fresh.data(), done, issue, origin);
        } else {
            backing.write(phys, n, src, done, issue, origin);
        }
        src += n;
        addr += n;
        size -= n;
    }
}

std::uint64_t
MemDevice::rowOf(Addr addr) const
{
    return (addr - baseAddr) / cfg.rowBytes;
}

std::uint32_t
MemDevice::bankOf(std::uint64_t row) const
{
    return static_cast<std::uint32_t>(row % cfg.banks);
}

MemDevice::Result
MemDevice::access(bool write, Addr addr, std::uint64_t size,
                  const void *wdata, void *rdata, Tick now,
                  bool priorityWrite, PersistOrigin origin,
                  Tick issueHint)
{
    SNF_ASSERT(size > 0, "zero-size device access");
    // Fault parity by construction: every timed write landing in the
    // durable log region must take the serialized priority channel
    // with a log/metadata origin — the one path the fault injector
    // instruments and the controller FIFO orders. A backend growing a
    // log write path that bypasses this trips here, not in a flaky
    // probabilistic test.
    SNF_ASSERT(!write || logRegionSize == 0 ||
                   addr + size <= logRegionBase ||
                   addr >= logRegionBase + logRegionSize ||
                   (priorityWrite && origin != PersistOrigin::Data &&
                    origin != PersistOrigin::Functional),
               "timed log-region write [%llx,+%llu) off the priority "
               "log channel (origin %s)",
               static_cast<unsigned long long>(addr),
               static_cast<unsigned long long>(size),
               persistOriginName(origin));
    // Shard parity (shardlab): a timed log write must lie entirely
    // within one shard's slice of the log region. A straddling write
    // means a record was routed to the wrong shard — it would corrupt
    // the neighbor shard's header or slot array silently.
    SNF_ASSERT(!write || logRegionSize == 0 || logShardCount == 1 ||
                   addr + size <= logRegionBase ||
                   addr >= logRegionBase + logRegionSize ||
                   (addr - logRegionBase) /
                           (logRegionSize / logShardCount) ==
                       (addr + size - 1 - logRegionBase) /
                           (logRegionSize / logShardCount),
               "timed log write [%llx,+%llu) straddles shard slices "
               "(%u shards over [%llx,+%llu))",
               static_cast<unsigned long long>(addr),
               static_cast<unsigned long long>(size), logShardCount,
               static_cast<unsigned long long>(logRegionBase),
               static_cast<unsigned long long>(logRegionSize));
    std::uint64_t row = rowOf(addr);
    Bank &bank = banks[bankOf(row)];

    bool row_hit = bank.openRow == static_cast<std::int64_t>(row);
    Tick start;
    Tick lat;
    if (!write) {
        // Demand reads have priority over the write queue.
        start = std::max({now, readChannelBusy, bank.readBusyUntil});
        lat = row_hit ? cfg.rowHitLat : cfg.readConflictLat;
    } else if (priorityWrite) {
        // Ordering-critical log writes bypass queued data
        // write-backs but yield to in-flight reads. The controller
        // batches this sequential stream (FR-FCFS), so it gets
        // streaming service: row-hit latency plus the per-row
        // activation cost amortized over the row, independent of
        // interleaved demand traffic's row state.
        start = std::max({now, logChannelBusy,
                          bank.logWriteBusyUntil,
                          bank.readBusyUntil});
        lat = sequentialWriteCycles(size) - cfg.burstCycles;
        row_hit = true;
    } else {
        // Posted data write-backs are served per bank: each waits for
        // its own bank's earlier data writes, log writes and reads,
        // never for another bank's queued writes.
        start = std::max({now, bank.dataWriteBusyUntil,
                          bank.logWriteBusyUntil,
                          bank.readBusyUntil});
        lat = row_hit ? cfg.rowHitLat : cfg.writeConflictLat;
        dataWrites.inc();
        dataQueueCycles.inc(start - now);
        dataQueueMax.raiseTo(start - now);
        if (row_hit)
            dataRowHits.inc();
    }
    Tick service_end = start + lat + cfg.burstCycles;
    // Writes are persistent once accepted into the ADR-protected
    // controller/DIMM queue (start + burst); the bank stays busy for
    // the full cell-write latency, which is what bounds bandwidth.
    // Reads must wait for the data: full latency.
    Tick done = write ? start + cfg.burstCycles : service_end;

    if (!write) {
        bank.openRow = static_cast<std::int64_t>(row);
        bank.readBusyUntil = service_end;
        readChannelBusy = start + cfg.burstCycles;
    } else if (priorityWrite) {
        // Streaming log writes manage their own row locality and do
        // not close the demand stream's open row.
        bank.logWriteBusyUntil = service_end;
        logChannelBusy = start + cfg.burstCycles;
    } else {
        bank.openRow = static_cast<std::int64_t>(row);
        bank.dataWriteBusyUntil = service_end;
    }

    double bits = static_cast<double>(size) * 8.0;
    if (write) {
        writes.inc();
        writeBytes.inc(size);
        if (cachedRowCount == nullptr || row != cachedRow) {
            cachedRowCount = &rowWrites[row];
            cachedRow = row;
        }
        ++*cachedRowCount;
        // PCM cells are written from the row buffer; array write
        // energy applies to the written bits, row-buffer energy to
        // the access itself.
        writeEnergyPj.add(bits *
                          (cfg.rowWritePjBit + cfg.arrayWritePjBit));
        // Timing and energy were charged above on the logical
        // address; mediaWrite handles fault injection and remap
        // translation of the bytes that land. The issue tick (now)
        // rides along so crash tooling sees the write as pending over
        // [now, done).
        if (wdata)
            mediaWrite(addr, size, wdata, done,
                       issueHint == kTickNever ? now : issueHint,
                       origin);
    } else {
        reads.inc();
        readBytes.inc(size);
        readEnergyPj.add(bits * cfg.rowReadPjBit);
        if (!row_hit)
            readEnergyPj.add(bits * cfg.arrayReadPjBit);
        if (rdata)
            mediaRead(addr, size, rdata);
    }
    if (row_hit)
        rowHits.inc();
    else
        rowConflicts.inc();

    return Result{done, row_hit};
}

void
MemDevice::functionalRead(Addr addr, std::uint64_t size, void *out) const
{
    mediaRead(addr, size, out);
}

void
MemDevice::functionalWrite(Addr addr, std::uint64_t size, const void *in)
{
    if (lineMap.empty()) {
        backing.write(addr, size, in, 0);
        return;
    }
    const auto *src = static_cast<const std::uint8_t *>(in);
    while (size > 0) {
        Addr line_end = (addr | (RemapTable::kLineBytes - 1)) + 1;
        std::uint64_t n = std::min<std::uint64_t>(size,
                                                  line_end - addr);
        backing.write(translate(addr), n, src, 0);
        src += n;
        addr += n;
        size -= n;
    }
}

bool
MemDevice::remapLine(Addr lineAddr, Tick now)
{
    if (!remapTable)
        return false;
    lineAddr &= ~static_cast<Addr>(RemapTable::kLineBytes - 1);
    // Reject lines inside the remap/spare metadata itself — mapping
    // the table through itself would recurse.
    if (lineAddr >= cfg.remapBase &&
        lineAddr < cfg.spareBase + cfg.spareSize)
        return false;
    std::uint8_t buf[RemapTable::kLineBytes];
    mediaRead(lineAddr, sizeof(buf), buf);
    std::optional<Addr> spare = remapTable->add(lineAddr);
    if (!spare)
        return false;
    // Copy the line's current bytes to its spare, then durably
    // publish the mapping; traffic switches over only afterwards, so
    // an interrupted promotion leaves the old (valid) table in force.
    access(true, *spare, sizeof(buf), buf, nullptr, now, true,
           PersistOrigin::Meta);
    bool ok = remapTable->persist(
        [this, now](Addr a, std::uint64_t n, const void *d) {
            access(true, a, n, d, nullptr, now, true,
                   PersistOrigin::Meta);
        });
    SNF_ASSERT(ok, "uncapped remap-table persist cannot fail");
    rebuildLineMap();
    remappedLines.inc();
    return true;
}

RemapTable::LoadResult
MemDevice::reloadRemap()
{
    SNF_ASSERT(remapTable, "reloadRemap without a remap region");
    RemapTable::LoadResult res = remapTable->load(backing);
    rebuildLineMap();
    return res;
}

void
MemDevice::updateSuperblock(std::uint64_t heapCursor,
                            std::uint64_t generation)
{
    SNF_ASSERT(remapTable, "superblock without a remap region");
    remapTable->heapCursor = heapCursor;
    remapTable->generation = generation;
    bool ok = remapTable->persist(
        [this](Addr a, std::uint64_t n, const void *d) {
            backing.write(a, n, d, 0);
        });
    SNF_ASSERT(ok, "uncapped superblock persist cannot fail");
}

MemDevice::WearReport
MemDevice::wearReport() const
{
    WearReport r;
    for (const auto &[row, count] : rowWrites) {
        r.totalWrites += count;
        r.hottestRowWrites = std::max(r.hottestRowWrites, count);
    }
    r.rowsTouched = rowWrites.size();
    if (r.rowsTouched > 0)
        r.meanWritesPerTouchedRow =
            static_cast<double>(r.totalWrites) /
            static_cast<double>(r.rowsTouched);
    return r;
}

double
MemDevice::WearReport::hottestRowLifetimeSeconds(
    std::uint64_t endurance, Tick elapsed, double clockGhz) const
{
    if (hottestRowWrites == 0 || elapsed == 0)
        return std::numeric_limits<double>::infinity();
    double writes_per_cycle = static_cast<double>(hottestRowWrites) /
                              static_cast<double>(elapsed);
    double cycles_to_wear =
        static_cast<double>(endurance) / writes_per_cycle;
    return cycles_to_wear / (clockGhz * 1e9);
}

Tick
MemDevice::sequentialWriteCycles(std::uint64_t size) const
{
    // Streaming writes are posted into the open row buffer (SRAM
    // latency, hidden behind the burst); the PCM array write is paid
    // once per row close and amortizes over the row. This is the
    // sustained sequential write bandwidth of the DIMM.
    constexpr double row_buffer_cycles = 4.0;
    double amortized_array =
        static_cast<double>(cfg.writeConflictLat) *
        static_cast<double>(size) / static_cast<double>(cfg.rowBytes);
    return static_cast<Tick>(static_cast<double>(cfg.burstCycles) +
                             row_buffer_cycles + amortized_array);
}

} // namespace snf::mem
