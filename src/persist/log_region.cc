#include "persist/log_region.hh"

#include <algorithm>
#include <cstring>

#include "mem/mem_device.hh"
#include "sim/logging.hh"

namespace snf::persist
{

LogRegion::LogRegion(Addr base, std::uint64_t size,
                     mem::MemDevice &dev, const std::string &statName)
    : statGroup(statName),
      appends(statGroup.counter("appends")),
      wraps(statGroup.counter("wraps")),
      reclaims(statGroup.counter("reclaims")),
      hazards(statGroup.counter("overwrite_hazards")),
      truncates(statGroup.counter("truncates")),
      forcedWritebacks(statGroup.counter("forced_writebacks")),
      reclaimWaitCycles(statGroup.counter("reclaim_wait_cycles")),
      regionBase(base),
      regionSize(size),
      nvram(dev),
      slots((size - kHeaderBytes) / LogRecord::kSlotBytes),
      meta(slots)
{
    SNF_ASSERT(slots > 2, "log too small: %llu slots",
               static_cast<unsigned long long>(slots));
}

LogRegion::LogRegion(const AddressMap &addressMap, mem::MemDevice &dev)
    : LogRegion(addressMap.logBase(), addressMap.logSize, dev)
{
}

Addr
LogRegion::slotAddr(std::uint64_t slot) const
{
    SNF_ASSERT(slot < slots, "slot %llu out of range",
               static_cast<unsigned long long>(slot));
    return regionBase + kHeaderBytes + slot * LogRecord::kSlotBytes;
}

void
LogRegion::persistHeader(Tick now)
{
    std::uint8_t hdr[kHeaderBytes] = {};
    std::memcpy(hdr, &kMagic, 8);
    std::memcpy(hdr + 8, &slots, 8);
    std::memcpy(hdr + 16, &pass, 8);
    std::memcpy(hdr + 24, &tail, 8);
    nvram.access(true, regionBase, kHeaderBytes, hdr, nullptr, now,
                 true, PersistOrigin::Meta);
}

void
LogRegion::create()
{
    tail = 0;
    pass = 1;
    for (auto &m : meta)
        m = SlotMeta{};
    // The log region predates the run (it is set up when the
    // persistent heap is initialized, not by the workload), so the
    // header is installed functionally: durable at tick 0, before
    // any crash instant the crash tooling can pick.
    std::uint8_t hdr[kHeaderBytes] = {};
    std::memcpy(hdr, &kMagic, 8);
    std::memcpy(hdr + 8, &slots, 8);
    std::memcpy(hdr + 16, &pass, 8);
    std::memcpy(hdr + 24, &tail, 8);
    nvram.functionalWrite(regionBase, kHeaderBytes, hdr);
}

LogRegion::Reservation
LogRegion::reserve(const LogRecord &rec, Tick now)
{
    std::uint64_t slot = tail;
    SlotMeta &m = meta[slot];
    Tick ready = now;
    // Read before the reclaim below, whose forced write-back may copy
    // the store's own line into the L2.
    const std::uint64_t stamp = stampSource ? stampSource() : 0;

    if (m.valid) {
        // Reclaiming the oldest live entry (the log has wrapped).
        reclaims.inc();
        bool hazard = false;
        if (!m.isCommit) {
            if (txActive && txActive(m.txSeq)) {
                // An active transaction's record is being destroyed:
                // the transaction can no longer be rolled back.
                hazard = true;
            } else if (persistedSince &&
                       !persistedSince(m.addr, m.stamp, ready)) {
                // The working data guarded by this record has not
                // reached NVRAM since the record was appended. The
                // hardware never frees such an entry silently: it
                // forces the line back (and, when a write-back is
                // already in flight, waits for its completion ACK)
                // before advancing the log tail — the paper's log
                // truncation rule. Only when no write-back path is
                // wired does the overwrite become a counted hazard.
                if (forceWriteback) {
                    Tick acked = forceWriteback(m.addr, ready);
                    if (acked > ready) {
                        reclaimWaitCycles.inc(acked - ready);
                        ready = acked;
                    }
                    forcedWritebacks.inc();
                }
                hazard = persistedSince &&
                         !persistedSince(m.addr, m.stamp, ready);
            }
        }
        if (hazard) {
            hazards.inc();
            if (hazardSink)
                hazardSink();
        }
    }

    m.valid = true;
    // Prepare records guard no data line, so for reclamation-hazard
    // purposes they are commit-like: overwriting one can never strand
    // volatile working data.
    m.isCommit = rec.isCommit || rec.isPrepare;
    m.addr = rec.addr;
    m.stamp = stamp;
    m.txSeq = 0;
    m.seqNo = nextSeqNo++;

    Reservation res{slot, slotAddr(slot), currentTorn(), ready};
    appends.inc();
    tail = (tail + 1) % slots;
    if (tail == 0) {
        ++pass;
        wraps.inc();
    }
    return res;
}

void
LogRegion::bindSlotTx(std::uint64_t slot, std::uint64_t txSeq)
{
    meta[slot].txSeq = txSeq;
}

void
LogRegion::restamp(std::uint64_t slot)
{
    meta[slot].stamp = stampSource ? stampSource() : 0;
}

std::vector<LogRegion::UndoEntry>
LogRegion::collectUndo(std::uint64_t txSeq) const
{
    std::vector<UndoEntry> out;
    for (std::uint64_t s = 0; s < slots; ++s) {
        const SlotMeta &m = meta[s];
        if (!m.valid || m.isCommit || m.txSeq != txSeq)
            continue;
        std::uint8_t img[LogRecord::kSlotBytes];
        nvram.functionalRead(slotAddr(s), LogRecord::kSlotBytes, img);
        SlotInfo si = classifySlot(img);
        if (si.cls != SlotClass::Valid || !si.rec.hasUndo)
            continue;
        out.push_back(UndoEntry{m.seqNo, si.rec.addr, si.rec.size,
                                si.rec.undo});
    }
    std::sort(out.begin(), out.end(),
              [](const UndoEntry &a, const UndoEntry &b) {
                  return a.seqNo > b.seqNo;
              });
    return out;
}

void
LogRegion::truncate(Tick now)
{
    tail = 0;
    pass = 1;
    for (auto &m : meta)
        m = SlotMeta{};
    // Clear the written markers of every slot. This keeps the
    // torn-bit window scan sound: at any instant the slot array holds
    // records of at most two adjacent passes. Truncation is rare
    // (log_create and post-recovery), so the sequential-write cost is
    // acceptable and is charged to the NVRAM device.
    clearSlots(now);
    persistHeader(now);
    truncates.inc();
}

void
LogRegion::clearSlots(Tick now)
{
    static constexpr std::uint64_t kChunk = 1024;
    std::uint8_t zeros[kChunk] = {};
    Addr begin = slotAddr(0);
    std::uint64_t bytes = slots * LogRecord::kSlotBytes;
    for (std::uint64_t off = 0; off < bytes; off += kChunk) {
        std::uint64_t n = std::min(kChunk, bytes - off);
        nvram.access(true, begin + off, n, zeros, nullptr, now,
                     true, PersistOrigin::Meta);
    }
}

void
LogRegion::grow(std::uint64_t newBytes, Tick now)
{
    SNF_ASSERT(newBytes > kHeaderBytes + 2 * LogRecord::kSlotBytes,
               "log_grow target too small");
    regionSize = newBytes;
    slots = (newBytes - kHeaderBytes) / LogRecord::kSlotBytes;
    meta.assign(slots, SlotMeta{});
    tail = 0;
    pass = 1;
    clearSlots(now);
    persistHeader(now);
}

} // namespace snf::persist
