#include "persist/log_buffer.hh"

#include <algorithm>
#include <cstring>

#include "mem/mem_device.hh"
#include "sim/logging.hh"

namespace snf::persist
{

LogBuffer::LogBuffer(LogRegion &logRegion, mem::MemDevice &dev,
                     mem::BusMonitor *busMonitor, std::uint32_t entries,
                     std::uint32_t nvramLineBytes, bool tornTestMode)
    : region(logRegion),
      nvram(dev),
      monitor(busMonitor),
      capacity(entries),
      lineBytes(nvramLineBytes),
      tornTest(tornTestMode),
      statGroup("log_buffer"),
      recordsAppended(statGroup.counter("records")),
      groupsDrained(statGroup.counter("groups")),
      bytesDrained(statGroup.counter("bytes")),
      stalls(statGroup.counter("stalls")),
      stallCycles(statGroup.counter("stall_cycles"))
{
}

Tick
LogBuffer::flushGroup(Tick now)
{
    SNF_ASSERT(hasOpen, "flush with no open group");
    Tick issue = std::max(now, lastDrainDone);
    Tick done = nvram.access(true, open.base, open.bytes.size(),
                             tornTest ? nullptr : open.bytes.data(),
                             nullptr, issue, true,
                             PersistOrigin::LogDrain)
                    .done;
    if (tornTest) {
        // Torn-record test mode times the group like any other drain
        // but lands it slot by slot at distinct ticks, the last at
        // the drain's completion, so a crash can land inside a record
        // (torn-bit tests, I5). The payload bytes [8..32) land before
        // the header word [0..8) that carries the written marker and
        // torn bit, so a partially-arrived record is never mistaken
        // for a valid one.
        std::uint32_t slot_bytes = LogRecord::kSlotBytes;
        Tick pieces = 2 * open.bytes.size() / slot_bytes;
        SNF_ASSERT(done - issue >= pieces,
                   "drain window of %llu cycles is too short for %llu pieces",
                   static_cast<unsigned long long>(done - issue),
                   static_cast<unsigned long long>(pieces));
        Tick at = done - pieces;
        for (std::size_t off = 0; off < open.bytes.size();
             off += slot_bytes) {
            const std::uint8_t *src = open.bytes.data() + off;
            nvram.landPiece(open.base + off + 8, slot_bytes - 8,
                            src + 8, ++at, issue,
                            PersistOrigin::LogDrain);
            nvram.landPiece(open.base + off, 8, src, ++at, issue,
                            PersistOrigin::LogDrain);
        }
    }
    lastDrainDone = done;
    groupsDrained.inc();
    bytesDrained.inc(open.bytes.size());
    if (monitor) {
        for (mem::BusMonitor::Record r : open.covered)
            monitor->onLogDrain(r, done);
    }
    if (probe) {
        probe(sim::ProbeEvent::LogDrain, done, open.records);
        for (TxId tx : open.commits)
            probe(sim::ProbeEvent::CommitDurable, done, tx);
    }
    inflight.emplace_back(open.records, done);
    hasOpen = false;
    open.clear();
    return done;
}

std::size_t
LogBuffer::occupancy(Tick now) const
{
    while (!inflight.empty() && inflight.front().second <= now)
        inflight.pop_front();
    std::size_t n = hasOpen ? open.records : 0;
    for (auto &[records, done] : inflight)
        n += records;
    return n;
}

Tick
LogBuffer::append(const LogRecord &rec, Tick now)
{
    auto reservation = region.reserve(rec, now);
    lastReservedSlot = reservation.slot;

    std::uint8_t slot_img[LogRecord::kSlotBytes];
    rec.serialize(slot_img, reservation.torn);

    Addr line = reservation.addr & ~static_cast<Addr>(lineBytes - 1);
    bool contiguous =
        hasOpen && line == open.lineAddr &&
        reservation.addr == open.base + open.bytes.size();
    if (hasOpen && !contiguous)
        flushGroup(now);

    if (!hasOpen) {
        hasOpen = true;
        open.lineAddr = line;
        open.base = reservation.addr;
    }
    open.bytes.insert(open.bytes.end(), slot_img,
                      slot_img + LogRecord::kSlotBytes);
    open.records += 1;
    recordsAppended.inc();

    // Commit and prepare records guard no data line; feeding their
    // zero address to the bus monitor would poison its coverage map.
    Addr data_line = rec.addr & ~static_cast<Addr>(lineBytes - 1);
    if (monitor && !rec.isCommit && !rec.isPrepare)
        open.covered.push_back(monitor->onLogAppend(data_line, now));
    if (rec.isCommit)
        open.commits.push_back(rec.tx);

    // Reclaiming the slot may have waited for a forced write-back;
    // the store cannot proceed before then.
    Tick proceed = std::max(now, reservation.readyAt);
    if (capacity == 0) {
        // No log buffer: the record is forced onto the NVRAM bus and
        // the store waits for the bus to accept it.
        Tick issue = std::max(now, lastDrainDone);
        flushGroup(now);
        proceed = std::max(proceed, issue);
        if (issue > now)
            stalls.inc();
    } else if (occupancy(now) > capacity) {
        // FIFO full: stall the store until the oldest group retires.
        // A group that fills its log line issues now; a half-filled
        // one stays open for the record that completes its line, so
        // back-pressure does not split a line into two NVRAM writes.
        if (hasOpen &&
            open.base + open.bytes.size() == open.lineAddr + lineBytes)
            flushGroup(now);
        while (occupancy(proceed) > capacity && !inflight.empty()) {
            proceed = inflight.front().second;
            inflight.pop_front();
        }
        if (proceed > now) {
            stalls.inc();
            stallCycles.inc(proceed - now);
        }
    }
    return proceed;
}

Tick
LogBuffer::drainAll(Tick now)
{
    Tick done = lastDrainDone;
    if (hasOpen)
        done = flushGroup(now);
    return std::max(done, now);
}

void
LogBuffer::dropAll()
{
    hasOpen = false;
    open.clear();
    inflight.clear();
}

} // namespace snf::persist
