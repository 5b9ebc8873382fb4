#include "mem/write_combine_buffer.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace snf::mem
{

WriteCombineBuffer::WriteCombineBuffer(MemDevice &device,
                                       std::uint32_t numEntries,
                                       std::uint32_t line)
    : dev(device),
      capacity(numEntries),
      lineBytes(line),
      ring(numEntries),
      lineData(static_cast<std::size_t>(numEntries) * line),
      statGroup("wcb"),
      coalescedStores(statGroup.counter("coalesced_stores")),
      flushes(statGroup.counter("flushes")),
      flushWaitCycles(statGroup.counter("flush_wait_cycles")),
      drainWaitCycles(statGroup.counter("drain_wait_cycles"))
{
    SNF_ASSERT(capacity > 0, "WCB without entries");
    for (std::uint32_t i = 0; i < capacity; ++i)
        ring[i].data = lineData.data() + std::size_t{i} * lineBytes;
}

Tick
WriteCombineBuffer::flushOldest(Tick now)
{
    SNF_ASSERT(count > 0, "flush on empty WCB");
    const Entry &e = ring[head];
    head = (head + 1) % capacity;
    --count;
    // Serialize flushes: the WCB has one port to the memory bus.
    Tick issue = std::max(now, lastDone);
    flushWaitCycles.inc(issue - now);
    auto res = dev.access(true, e.lineAddr + e.lo, e.hi - e.lo,
                          e.data + e.lo, nullptr, issue, true,
                          PersistOrigin::WcbFlush);
    lastDone = res.done;
    flushes.inc();
    if (probe)
        probe(sim::ProbeEvent::WcbFlush, res.done, e.lineAddr);
    inflight.push_back(res.done);
    while (!inflight.empty() && inflight.front() <= now)
        inflight.pop_front();
    return res.done;
}

Tick
WriteCombineBuffer::append(Addr addr, std::uint32_t size,
                           const void *data, Tick now)
{
    SNF_ASSERT(size > 0 && size <= 8, "WCB store size %u", size);
    Addr line = addr & ~static_cast<Addr>(lineBytes - 1);
    std::uint32_t off = static_cast<std::uint32_t>(addr - line);
    SNF_ASSERT(off + size <= lineBytes, "WCB store crosses line");

    for (std::uint32_t i = 0; i < count; ++i) {
        Entry &e = ring[(head + i) % capacity];
        if (e.lineAddr == line) {
            std::memcpy(e.data + off, data, size);
            e.lo = std::min(e.lo, off);
            e.hi = std::max(e.hi, off + size);
            coalescedStores.inc();
            return now + 1;
        }
    }

    Tick visible = now + 1;
    if (count >= capacity) {
        flushOldest(now);
        // If too many flushes are still in flight, the store stalls
        // until the oldest ones retire and at most `capacity` remain
        // (the log buffer's FIFO-full rule).
        while (inflight.size() > capacity) {
            visible = std::max(visible, inflight.front());
            inflight.pop_front();
        }
    }

    Entry &e = ring[(head + count) % capacity];
    ++count;
    e.lineAddr = line;
    e.lo = off;
    e.hi = off + size;
    // A flush writes [lo, hi), so bytes between two stores to the
    // line go out as zeros.
    std::memset(e.data, 0, lineBytes);
    std::memcpy(e.data + off, data, size);
    return visible;
}

Tick
WriteCombineBuffer::drainAll(Tick now)
{
    // A fence also waits for the flushes issued before it: an empty
    // buffer may still have capacity flushes in flight.
    Tick done = std::max(now, lastDone);
    while (count > 0)
        done = std::max(done, flushOldest(now));
    drainWaitCycles.inc(done - now);
    return done;
}

void
WriteCombineBuffer::dropAll()
{
    // Account for every in-flight write: each discarded entry is
    // announced so traces (and reorderlab) know which lines were
    // pending in the WCB when the crash model wiped it.
    if (probe) {
        for (std::uint32_t i = 0; i < count; ++i)
            probe(sim::ProbeEvent::WcbDrop, 0,
                  ring[(head + i) % capacity].lineAddr);
    }
    count = 0;
    inflight.clear();
}

} // namespace snf::mem
