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
      statGroup("wcb"),
      coalescedStores(statGroup.counter("coalesced_stores")),
      flushes(statGroup.counter("flushes"))
{
}

Tick
WriteCombineBuffer::flushOldest(Tick now)
{
    SNF_ASSERT(!entries.empty(), "flush on empty WCB");
    Entry e = std::move(entries.front());
    entries.pop_front();
    // Serialize flushes: the WCB has one port to the memory bus.
    Tick issue = std::max(now, lastFlushDone);
    auto res = dev.access(true, e.lineAddr + e.lo, e.hi - e.lo,
                          e.data.data() + e.lo, nullptr, issue, true,
                          PersistOrigin::WcbFlush);
    lastFlushDone = res.done;
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

    for (auto &e : entries) {
        if (e.lineAddr == line) {
            std::memcpy(e.data.data() + off, data, size);
            e.lo = std::min(e.lo, off);
            e.hi = std::max(e.hi, off + size);
            coalescedStores.inc();
            return now + 1;
        }
    }

    Tick visible = now + 1;
    if (entries.size() >= capacity) {
        Tick done = flushOldest(now);
        // If too many flushes are still in flight, the store stalls
        // until the oldest one retires.
        while (!inflight.empty() && inflight.front() <= now)
            inflight.pop_front();
        if (inflight.size() > capacity)
            visible = std::max(visible, done);
    }

    Entry e;
    e.lineAddr = line;
    e.lo = off;
    e.hi = off + size;
    e.data.assign(lineBytes, 0);
    std::memcpy(e.data.data() + off, data, size);
    entries.push_back(std::move(e));
    return visible;
}

Tick
WriteCombineBuffer::drainAll(Tick now)
{
    // A fence also waits for the flushes issued before it: an empty
    // buffer may still have capacity flushes in flight.
    Tick done = std::max(now, lastFlushDone);
    while (!entries.empty())
        done = std::max(done, flushOldest(now));
    return done;
}

void
WriteCombineBuffer::dropAll()
{
    // Account for every in-flight write: each discarded entry is
    // announced so traces (and reorderlab) know which lines were
    // pending in the WCB when the crash model wiped it.
    if (probe) {
        for (const Entry &e : entries)
            probe(sim::ProbeEvent::WcbDrop, 0, e.lineAddr);
    }
    entries.clear();
    inflight.clear();
}

} // namespace snf::mem
