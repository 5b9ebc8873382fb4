#include "mem/bus_monitor.hh"

#include <algorithm>

namespace snf::mem
{

BusMonitor::BusMonitor()
    : statGroup("bus_monitor"),
      orderViol(statGroup.counter("order_violations")),
      overwrite(statGroup.counter("overwrite_hazards")),
      checkedWritebacks(statGroup.counter("checked_writebacks"))
{
}

BusMonitor::Record
BusMonitor::onLogAppend(Addr dataLine, Tick tick)
{
    Record r = freeList;
    if (r != kNil) {
        freeList = records[r].next;
        records[r] = PendingLog{tick, kTickNever, kNil};
    } else {
        r = static_cast<Record>(records.size());
        records.push_back(PendingLog{tick, kTickNever, kNil});
    }
    Line &l = lines[dataLine];
    if (l.tail == kNil)
        l.head = r;
    else
        records[l.tail].next = r;
    l.tail = r;
    return r;
}

void
BusMonitor::onLogDrain(Record rec, Tick drainTick)
{
    records[rec].drain = drainTick;
}

Tick
BusMonitor::lastWritebackOf(Addr dataLine) const
{
    const Line *l = lines.find(dataLine);
    return l ? l->wbs.front().done : 0;
}

bool
BusMonitor::carriedSince(Addr dataLine, std::uint64_t stamp,
                         Tick now) const
{
    const Line *l = lines.find(dataLine);
    if (!l)
        return false;
    for (const Writeback &wb : l->wbs)
        if (wb.done != 0 && wb.done <= now)
            return wb.stamp > stamp;
    return false;
}

void
BusMonitor::onDataWriteback(Addr dataLine, Tick startTick, Tick doneTick,
                            std::uint64_t stamp)
{
    Line &l = lines[dataLine];
    std::copy_backward(l.wbs.begin(), l.wbs.end() - 1, l.wbs.end());
    l.wbs.front() = Writeback{doneTick, stamp};
    if (probe)
        probe(sim::ProbeEvent::DataWriteback, doneTick, dataLine);
    if (l.head == kNil)
        return;
    checkedWritebacks.inc();
    Record prev = kNil;
    for (Record r = l.head; r != kNil;) {
        PendingLog &p = records[r];
        Record next = p.next;
        // Records appended before this write-back started must have
        // drained by the time the data reaches NVRAM.
        if (p.append <= startTick &&
            (p.drain == kTickNever || p.drain > doneTick)) {
            orderViol.inc();
        }
        if (p.drain != kTickNever && p.drain <= doneTick) {
            (prev == kNil ? l.head : records[prev].next) = next;
            if (l.tail == r)
                l.tail = prev;
            p.next = freeList;
            freeList = r;
        } else {
            prev = r;
        }
        r = next;
    }
}

void
BusMonitor::onLogOverwriteHazard()
{
    overwrite.inc();
}

} // namespace snf::mem
