#include "crashlab/trace.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace snf::crashlab
{

sim::ProbeFn
CrashTrace::collector()
{
    return [this](sim::ProbeEvent kind, Tick tick, std::uint64_t arg) {
        stream.push_back(Event{kind, tick, arg});
    };
}

void
CrashTrace::finalize()
{
    SNF_ASSERT(!finalized, "CrashTrace finalized twice");
    finalized = true;
    std::stable_sort(stream.begin(), stream.end(),
                     [](const Event &a, const Event &b) {
                         return a.tick < b.tick;
                     });
    // A transaction that ended with no log record (ReadOnlyEnd)
    // counts in no bound: recovery can find nothing of it.
    std::vector<std::uint64_t> recordless;
    for (const Event &e : stream)
        if (e.kind == sim::ProbeEvent::ReadOnlyEnd)
            recordless.push_back(e.arg);
    std::sort(recordless.begin(), recordless.end());
    auto counted = [&](const Event &e) {
        return !std::binary_search(recordless.begin(), recordless.end(),
                                   e.arg);
    };
    for (const Event &e : stream) {
        switch (e.kind) {
          case sim::ProbeEvent::TxBegin:
            beginTicks.push_back(e.tick);
            break;
          case sim::ProbeEvent::TxCommit:
            if (counted(e))
                commitTicks.push_back(e.tick);
            break;
          case sim::ProbeEvent::CommitDurable:
            durableTicks.push_back(e.tick);
            break;
          case sim::ProbeEvent::TxAbort:
            if (counted(e))
                abortTicks.push_back(e.tick);
            break;
          default:
            break;
        }
    }
}

std::vector<CrashPoint>
CrashTrace::harvest(Tick endTick) const
{
    SNF_ASSERT(finalized, "harvest() before finalize()");
    std::vector<CrashPoint> points;
    points.reserve(stream.size() * 2);
    for (const Event &e : stream) {
        if (e.tick > endTick)
            continue;
        // WcbDrop announces state the crash model already discarded
        // (the drop *is* the crash), and ReadOnlyEnd a transaction
        // that left nothing in NVRAM; neither changes the durable
        // image, so neither yields a crash point of its own.
        if (e.kind == sim::ProbeEvent::WcbDrop ||
            e.kind == sim::ProbeEvent::ReadOnlyEnd)
            continue;
        if (e.tick > 0)
            points.push_back(CrashPoint{e.tick - 1, e.kind, true});
        points.push_back(CrashPoint{e.tick, e.kind, false});
    }
    std::stable_sort(points.begin(), points.end(),
                     [](const CrashPoint &a, const CrashPoint &b) {
                         return a.tick < b.tick;
                     });
    points.erase(std::unique(points.begin(), points.end(),
                             [](const CrashPoint &a,
                                const CrashPoint &b) {
                                 return a.tick == b.tick;
                             }),
                 points.end());
    return points;
}

namespace
{

std::uint64_t
countLE(const std::vector<Tick> &sorted, Tick t)
{
    return static_cast<std::uint64_t>(
        std::upper_bound(sorted.begin(), sorted.end(), t) -
        sorted.begin());
}

} // namespace

std::uint64_t
CrashTrace::begunBy(Tick t) const
{
    SNF_ASSERT(finalized, "begunBy() before finalize()");
    return countLE(beginTicks, t);
}

std::uint64_t
CrashTrace::committedBy(Tick t) const
{
    SNF_ASSERT(finalized, "committedBy() before finalize()");
    return countLE(commitTicks, t);
}

std::uint64_t
CrashTrace::durableBy(Tick t) const
{
    SNF_ASSERT(finalized, "durableBy() before finalize()");
    return countLE(durableTicks, t);
}

std::uint64_t
CrashTrace::abortedBy(Tick t) const
{
    SNF_ASSERT(finalized, "abortedBy() before finalize()");
    return countLE(abortTicks, t);
}

} // namespace snf::crashlab
