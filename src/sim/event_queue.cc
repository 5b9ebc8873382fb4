#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

namespace snf::sim
{

void
EventQueue::schedule(Tick when, Callback cb)
{
    heap.push_back(Entry{when, nextSeq++, std::move(cb)});
    std::push_heap(heap.begin(), heap.end(), later);
}

std::size_t
EventQueue::runUntil(Tick now)
{
    std::size_t n = 0;
    while (!heap.empty() && heap.front().when <= now) {
        std::pop_heap(heap.begin(), heap.end(), later);
        // Move out before invoking: the callback may schedule more.
        Entry e = std::move(heap.back());
        heap.pop_back();
        e.cb(e.when);
        ++n;
        ++executed;
    }
    return n;
}

} // namespace snf::sim
