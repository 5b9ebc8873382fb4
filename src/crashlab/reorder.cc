#include "crashlab/reorder.hh"

#include <algorithm>
#include <cstdio>
#include <set>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace snf::crashlab
{

namespace
{

/** Canonical apply order: completion tick, then journal order. */
bool
canonicalLess(const PendingPersist &a, const PendingPersist &b)
{
    if (a.done != b.done)
        return a.done < b.done;
    return a.seq < b.seq;
}

void
appendEntryDesc(std::string &out, const PendingPersist &p)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "#%u %s 0x%llx+%u", p.seq,
                  persistOriginName(p.origin),
                  static_cast<unsigned long long>(p.addr), p.size);
    out += buf;
}

} // namespace

bool
reorderEdge(const PendingPersist &earlier, const PendingPersist &later)
{
    // Rule 1: log drains, WCB flushes and device metadata share the
    // serialized priority channel — one FIFO acceptance queue at the
    // controller — so two pending non-data writes land in order.
    if (earlier.origin != PersistOrigin::Data &&
        later.origin != PersistOrigin::Data)
        return true;
    // Rule 2: overlapping byte ranges land in completion order (the
    // media serializes writes to the same cells).
    if (earlier.addr < later.addr + later.size &&
        later.addr < earlier.addr + earlier.size)
        return true;
    // Rule 3: independent lines are unordered. Barrier-enforced
    // pairs (fence, log-drain-before-data-writeback) never reach
    // here: the barrier separates issue after done, so the two are
    // never concurrently pending.
    return false;
}

PendingCursor::PendingCursor(const mem::BackingStore &store)
{
    store.forEachJournalRecord(
        [this](const mem::BackingStore::JournalRecord &r) {
            if (r.issue >= r.done)
                return; // never observable as pending
            PendingPersist p;
            p.issue = r.issue;
            p.done = r.done;
            p.addr = r.addr;
            p.size = r.size;
            p.origin = r.origin;
            p.seq = r.seq;
            p.data.assign(r.data, r.data + r.size);
            all.push_back(std::move(p));
        });
    std::sort(all.begin(), all.end(),
              [](const PendingPersist &a, const PendingPersist &b) {
                  if (a.issue != b.issue)
                      return a.issue < b.issue;
                  return a.seq < b.seq;
              });
}

std::vector<PendingPersist>
PendingCursor::pendingAt(Tick t)
{
    SNF_ASSERT(!started || t >= lastTick,
               "PendingCursor ticks must be non-decreasing "
               "(%llu after %llu)",
               static_cast<unsigned long long>(t),
               static_cast<unsigned long long>(lastTick));
    started = true;
    lastTick = t;

    while (pos < all.size() && all[pos].issue <= t)
        live.push_back(pos++);
    live.erase(std::remove_if(live.begin(), live.end(),
                              [&](std::size_t i) {
                                  return all[i].done <= t;
                              }),
               live.end());

    std::vector<PendingPersist> out;
    out.reserve(live.size());
    for (std::size_t i : live)
        out.push_back(all[i]);
    std::sort(out.begin(), out.end(), canonicalLess);
    return out;
}

std::vector<PendingPersist>
pendingPersistsAt(const mem::BackingStore &store, Tick t)
{
    PendingCursor cursor(store);
    return cursor.pendingAt(t);
}

std::string
ReorderImage::describe(
    const std::vector<PendingPersist> &pending) const
{
    std::string out;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "ideal %zu/%zu: [",
                  applied.size() + (tornIndex >= 0 ? 1 : 0),
                  pending.size());
    out += buf;
    std::size_t shown = 0;
    for (std::uint32_t idx : applied) {
        if (shown++ == 8) {
            out += ", ...";
            break;
        }
        if (shown > 1)
            out += ", ";
        appendEntryDesc(out, pending[idx]);
    }
    out += "]";
    if (tornIndex >= 0) {
        out += " torn ";
        appendEntryDesc(out, pending[tornIndex]);
        std::snprintf(buf, sizeof(buf), " at %u/%uB", tornBytes,
                      pending[tornIndex].size);
        out += buf;
    }
    return out;
}

std::vector<ReorderImage>
planReorderImages(const std::vector<PendingPersist> &pending,
                  const ReorderConfig &cfg, Tick tick)
{
    std::vector<ReorderImage> plans;
    std::size_t n = pending.size();
    if (n == 0 || cfg.maxImagesPerPoint == 0)
        return plans;

    // Predecessor adjacency under the enforced edges. Pending sets
    // are small (bounded by in-flight hardware state), so the O(n^2)
    // pair scan is cheap.
    std::vector<std::vector<std::uint32_t>> preds(n);
    for (std::size_t j = 0; j < n; ++j)
        for (std::size_t i = 0; i < j; ++i)
            if (reorderEdge(pending[i], pending[j]))
                preds[j].push_back(static_cast<std::uint32_t>(i));

    std::set<std::vector<std::uint32_t>> seen;
    auto addSubset = [&](std::vector<std::uint32_t> subset) {
        if (plans.size() >= cfg.maxImagesPerPoint)
            return;
        if (!seen.insert(subset).second)
            return;
        ReorderImage img;
        img.applied = std::move(subset);
        plans.push_back(std::move(img));
    };

    if (n <= cfg.exhaustiveBound &&
        n <= ReorderConfig::kMaxExhaustiveBound) {
        // Every non-empty order ideal, by bitmask: downward-closed
        // iff each member's predecessors are all members.
        std::vector<std::uint32_t> predMask(n, 0);
        for (std::size_t j = 0; j < n; ++j)
            for (std::uint32_t i : preds[j])
                predMask[j] |= 1u << i;
        for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
            bool closed = true;
            for (std::size_t j = 0; closed && j < n; ++j)
                if ((mask >> j) & 1u)
                    closed = (predMask[j] & ~mask) == 0;
            if (!closed)
                continue;
            std::vector<std::uint32_t> subset;
            for (std::size_t j = 0; j < n; ++j)
                if ((mask >> j) & 1u)
                    subset.push_back(static_cast<std::uint32_t>(j));
            addSubset(std::move(subset));
        }
    } else {
        // Seeded random linearization cuts: draw a random linear
        // extension prefix of random length — every such prefix is an
        // order ideal, and repeated draws cover the ideal lattice
        // without enumerating it.
        sim::Rng rng(cfg.seed ^ (tick * 0x9e3779b97f4a7c15ULL));
        std::vector<std::uint32_t> indeg(n);
        for (std::size_t s = 0; s < cfg.samples; ++s) {
            for (std::size_t j = 0; j < n; ++j)
                indeg[j] =
                    static_cast<std::uint32_t>(preds[j].size());
            std::vector<std::uint32_t> ready, chosen;
            for (std::size_t j = 0; j < n; ++j)
                if (indeg[j] == 0)
                    ready.push_back(static_cast<std::uint32_t>(j));
            std::size_t cut =
                static_cast<std::size_t>(rng.range(1, n));
            while (chosen.size() < cut && !ready.empty()) {
                std::size_t pick =
                    static_cast<std::size_t>(rng.below(ready.size()));
                std::uint32_t j = ready[pick];
                ready[pick] = ready.back();
                ready.pop_back();
                chosen.push_back(j);
                // Unlock successors of j.
                for (std::size_t k = 0; k < n; ++k) {
                    if (std::find(preds[k].begin(), preds[k].end(),
                                  j) == preds[k].end())
                        continue;
                    if (--indeg[k] == 0)
                        ready.push_back(
                            static_cast<std::uint32_t>(k));
                }
            }
            std::sort(chosen.begin(), chosen.end());
            addSubset(std::move(chosen));
        }
    }

    // Torn-line variants: tear each planned ideal's canonically last
    // element at 8-byte boundaries (64-byte FIFO-prefix boundaries
    // for multi-line drains). The remainder S \ {q} is itself an
    // ideal — q is maximal in S — so the torn image is legal.
    if (cfg.tornLines) {
        std::size_t base = plans.size();
        for (std::size_t p = 0;
             p < base && plans.size() < cfg.maxImagesPerPoint; ++p) {
            if (plans[p].applied.empty())
                continue;
            std::uint32_t q = plans[p].applied.back();
            std::uint32_t step = pending[q].size <= 64 ? 8 : 64;
            for (std::uint32_t off = step; off < pending[q].size;
                 off += step) {
                if (plans.size() >= cfg.maxImagesPerPoint)
                    break;
                ReorderImage img;
                img.applied.assign(plans[p].applied.begin(),
                                   plans[p].applied.end() - 1);
                img.tornIndex = static_cast<std::int32_t>(q);
                img.tornBytes = off;
                plans.push_back(std::move(img));
            }
        }
    }
    return plans;
}

void
applyReorderImage(mem::BackingStore &image,
                  const std::vector<PendingPersist> &pending,
                  const ReorderImage &plan)
{
    for (std::uint32_t idx : plan.applied) {
        const PendingPersist &p = pending[idx];
        image.write(p.addr, p.size, p.data.data());
    }
    if (plan.tornIndex >= 0) {
        const PendingPersist &p = pending[plan.tornIndex];
        SNF_ASSERT(plan.tornBytes > 0 && plan.tornBytes < p.size,
                   "torn split %u outside (0, %u)", plan.tornBytes,
                   p.size);
        image.write(p.addr, plan.tornBytes, p.data.data());
    }
}

} // namespace snf::crashlab
