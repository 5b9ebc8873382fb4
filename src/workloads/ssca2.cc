#include "workloads/ssca2.hh"

#include "sim/logging.hh"

namespace snf::workloads
{

void
Ssca2::setup(System &sys, const WorkloadParams &params)
{
    nvertices = params.footprint != 0 ? params.footprint : 1024;
    nthreads = params.threads;
    nvertices -= nvertices % nthreads;

    vertices = sys.heap().alloc(nvertices * kVertexBytes, 64);
    // Preload a sparse seed graph: a few edges per vertex.
    sim::Rng rng(params.seed);
    zipf.emplace(nvertices, 0.6);
    for (std::uint64_t v = 0; v < nvertices; ++v) {
        std::uint64_t deg = rng.below(4);
        std::uint64_t sum = 0;
        for (std::uint64_t e = 0; e < deg; ++e) {
            std::uint64_t to = zipf->sample(rng) + 1;
            std::uint64_t w = rng.range(1, 100);
            sys.heap().prewrite64(
                vertexAddr(v) + kEdges + e * 16, to);
            sys.heap().prewrite64(
                vertexAddr(v) + kEdges + e * 16 + 8, w);
            sum += w;
        }
        sys.heap().prewrite64(vertexAddr(v) + kDegree, deg);
        sys.heap().prewrite64(vertexAddr(v) + kWeightSum, sum);
    }
}

sim::Co<void>
Ssca2::thread(System &sys, Thread &t, const WorkloadParams &params)
{
    (void)sys;
    sim::Rng rng(params.seed * 65537 + t.id());
    std::uint64_t share = nvertices / nthreads;
    std::uint64_t lo = t.id() * share;

    for (std::uint64_t n = 0; n < params.txPerThread; ++n) {
        std::uint64_t u = lo + rng.below(share);
        Addr va = vertexAddr(u);

        co_await t.txBegin();
        co_await t.compute(8);

        std::uint64_t deg = co_await t.load64(va + kDegree);
        if (rng.chance(0.8) && deg < kEdgeCapacity) {
            // Kernel 1: insert a weighted edge.
            std::uint64_t to = zipf->sample(rng) + 1;
            std::uint64_t w = rng.range(1, 100);
            co_await t.store64(va + kEdges + deg * 16, to);
            co_await t.store64(va + kEdges + deg * 16 + 8, w);
            std::uint64_t sum = co_await t.load64(va + kWeightSum);
            co_await t.store64(va + kWeightSum, sum + w);
            co_await t.store64(va + kDegree, deg + 1);
        } else {
            // Analysis: scan the adjacency list, chase one hop, and
            // accumulate weights (read-mostly transaction).
            std::uint64_t acc = 0;
            for (std::uint64_t e = 0; e < deg; ++e) {
                std::uint64_t to =
                    co_await t.load64(va + kEdges + e * 16);
                std::uint64_t w =
                    co_await t.load64(va + kEdges + e * 16 + 8);
                acc += w;
                co_await t.compute(4);
                if (e == 0 && to >= 1 && to <= nvertices) {
                    // One-hop neighbour degree probe.
                    co_await t.load64(vertexAddr(to - 1) + kDegree);
                }
            }
            (void)acc;
        }
        co_await t.txCommit();
    }
}

bool
Ssca2::verify(const mem::BackingStore &nvram, std::string *why) const
{
    for (std::uint64_t v = 0; v < nvertices; ++v) {
        Addr va = vertexAddr(v);
        std::uint64_t deg = nvram.read64(va + kDegree);
        std::uint64_t sum = nvram.read64(va + kWeightSum);
        if (deg > kEdgeCapacity) {
            if (why)
                *why = strfmt("vertex %llu: degree %llu > capacity",
                              static_cast<unsigned long long>(v),
                              static_cast<unsigned long long>(deg));
            return false;
        }
        std::uint64_t acc = 0;
        for (std::uint64_t e = 0; e < deg; ++e) {
            std::uint64_t to = nvram.read64(va + kEdges + e * 16);
            std::uint64_t w = nvram.read64(va + kEdges + e * 16 + 8);
            if (to == 0 || to > nvertices || w == 0 || w > 100) {
                if (why)
                    *why = strfmt("vertex %llu edge %llu malformed",
                                  static_cast<unsigned long long>(v),
                                  static_cast<unsigned long long>(e));
                return false;
            }
            acc += w;
        }
        if (acc != sum) {
            if (why)
                *why = strfmt("vertex %llu: weight sum %llu != %llu",
                              static_cast<unsigned long long>(v),
                              static_cast<unsigned long long>(acc),
                              static_cast<unsigned long long>(sum));
            return false;
        }
    }
    return true;
}

} // namespace snf::workloads
