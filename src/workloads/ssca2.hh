/**
 * @file
 * SSCA2 microbenchmark (paper Table III, from HPCS SSCA#2 [46]): a
 * transactional implementation of scale-free graph analysis. The
 * kernel-1-style transactions insert weighted directed edges into
 * per-vertex adjacency arrays (with a power-law target distribution);
 * analysis transactions scan a vertex's edges and accumulate weights.
 *
 * Per-vertex invariant: degree <= capacity and the stored weight sum
 * equals the sum of the stored edge weights — a torn edge insert
 * (edge written without the degree/sum update, or vice versa) breaks
 * it.
 */

#ifndef SNF_WORKLOADS_SSCA2_HH
#define SNF_WORKLOADS_SSCA2_HH

#include <optional>

#include "workloads/workload.hh"

namespace snf::workloads
{

/** See file comment. */
class Ssca2 : public Workload
{
  public:
    std::string name() const override { return "ssca2"; }

    void setup(System &sys, const WorkloadParams &params) override;

    sim::Co<void> thread(System &sys, Thread &t,
                         const WorkloadParams &params) override;

    bool verify(const mem::BackingStore &nvram,
                std::string *why) const override;

    /** Each thread writes only its own vertex range. */
    bool threadPrivate() const override { return true; }

  private:
    static constexpr std::uint64_t kEdgeCapacity = 30;

    // Vertex layout: degree(8) | weightSum(8) | edges[cap]{to, w}.
    static constexpr std::uint64_t kDegree = 0;
    static constexpr std::uint64_t kWeightSum = 8;
    static constexpr std::uint64_t kEdges = 16;

    static constexpr std::uint64_t kVertexBytes =
        16 + kEdgeCapacity * 16;

    Addr vertexAddr(std::uint64_t v) const
    {
        return vertices + v * kVertexBytes;
    }

    Addr vertices = 0;
    std::uint64_t nvertices = 0;
    std::uint32_t nthreads = 1;
    /** Edge-target sampler, built in setup(), shared by every thread. */
    std::optional<sim::Zipf> zipf;
};

} // namespace snf::workloads

#endif // SNF_WORKLOADS_SSCA2_HH
