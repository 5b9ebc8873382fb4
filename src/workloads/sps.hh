/**
 * @file
 * SPS microbenchmark (paper Table III, from Kiln [13]): random swaps
 * between entries of a persistent vector. Each transaction swaps two
 * random elements — two loads and two stores — making it the most
 * write-intensive microbenchmark.
 *
 * Invariant: the multiset of values is a permutation of the initial
 * contents; verified via sum and xor aggregates, which atomic swaps
 * preserve across crashes.
 */

#ifndef SNF_WORKLOADS_SPS_HH
#define SNF_WORKLOADS_SPS_HH

#include "workloads/workload.hh"

namespace snf::workloads
{

/** See file comment. */
class Sps : public Workload
{
  public:
    std::string name() const override { return "sps"; }

    void setup(System &sys, const WorkloadParams &params) override;

    sim::Co<void> thread(System &sys, Thread &t,
                         const WorkloadParams &params) override;

    bool verify(const mem::BackingStore &nvram,
                std::string *why) const override;

    /** Swaps preserve the multiset invariant from any starting
     *  permutation, so SPS can resume on a recovered image. */
    bool resumable() const override { return true; }

    /** Each thread swaps within its own slice of the array. */
    bool threadPrivate() const override { return true; }

    Addr arrayBase() const { return base; }

    std::uint64_t elements() const { return count; }

  private:
    Addr base = 0;
    std::uint64_t count = 0;
    std::uint64_t wordsPerElement = 1;
    std::uint64_t expectedSum = 0;
    std::uint64_t expectedXor = 0;
};

} // namespace snf::workloads

#endif // SNF_WORKLOADS_SPS_HH
