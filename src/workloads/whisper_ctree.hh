/**
 * @file
 * WHISPER "ctree" workload (pmemobj ctree equivalent): an unbalanced
 * binary search tree in persistent memory with insert-if-absent /
 * remove-if-found transactions. Structurally simpler than the RBTree
 * microbenchmark (no rebalancing, as in pmem's crit-bit tree), with a
 * per-thread tree and a persistent node count.
 */

#ifndef SNF_WORKLOADS_WHISPER_CTREE_HH
#define SNF_WORKLOADS_WHISPER_CTREE_HH

#include "workloads/workload.hh"

namespace snf::workloads
{

/** See file comment. */
class WhisperCtree : public Workload
{
  public:
    std::string name() const override { return "ctree"; }

    void setup(System &sys, const WorkloadParams &params) override;

    sim::Co<void> thread(System &sys, Thread &t,
                         const WorkloadParams &params) override;

    bool verify(const mem::BackingStore &nvram,
                std::string *why) const override;

    /** Each thread owns one tree. */
    bool threadPrivate() const override { return true; }

  private:
    // Node layout: key(8) | left(8) | right(8) | value...
    static constexpr std::uint64_t kKey = 0;
    static constexpr std::uint64_t kLeft = 8;
    static constexpr std::uint64_t kRight = 16;
    static constexpr std::uint64_t kValue = 24;

    std::uint64_t nodeBytes() const { return 24 + valueWords * 8; }

    Addr headerAddr(std::uint32_t tid) const
    {
        return headers + tid * 16; // root(8) | count(8)
    }

    bool checkSubtree(const mem::BackingStore &nvram, Addr node,
                      std::uint64_t lo, std::uint64_t hi,
                      std::uint64_t &count, std::string *why) const;

    Addr headers = 0;
    std::uint32_t nthreads = 1;
    std::uint64_t valueWords = 1;
    std::uint64_t keyspacePerThread = 0;
};

} // namespace snf::workloads

#endif // SNF_WORKLOADS_WHISPER_CTREE_HH
