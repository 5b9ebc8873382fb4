/**
 * @file
 * RBTree microbenchmark (paper Table III, from Kiln [13]): a
 * red-black tree in persistent memory. Each transaction searches for
 * a key, inserting it if absent and removing it if found — full CLRS
 * insert and delete with rebalancing, executed transactionally.
 *
 * Each thread owns an independent tree (one persistent transaction
 * stream per thread). Verification re-checks every red-black
 * invariant on the NVRAM image: BST order, red nodes have black
 * children, equal black height on all paths, parent-pointer
 * consistency, and node count against a persistent size field.
 */

#ifndef SNF_WORKLOADS_RBTREE_HH
#define SNF_WORKLOADS_RBTREE_HH

#include "workloads/workload.hh"

namespace snf::workloads
{

/** See file comment. */
class RbTree : public Workload
{
  public:
    std::string name() const override { return "rbtree"; }

    void setup(System &sys, const WorkloadParams &params) override;

    sim::Co<void> thread(System &sys, Thread &t,
                         const WorkloadParams &params) override;

    bool verify(const mem::BackingStore &nvram,
                std::string *why) const override;

    /** Each thread owns one tree. */
    bool threadPrivate() const override { return true; }

  private:
    // Node layout.
    static constexpr std::uint64_t kKey = 0;
    static constexpr std::uint64_t kColor = 8; ///< 1 = red, 0 = black
    static constexpr std::uint64_t kLeft = 16;
    static constexpr std::uint64_t kRight = 24;
    static constexpr std::uint64_t kParent = 32;
    static constexpr std::uint64_t kValue = 40;

    // Per-thread tree header layout: root(8) | count(8) | nil(8).
    static constexpr std::uint64_t kHeaderBytes = 24;

    std::uint64_t nodeBytes() const { return 40 + valueWords * 8; }

    Addr headerAddr(std::uint32_t tid) const
    {
        return headers + tid * kHeaderBytes;
    }

    /** Allocate and functionally initialize a node (setup only). */
    Addr prealloc(System &sys, Addr nil, std::uint64_t key) const;

    // Coroutine helpers; hdr is the owning tree's header address.
    sim::Co<void> leftRotate(Thread &t, Addr hdr, Addr nil, Addr x);
    sim::Co<void> rightRotate(Thread &t, Addr hdr, Addr nil, Addr x);
    sim::Co<void> insertFixup(Thread &t, Addr hdr, Addr nil, Addr z);
    sim::Co<void> transplant(Thread &t, Addr hdr, Addr nil, Addr u,
                             Addr v);
    sim::Co<void> deleteFixup(Thread &t, Addr hdr, Addr nil, Addr x);
    sim::Co<Addr> treeMinimum(Thread &t, Addr nil, Addr x);
    sim::Co<void> insertNode(System &sys, Thread &t, Addr hdr,
                             Addr nil, std::uint64_t key,
                             sim::Rng &rng);
    sim::Co<void> deleteNode(Thread &t, Addr hdr, Addr nil, Addr z);

    /** Recursive invariant check; returns black height or -1. */
    int checkSubtree(const mem::BackingStore &nvram, Addr nil,
                     Addr node, Addr parent, std::uint64_t lo,
                     std::uint64_t hi, std::uint64_t &count,
                     std::string *why) const;

    Addr headers = 0;
    std::uint32_t nthreads = 1;
    std::uint64_t valueWords = 1;
    std::uint64_t keyspacePerThread = 0;
};

} // namespace snf::workloads

#endif // SNF_WORKLOADS_RBTREE_HH
