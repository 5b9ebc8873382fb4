/**
 * @file
 * BTree microbenchmark (paper Table III, STX B+Tree [45] inspired): a
 * B+ tree in persistent memory. Each transaction searches for a key,
 * inserting it (with node splits up to a new root) if absent and
 * removing it if found.
 *
 * Deletion is lazy (keys are removed from leaves without rebalancing;
 * underflowed leaves are permitted), which is a common simplification
 * in persistent B+-tree implementations and does not affect the
 * search/insert invariants that verification checks: sorted keys in
 * every node, separator consistency, a sorted global leaf chain, a
 * uniform leaf depth, and a persistent key count.
 */

#ifndef SNF_WORKLOADS_BTREE_HH
#define SNF_WORKLOADS_BTREE_HH

#include "workloads/workload.hh"

namespace snf::workloads
{

/** See file comment. */
class BTree : public Workload
{
  public:
    std::string name() const override { return "btree"; }

    void setup(System &sys, const WorkloadParams &params) override;

    sim::Co<void> thread(System &sys, Thread &t,
                         const WorkloadParams &params) override;

    bool verify(const mem::BackingStore &nvram,
                std::string *why) const override;

    /** Each thread owns one tree. */
    bool threadPrivate() const override { return true; }

  private:
    static constexpr std::uint64_t kMaxKeys = 7;
    static constexpr std::uint64_t kMinChildren = 2;

    // Node layout.
    static constexpr std::uint64_t kIsLeaf = 0;
    static constexpr std::uint64_t kNKeys = 8;
    static constexpr std::uint64_t kKeys = 16; ///< 7 x 8 bytes
    static constexpr std::uint64_t kSlots = 72; ///< children / values
    // Leaf: values (kMaxKeys x valueWords x 8) then next pointer.
    // Internal: children (8 x 8 bytes).

    std::uint64_t
    nodeBytes() const
    {
        std::uint64_t leaf = kSlots + kMaxKeys * valueWords * 8 + 8;
        std::uint64_t internal = kSlots + (kMaxKeys + 1) * 8;
        return std::max(leaf, internal);
    }

    Addr
    valueAddr(Addr leaf, std::uint64_t i) const
    {
        return leaf + kSlots + i * valueWords * 8;
    }

    Addr
    nextAddr(Addr leaf) const
    {
        return leaf + kSlots + kMaxKeys * valueWords * 8;
    }

    static Addr
    childAddr(Addr node, std::uint64_t i)
    {
        return node + kSlots + i * 8;
    }

    static Addr
    keyAddr(Addr node, std::uint64_t i)
    {
        return node + kKeys + i * 8;
    }

    Addr headerAddr(std::uint32_t tid) const
    {
        return headers + tid * 16; // root(8) | count(8)
    }

    Addr allocNode(System &sys, bool leaf) const;

    struct SplitResult
    {
        bool split = false;
        std::uint64_t key = 0;
        Addr right = 0;
        bool inserted = false;
    };

    sim::Co<SplitResult> insertRec(System &sys, Thread &t, Addr node,
                                   std::uint64_t key, sim::Rng &rng);

    sim::Co<bool> removeFromLeaf(Thread &t, Addr node,
                                 std::uint64_t key);

    int checkNode(const mem::BackingStore &nvram, Addr node,
                  std::uint64_t lo, std::uint64_t hi,
                  std::uint64_t &leafKeys, std::string *why) const;

    Addr headers = 0;
    std::uint32_t nthreads = 1;
    std::uint64_t valueWords = 1;
    std::uint64_t keyspacePerThread = 0;
};

} // namespace snf::workloads

#endif // SNF_WORKLOADS_BTREE_HH
