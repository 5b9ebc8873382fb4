/**
 * @file
 * Hash microbenchmark (paper Table III, from NV-heaps [29]): an
 * open-chain hash table in persistent memory. Each transaction
 * searches for a key, inserting it if absent and removing it if
 * found.
 *
 * Each bucket stores a head pointer and a chain count updated in the
 * same transaction as the chain mutation; verification walks every
 * chain and checks it against the count, which any non-atomic
 * insert/remove would break.
 *
 * Threads own disjoint bucket ranges (one independent persistent
 * transaction stream per thread, as in paper Figure 4).
 */

#ifndef SNF_WORKLOADS_HASH_HH
#define SNF_WORKLOADS_HASH_HH

#include "workloads/workload.hh"

namespace snf::workloads
{

/**
 * Shared open-chain hash-table engine; the microbenchmark (Hash) and
 * the WHISPER hashmap workload differ only in their operation mix.
 */
class OpenChainHashBase : public Workload
{
  public:
    void setup(System &sys, const WorkloadParams &params) override;

    sim::Co<void> thread(System &sys, Thread &t,
                         const WorkloadParams &params) override;

    bool verify(const mem::BackingStore &nvram,
                std::string *why) const override;

    /** Each thread owns a slice of the buckets and the nodes it
     *  inserts. */
    bool threadPrivate() const override { return true; }

  protected:
    /** Fraction of transactions that are pure lookups. */
    virtual double lookupFraction() const { return 0.0; }

    // Node layout: key(8) | next(8) | value(valueWords * 8).
    static constexpr std::uint64_t kKeyOff = 0;
    static constexpr std::uint64_t kNextOff = 8;
    static constexpr std::uint64_t kValueOff = 16;

    // Bucket layout: head(8) | count(8).
    static constexpr std::uint64_t kBucketBytes = 16;

    std::uint64_t nodeBytes() const { return 16 + valueWords * 8; }

    Addr bucketAddr(std::uint64_t b) const
    {
        return buckets + b * kBucketBytes;
    }

    static std::uint64_t mixKey(std::uint64_t key);

    Addr buckets = 0;
    std::uint64_t nbuckets = 0;
    std::uint64_t valueWords = 1;
    std::uint64_t keyspacePerThread = 0;
    std::uint32_t nthreads = 1;
};

/** The paper's Hash microbenchmark. */
class HashMicro : public OpenChainHashBase
{
  public:
    std::string name() const override { return "hash"; }
};

} // namespace snf::workloads

#endif // SNF_WORKLOADS_HASH_HH
