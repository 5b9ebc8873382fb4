/**
 * @file
 * WHISPER "ycsb" workload equivalent: YCSB workload-A over a
 * persistent key-value table — zipfian key popularity, 50% reads /
 * 50% whole-record updates. Records are 104-byte values guarded by
 * per-record DRAM spinlocks (hot keys are shared across threads).
 *
 * Invariant: every record's payload words all carry the record's
 * version stamp — a torn (non-atomic) update breaks it.
 */

#ifndef SNF_WORKLOADS_WHISPER_YCSB_HH
#define SNF_WORKLOADS_WHISPER_YCSB_HH

#include <optional>

#include "workloads/workload.hh"

namespace snf::workloads
{

/** See file comment. */
class WhisperYcsb : public Workload
{
  public:
    std::string name() const override { return "ycsb"; }

    void setup(System &sys, const WorkloadParams &params) override;

    sim::Co<void> thread(System &sys, Thread &t,
                         const WorkloadParams &params) override;

    bool verify(const mem::BackingStore &nvram,
                std::string *why) const override;

  private:
    static constexpr std::uint64_t kPayloadWords = 13; ///< 104 bytes

    // Record: version(8) | payload(13 x 8).
    static constexpr std::uint64_t kRecordBytes =
        8 + kPayloadWords * 8;

    Addr recordAddr(std::uint64_t k) const
    {
        return records + k * kRecordBytes;
    }

    Addr records = 0;
    Addr locks = 0; ///< DRAM spinlock per record
    Addr index = 0; ///< DRAM index (key -> slot metadata)
    std::uint64_t nrecords = 0;
    /** Key sampler, built in setup(), shared by every thread. */
    std::optional<sim::Zipf> zipf;
};

} // namespace snf::workloads

#endif // SNF_WORKLOADS_WHISPER_YCSB_HH
