/**
 * @file
 * WHISPER "echo" workload equivalent: a persistent, per-thread
 * append-only message queue (the scalable timestamped KV-store of
 * echo reduced to its persistent-append core). Each transaction
 * appends a timestamped 4-word message and advances the queue head.
 *
 * Invariant: head equals the number of fully-written messages, every
 * message is stamped with its sequence number, and its checksum word
 * matches its body — torn appends break it.
 */

#ifndef SNF_WORKLOADS_WHISPER_ECHO_HH
#define SNF_WORKLOADS_WHISPER_ECHO_HH

#include "workloads/workload.hh"

namespace snf::workloads
{

/** See file comment. */
class WhisperEcho : public Workload
{
  public:
    std::string name() const override { return "echo"; }

    void setup(System &sys, const WorkloadParams &params) override;

    sim::Co<void> thread(System &sys, Thread &t,
                         const WorkloadParams &params) override;

    bool verify(const mem::BackingStore &nvram,
                std::string *why) const override;

    /** Each thread appends to its own message queue. */
    bool threadPrivate() const override { return true; }

  private:
    // Message: seq(8) | body(3 x 8) | checksum(8).
    static constexpr std::uint64_t kMsgBytes = 40;

    Addr queueHeadAddr(std::uint32_t tid) const
    {
        return heads + tid * 8;
    }

    Addr msgAddr(std::uint32_t tid, std::uint64_t i) const
    {
        return slots + (tid * perThread + i) * kMsgBytes;
    }

    Addr heads = 0;
    Addr slots = 0;
    Addr connState = 0;
    std::uint64_t perThread = 0;
    std::uint32_t nthreads = 1;
};

} // namespace snf::workloads

#endif // SNF_WORKLOADS_WHISPER_ECHO_HH
