/**
 * @file
 * Program-driven workload adapter: runs a conformlab transaction
 * program (fixed or generated from the run seed) through the standard
 * Workload interface, so random programs plug into the driver, the
 * crash sweep, and the differential runner unchanged.
 *
 * Layout: private slots are packed 8 bytes apart (partition
 * boundaries may share a cache line — under a CC scheme that only
 * costs false-conflict waits). Each shared slot sits on its own
 * 64-byte line, so the tracker's per-line locks are per-slot locks
 * and deadlock/conflict structure in a program survives translation
 * to addresses exactly.
 *
 * Execution: ops go through the CC-aware txStore64/txLoad64. When an
 * access reports deadlock, or txCommit() diverts to rollback (TL2
 * validation failure), the transaction is retried from tx_begin with
 * exponential backoff — the standard abort-retry discipline.
 * txSeqOf() reports the *final* attempt's tracker sequence.
 */

#ifndef SNF_WORKLOADS_PROG_HH
#define SNF_WORKLOADS_PROG_HH

#include <memory>
#include <vector>

#include "conformlab/oracle.hh"
#include "conformlab/program.hh"
#include "workloads/workload.hh"

namespace snf::workloads
{

/** See file comment. */
class ProgWorkload : public Workload
{
  public:
    /** Generate the program from WorkloadParams at setup() time
     *  (snfsim/snfcrash `--workload prog`): params.seed is the
     *  program seed, params.threads the thread count,
     *  params.footprint (if nonzero) the partition size, and
     *  params.conflictRate the shared-region targeting rate. */
    ProgWorkload() = default;

    /** Run a fixed program (conformlab differential runner). */
    explicit ProgWorkload(conformlab::Program p);

    std::string name() const override { return "prog"; }

    void setup(System &sys, const WorkloadParams &params) override;

    sim::Co<void> thread(System &sys, Thread &t,
                         const WorkloadParams &params) override;

    /**
     * Model-consistency check: every thread partition must equal the
     * oracle applied to some prefix of that thread's committed
     * transactions, and every shared slot must hold one of its
     * candidate values (init or some committed transaction's last
     * write). Sound for graceful images (the full prefix) and
     * recovered crash images alike; the differential runner layers
     * the durable/initiated bounds — and the exact commit-order
     * serializability check for shared slots — on top via txSeqOf().
     */
    bool verify(const mem::BackingStore &nvram,
                std::string *why) const override;

    const conformlab::Program &program() const { return prog; }

    const conformlab::ModelOracle &oracle() const { return *model; }

    /** NVRAM address of a global slot (valid after setup). */
    Addr
    slotAddr(std::uint32_t globalSlot) const
    {
        if (globalSlot < prog.privateSlots())
            return base + static_cast<Addr>(globalSlot) * 8;
        return sharedBase +
               static_cast<Addr>(globalSlot - prog.privateSlots()) *
                   64;
    }

    /** First heap byte the program touches (valid after setup). */
    Addr heapBase() const { return base; }

    /** Bytes from heapBase() to one past the last slot. */
    std::uint64_t
    heapSpanBytes() const
    {
        Addr end = prog.sharedSlots != 0
                       ? sharedBase + static_cast<Addr>(
                                          prog.sharedSlots - 1) *
                                          64 +
                             8
                       : base + static_cast<Addr>(
                                    prog.privateSlots()) *
                                    8;
        return end - base;
    }

    /**
     * Tracker sequence number the run assigned to program tx @p i
     * (0 until that tx_begin executed; the final attempt after
     * abort-retry). Lets the differential runner match probe events
     * back to program transactions.
     */
    std::uint64_t txSeqOf(std::size_t i) const { return txSeqs[i]; }

    /**
     * Values the final attempt of program tx @p i loaded, one entry
     * per op (non-load positions hold 0). Feed to
     * SerialOracle::checkReads.
     */
    const std::vector<std::uint64_t> &
    readsOf(std::size_t i) const
    {
        return readObs[i];
    }

  private:
    conformlab::Program prog;
    bool fixedProgram = false;
    std::unique_ptr<conformlab::ModelOracle> model;
    Addr base = 0;
    Addr sharedBase = 0;
    std::vector<std::uint64_t> txSeqs;
    std::vector<std::vector<std::uint64_t>> readObs;
};

} // namespace snf::workloads

#endif // SNF_WORKLOADS_PROG_HH
