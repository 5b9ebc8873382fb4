/**
 * @file
 * The single-producer single-consumer circular undo+redo log living in
 * NVRAM (paper Section III-A), with Lamport-style concurrent append/
 * truncate, torn-bit pass tracking, and reclamation hazard checks
 * (invariant I4: no live log entry may be overwritten while the
 * working data it protects is still volatile).
 */

#ifndef SNF_PERSIST_LOG_REGION_HH
#define SNF_PERSIST_LOG_REGION_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/system_config.hh"
#include "persist/log_record.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace snf::mem
{
class MemDevice;
} // namespace snf::mem

namespace snf::persist
{

/**
 * Manages slot allocation in the circular log. The volatile head and
 * tail pointers model the special registers of Section IV-B; a small
 * persisted header at the log base records the geometry (and is
 * refreshed on truncation). The torn bit of each record flips on each
 * pass over the log so recovery can find the window boundary without
 * a persisted tail pointer (Section IV-F).
 */
class LogRegion
{
  public:
    static constexpr std::uint64_t kMagic = 0x534e464c4f470001ULL;
    static constexpr std::uint32_t kHeaderBytes = 64;
    /**
     * Header word recovery raises (with replay and promotion already
     * complete) before zeroing the slot array, and clears after it.
     * A recovery pass finding it set resumes the zeroing directly —
     * it must not reinterpret a partially truncated slot array. The
     * live system never sets it: persistHeader()/create() write zero.
     */
    static constexpr std::uint32_t kTruncFlagOffset = 32;

    struct Reservation
    {
        std::uint64_t slot;
        Addr addr;
        bool torn;
        /**
         * Earliest tick the append may proceed at. Equals the append
         * tick unless reclaiming the slot waited for the forced
         * write-back of the line it guards.
         */
        Tick readyAt;
    };

    /** A log region over [base, base+size) in NVRAM. */
    LogRegion(Addr base, std::uint64_t size, mem::MemDevice &nvram,
              const std::string &statName = "log");

    /** Convenience: the (centralized) log region of an address map. */
    LogRegion(const AddressMap &map, mem::MemDevice &nvram);

    /** Write the persistent header (log_create()). */
    void create();

    /**
     * Reserve the next slot for @p rec, reclaiming the oldest entry
     * when the log has wrapped. @p now is the append tick, used for
     * reclamation-hazard evaluation.
     */
    Reservation reserve(const LogRecord &rec, Tick now);

    /**
     * Truncate the whole log (log_truncate()): every entry becomes
     * dead and the persisted header is refreshed.
     */
    void truncate(Tick now);

    /**
     * Resize the log (log_grow()). Only legal while no transaction is
     * active; resets the log to empty.
     */
    void grow(std::uint64_t newBytes, Tick now);

    std::uint64_t slotCount() const { return slots; }

    std::uint64_t tailSlot() const { return tail; }

    std::uint64_t passNumber() const { return pass; }

    Addr slotAddr(std::uint64_t slot) const;

    /** Current torn-bit value for new appends. */
    bool currentTorn() const { return (pass & 1) != 0; }

    /** Is this slot's record live (not yet reclaimed/truncated)?
     *  The online scrubber only repairs-in-place live slots; dead
     *  damaged ones it may zero outright. */
    bool
    slotLive(std::uint64_t slot) const
    {
        return slot < meta.size() && meta[slot].valid;
    }

    /**
     * Predicate: is the store a slot guards durable as of @p now? The
     * store is named by the line of its address and its copy stamp
     * (mem::MemorySystem::copyStamp, read once the store has written
     * its L1 line). It is durable once a write-back that carried a
     * later L1-to-L2 copy of the line has COMPLETED by @p now. A
     * write-back that has merely been issued — its completion tick
     * lies beyond @p now — does not count: the data is still in
     * flight and a crash before completion loses it. Neither does a
     * completed one that only carried older data, such as an FWB
     * write-back of the L2 copy while the store still sat in a
     * flagged L1 line. Wired by the System to
     * mem::BusMonitor::carriedSince.
     * Arguments: (addr, stamp, now).
     */
    using PersistedSincePred =
        std::function<bool(Addr, std::uint64_t, Tick)>;
    /** The copy stamp a store written to its L1 line now carries.
     *  Wired by the System to mem::MemorySystem::copyStamp. */
    using StampSource = std::function<std::uint64_t()>;
    using TxActivePred = std::function<bool(std::uint64_t)>;
    using HazardSink = std::function<void()>;
    /** Force the line holding an address back to NVRAM; returns the
     *  completion tick. Wired by the System to a cache flush. */
    using ForceWriteback = std::function<Tick(Addr, Tick)>;

    void setPersistedSince(PersistedSincePred p) { persistedSince = p; }

    void setStampSource(StampSource s) { stampSource = s; }

    void setTxActive(TxActivePred p) { txActive = p; }

    void setHazardSink(HazardSink h) { hazardSink = h; }

    void setForceWriteback(ForceWriteback f) { forceWriteback = f; }

    /** Associate the just-reserved slot with a transaction sequence. */
    void bindSlotTx(std::uint64_t slot, std::uint64_t txSeq);

    /**
     * Stamp @p slot from the stamp source again. reserve() stamps a
     * slot when it is taken, which suits the hardware log: its store
     * hook runs once the store has written its L1 line. The software
     * runtime reserves before its in-place store and calls this after
     * it, so that a cache-to-cache pull of the line in between does
     * not count as carrying the store.
     */
    void restamp(std::uint64_t slot);

    /** One in-log undo value of a transaction (tx_abort rollback). */
    struct UndoEntry
    {
        std::uint64_t seqNo; ///< append order, for reverse rollback
        Addr addr;
        std::uint8_t size;
        std::uint64_t undo;
    };

    /**
     * Collect the undo values of every drained, still-bound record of
     * @p txSeq, newest first (the order tx_abort must apply them in).
     * Reads the slots functionally; records still in a volatile log
     * buffer are invisible, so the caller must drain buffers first.
     */
    std::vector<UndoEntry> collectUndo(std::uint64_t txSeq) const;

    sim::StatGroup &stats() { return statGroup; }

  private:
    sim::StatGroup statGroup; // must precede the counter references

  public:
    sim::Counter &appends;
    sim::Counter &wraps;
    sim::Counter &reclaims;
    sim::Counter &hazards;
    sim::Counter &truncates;
    sim::Counter &forcedWritebacks;
    /** Cycles appends waited for the forced write-back of the
     *  oldest slot's guarded line to complete. */
    sim::Counter &reclaimWaitCycles;
    /** Always 0: kept only for snfbench/, until ROADMAP item 7. */
    sim::Counter logFullStallCycles;

  private:
    /** Zero-fill the slot array's written markers in NVRAM. */
    void clearSlots(Tick now);

    struct SlotMeta
    {
        bool valid = false;
        bool isCommit = false;
        Addr addr = 0;
        /** Copy stamp of the guarded store (see PersistedSincePred). */
        std::uint64_t stamp = 0;
        std::uint64_t txSeq = 0;
        std::uint64_t seqNo = 0; ///< global append order
    };

    void persistHeader(Tick now);

    Addr regionBase;
    std::uint64_t regionSize;
    mem::MemDevice &nvram;
    std::uint64_t slots;
    std::uint64_t tail = 0;
    std::uint64_t pass = 1;
    std::uint64_t nextSeqNo = 1;
    std::vector<SlotMeta> meta;

    PersistedSincePred persistedSince;
    StampSource stampSource;
    TxActivePred txActive;
    HazardSink hazardSink;
    ForceWriteback forceWriteback;
};

} // namespace snf::persist

#endif // SNF_PERSIST_LOG_REGION_HH
