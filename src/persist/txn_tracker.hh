/**
 * @file
 * Bookkeeping for active persistent-memory transactions: physical
 * transaction IDs (the 8-bit special register of Section IV-B),
 * globally unique sequence numbers, and per-transaction write-sets
 * (the lines that clwb-based commit modes must flush).
 */

#ifndef SNF_PERSIST_TXN_TRACKER_HH
#define SNF_PERSIST_TXN_TRACKER_HH

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "core/system_config.hh"
#include "sim/line_table.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace snf::persist
{

/** Outcome of one CC line-acquire attempt (see acquireLine). */
enum class CcDecision
{
    Granted, ///< proceed with the access
    Wait,    ///< line held by another transaction; back off and retry
    Abort,   ///< waiting would deadlock: roll back
};

/** See file comment. */
class TxnTracker
{
  public:
    TxnTracker();

    /** Begin a transaction; returns its sequence. */
    std::uint64_t begin();

    /** Commit the transaction with sequence @p seq. */
    void commit(std::uint64_t seq);

    /** Abort bookkeeping (crash modeling / tests). */
    void abort(std::uint64_t seq);

    /** Is the transaction with this sequence still active? */
    bool isActive(std::uint64_t seq) const;

    /** The 16-bit log-record transaction ID for a sequence. */
    static TxId
    txIdOf(std::uint64_t seq)
    {
        return static_cast<TxId>(seq & 0xffff);
    }

    /** Record a written line for the write-set. */
    void recordWrite(std::uint64_t seq, Addr lineAddr);

    /** Distinct lines written by the transaction, append order. */
    const std::vector<Addr> &writeSet(std::uint64_t seq) const;

    /**
     * Count one appended update log record for the transaction; the
     * total goes into the commit record so the salvaging recovery
     * scanner can tell reclaimed records from damaged ones.
     */
    void noteLogRecord(std::uint64_t seq);

    /** Update log records appended by the transaction so far. */
    std::uint32_t logRecordCount(std::uint64_t seq) const;

    /**
     * Shard accounting (shardlab): note one appended update record
     * landing in log shard @p shard, so commit can compute the
     * participation mask and per-shard prepare counts.
     */
    void noteShardRecord(std::uint64_t seq, std::uint32_t shard);

    /** Participation mask: bit s = tx appended records in shard s. */
    std::uint64_t shardMaskOf(std::uint64_t seq) const;

    /** Update records the transaction appended in @p shard. */
    std::uint32_t shardRecordCount(std::uint64_t seq,
                                   std::uint32_t shard) const;

    std::size_t activeCount() const { return slotOfSeq.size(); }

    // ----- concurrency control (the CC layer) --------------------

    /** Select the CC scheme; None (the default) disables the layer. */
    void setCcMode(CcMode m) { ccModeV = m; }

    CcMode ccMode() const { return ccModeV; }

    /**
     * One encounter-time acquire of @p line by transaction @p seq.
     * Writes (and 2PL reads) take the line's exclusive lock, held to
     * commit/abort. A conflicting holder yields Wait — unless parking
     * this waiter would close a cycle in the waits-for graph, in
     * which case the *requester* gets Abort (deterministic deadlock
     * avoidance: the holder keeps running, so progress is
     * guaranteed). TL2 reads of unlocked lines record the line's
     * commit version for validateReads() instead of locking.
     */
    CcDecision acquireLine(std::uint64_t seq, Addr line, bool forWrite);

    /**
     * TL2 commit-time validation: every read line must still carry
     * the version it had at first read and must not be write-locked
     * by another transaction. Trivially true outside Tl2 mode.
     */
    bool validateReads(std::uint64_t seq);

    /** Recorded TL2 read-set size (validation cost modeling). */
    std::size_t readSetSize(std::uint64_t seq) const;

    /** Commit version of @p line (bumped by each committed writer). */
    std::uint64_t lineVersion(Addr line) const;

    /** Owning transaction of @p line's lock (0 = unlocked). Inline:
     *  every transactional access asks it (Thread::ccGrantedInPlace). */
    std::uint64_t
    lockOwnerOf(Addr line) const
    {
        const LineCc *cc = lineCc.find(line);
        return cc ? cc->owner : 0;
    }

    sim::StatGroup &stats() { return statGroup; }

  private:
    /**
     * One active transaction. Slots are reused across transactions:
     * releasing one empties its containers (the dedup sets through
     * their own key lists) but keeps their capacity.
     */
    struct Txn
    {
        std::uint64_t seq = 0;
        std::vector<Addr> writeLines;
        sim::LineSet seen;
        std::uint32_t logRecords = 0;
        /** Bit s set = the tx appended update records in shard s. */
        std::uint64_t shardMask = 0;
        /** Update-record count per shard (indexed by shard). */
        std::vector<std::uint32_t> shardRecords;
        /** Line locks held (2PL reads + all-mode writes). */
        std::vector<Addr> locksHeld;
        /** TL2 read-set: (line, version at first read). */
        std::vector<std::pair<Addr, std::uint64_t>> readSet;
        sim::LineSet readSeen;
        /** The holder this transaction is parked behind (its one
         *  waits-for edge); 0 = not waiting. */
        std::uint64_t waitingOn = 0;
    };

    /** CC state of one line. An entry appears when the line is first
     *  locked or a write to it first commits. */
    struct LineCc
    {
        std::uint64_t owner = 0;   ///< lock holder's sequence, 0 = free
        std::uint64_t version = 0; ///< 0 = never committed-to
    };

    Txn *find(std::uint64_t seq);
    const Txn *find(std::uint64_t seq) const;

    /** Would parking @p txn behind its holder close a cycle? */
    bool wouldDeadlock(const Txn &txn) const;

    /** Drop the locks, bump (on commit) the versions of the written
     *  lines, and return the slot to the free list. */
    void release(Txn &t, bool committing);

    std::uint64_t nextSeq = 1;
    /** Transaction slots. A deque, so a slot never moves and a
     *  writeSet() reference survives other transactions' begin. */
    std::deque<Txn> slots;
    std::vector<Txn *> freeSlots;
    /** Active transaction sequence -> its slot, found in one probe
     *  (no deque indexing). */
    sim::LineTable<Txn *> slotOfSeq;
    std::vector<Addr> emptySet;
    CcMode ccModeV = CcMode::None;
    sim::LineTable<LineCc> lineCc;
    std::uint64_t versionClock = 0;
    sim::StatGroup statGroup; // must precede the counter references

  public:
    sim::Counter &begun;
    sim::Counter &committed;
    sim::Counter &aborted;
    sim::Counter &lockAcquires;
    sim::Counter &lockWaits;
    /** Requester self-aborts that broke a waits-for cycle. */
    sim::Counter &deadlockAborts;
    /** TL2 commit validations that failed (stale read versions). */
    sim::Counter &validationFailures;
};

} // namespace snf::persist

#endif // SNF_PERSIST_TXN_TRACKER_HH
