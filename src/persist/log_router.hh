/**
 * @file
 * The one log-partitioning path (shardlab; paper Section III-F).
 *
 * The log area is split into AddressMap::logShards equal circular
 * regions, and a record picks its region in one of two ways: by
 * data-line address (address shards, each modeling one memory
 * controller's slice of the line-address space) or by core
 * (distributed per-thread logs). resolveLogLayout() decides both once
 * per system, from PersistConfig::logShards and the persistence mode.
 * A LogRouter applies that layout for both logging backends, the
 * hardware engine (HwlEngine) and the software undo/redo runtime
 * (SwLogging), so they write one wire format and recovery does not
 * care which backend wrote the log:
 *
 *  - route() builds an update record carrying the values the mode
 *    logs, picks its region and counts it for the transaction;
 *  - planCommit() decides how the transaction commits: one plain
 *    commit record in one region, or, when its updates span several
 *    address shards, a prepare record in every other participant
 *    shard followed by one masked commit record in the
 *    lowest-numbered one.
 *
 * The engines keep only how they write: log-buffer appends and drains
 * for hardware; WCB stores, fences and instruction counts for
 * software; and each its own commit-ordering fence tick.
 */

#ifndef SNF_PERSIST_LOG_ROUTER_HH
#define SNF_PERSIST_LOG_ROUTER_HH

#include <cstdint>
#include <optional>

#include "core/system_config.hh"
#include "persist/log_record.hh"
#include "persist/txn_tracker.hh"

namespace snf::persist
{

/** How the log area is split, and how a record picks its region. */
struct LogLayout
{
    /** Equal circular regions; System copies it to
     *  AddressMap::logShards, which recovery reads. */
    std::uint32_t regions = 1;
    /** Records route by core (per-core regions), not by data-line
     *  address. */
    bool byCore = false;

    /**
     * Several regions routed by address. Only these commit a
     * transaction spanning shards through prepares and a masked
     * commit, and only these order commits across the region FIFOs.
     */
    bool addressSharded() const { return regions > 1 && !byCore; }
};

/**
 * Resolve PersistConfig::logShards for @p mode.
 * PersistConfig::kPerCoreLogs gives one region per core, routed by
 * core, under hardware logging. Under every other mode it gives one
 * central log: the software baselines log centrally (Section III-F).
 * Any other value is that many address shards. fatal() on a config
 * validate() rejects, or unless the log size divides evenly into the
 * regions.
 */
LogLayout resolveLogLayout(const SystemConfig &config, PersistMode mode);

/** See file comment. */
class LogRouter
{
  public:
    /** An update record and the region it goes to. */
    struct Routed
    {
        std::uint32_t region;
        LogRecord rec;
    };

    /** How one transaction commits. */
    struct CommitPlan
    {
        /** Region of the commit record: the only participant, or
         *  the lowest-numbered one of a cross-shard transaction. */
        std::uint32_t owner = 0;
        /** Regions that get a prepare record before the commit
         *  record (bit s = region s); 0 for a plain commit. */
        std::uint64_t prepares = 0;
        /**
         * The commit drains no earlier than the previous commit
         * record's durable tick (address shards only). One FIFO
         * orders commits by itself, and per-core regions hold
         * thread-private data that needs no order across regions.
         */
        bool fenced = false;
        /** The plain or masked commit record. */
        LogRecord commit;

        bool crossShard() const { return prepares != 0; }
    };

    /**
     * @param injectSkipShardMask self-test: masked commit records
     *        name only the owner shard (timing unchanged); the
     *        sharded crash sweep must catch the resulting
     *        half-committed recoveries.
     */
    LogRouter(PersistMode mode, LogLayout layout, TxnTracker &txns,
              bool injectSkipShardMask);

    PersistMode mode() const { return persistMode; }

    const LogLayout &layout() const { return lay; }

    /** Does the mode log undo values? Exactly the modes that can
     *  roll back (supportsAbort). */
    bool logsUndo() const { return undo; }

    /**
     * Build the update record of one persistent store, pick its
     * region and count it for the transaction's commit. @p oldVal is
     * ignored unless logsUndo(). Inline: it runs once per persistent
     * store.
     */
    Routed route(CoreId core, std::uint64_t txSeq, Addr addr,
                 std::uint32_t size, std::uint64_t oldVal,
                 std::uint64_t newVal);

    /** Plan the commit of @p txSeq from the records route() counted. */
    CommitPlan planCommit(CoreId core, std::uint64_t txSeq) const;

    /** The prepare record closing @p txSeq's slice of region @p s. */
    LogRecord prepare(CoreId core, std::uint64_t txSeq,
                      std::uint32_t s) const;

  private:
    PersistMode persistMode;
    LogLayout lay;
    TxnTracker &txns;
    bool undo;
    bool redo;
    bool skipShardMask;
};

inline LogRouter::Routed
LogRouter::route(CoreId core, std::uint64_t txSeq, Addr addr,
                 std::uint32_t size, std::uint64_t oldVal,
                 std::uint64_t newVal)
{
    std::uint32_t region = 0;
    if (lay.regions > 1)
        region = lay.byCore ? core % lay.regions
                            : static_cast<std::uint32_t>(
                                  (addr >> 6) % lay.regions);
    txns.noteLogRecord(txSeq);
    if (lay.addressSharded())
        txns.noteShardRecord(txSeq, region);
    using Value = std::optional<std::uint64_t>;
    return {region, LogRecord::update(static_cast<std::uint8_t>(core),
                                      TxnTracker::txIdOf(txSeq), addr,
                                      static_cast<std::uint8_t>(size),
                                      undo ? Value(oldVal) : std::nullopt,
                                      redo ? Value(newVal) : std::nullopt)};
}

} // namespace snf::persist

#endif // SNF_PERSIST_LOG_ROUTER_HH
