/**
 * @file
 * Undo+redo log record format (paper Figure 3(a)), format v2.
 *
 * A record carries a torn bit, a 16-bit transaction ID, an 8-bit
 * thread ID, a 48-bit physical address, and word-sized undo and redo
 * values. Records occupy fixed 32-byte slots in the circular log; the
 * bytes actually written to NVRAM (and counted as traffic) depend on
 * which values are present: 16 B header, plus 8 B per value.
 *
 * Format v2 adds media-fault tolerance on top of the paper's layout
 * without growing the record: a format-version byte and a CRC32 over
 * the whole written payload now live in header bytes that were slack
 * in v1 (the 48-bit address is stored in 6 bytes instead of a padded
 * 8). Commit records additionally carry the number of update records
 * the transaction appended, so the salvaging recovery scanner can
 * tell "records lost to reclamation" from "records lost to damage".
 *
 * Slot layout (little-endian):
 *   [0]      flags (written marker, torn bit, undo/redo/commit)
 *   [1]      thread ID
 *   [2..3]   transaction ID
 *   [4]      store size in bytes (0 for commit records)
 *   [5]      format version (kFormatVersion)
 *   [6..11]  48-bit address (commit records: [6..9] = nUpdates)
 *   [12..15] CRC32 (sim/crc32.hh) of bytes [0, payloadBytes()) with
 *            [12..15] as zero
 *   [16..23] undo value (if present)
 *   [16..31] / [24..31] redo value (if present)
 *
 * The cross-shard commit protocol (shardlab) adds two record kinds in
 * previously free flag bits, leaving every pre-shard record image
 * untouched:
 *   prepare (kFlagPrepare): closes one participant shard's slice of a
 *     cross-shard transaction. [6..9] = update records this tx
 *     appended *in this shard*, [16..23] = the global commit sequence
 *     number joining the shards. Payload 24 B.
 *   masked commit (kFlagCommit | kFlagShardMask): the owner shard's
 *     atomic commit point. [6..9] = owner-shard update count,
 *     [16..23] = commit sequence number, [24..31] = participation
 *     mask (bit s = shard s holds records of this tx). Payload 32 B.
 */

#ifndef SNF_PERSIST_LOG_RECORD_HH
#define SNF_PERSIST_LOG_RECORD_HH

#include <cstdint>
#include <optional>

#include "sim/types.hh"

namespace snf::persist
{

/**
 * Classification of a raw log slot image by the salvaging scanner.
 * Empty and Torn both lack the written marker; they are separated so
 * recovery can distinguish "never used" from "interrupted or damaged
 * mid-write". A slot whose pass parity puts it outside the live
 * window is further reported as stale by the recovery layer itself —
 * staleness is a property of the window, not of the slot image.
 */
enum class SlotClass : std::uint8_t
{
    Empty,   ///< no written marker and every byte zero
    Torn,    ///< no written marker but nonzero bytes (partial write)
    CrcFail, ///< written marker present but version/CRC mismatch
    Valid,   ///< written marker, version and CRC all check out
};

/** Printable name of a SlotClass. */
const char *slotClassName(SlotClass cls);

/** One undo/redo/commit log record. */
struct LogRecord
{
    static constexpr std::uint32_t kSlotBytes = 32;
    static constexpr std::uint32_t kHeaderBytes = 16;
    static constexpr std::uint8_t kFormatVersion = 2;

    // Flag bits in the serialized header.
    static constexpr std::uint8_t kFlagTorn = 1u << 0;
    static constexpr std::uint8_t kFlagHasUndo = 1u << 1;
    static constexpr std::uint8_t kFlagHasRedo = 1u << 2;
    static constexpr std::uint8_t kFlagCommit = 1u << 3;
    static constexpr std::uint8_t kFlagShardMask = 1u << 4;
    static constexpr std::uint8_t kFlagPrepare = 1u << 5;
    static constexpr std::uint8_t kFlagWritten = 1u << 7;

    std::uint8_t thread = 0;
    std::uint16_t tx = 0;
    std::uint8_t size = 8; ///< store footprint in bytes (<= 8)
    bool hasUndo = false;
    bool hasRedo = false;
    bool isCommit = false;
    /** Cross-shard prepare record (closes one participant shard). */
    bool isPrepare = false;
    /** Commit record carries a shard participation mask. */
    bool hasShardMask = false;
    Addr addr = 0; ///< 48-bit physical address of the update
    std::uint64_t undo = 0;
    std::uint64_t redo = 0;
    /** Commit records: update records this transaction appended
     *  (masked commits and prepares: the count in *their* shard). */
    std::uint32_t nUpdates = 0;
    /** Prepare/masked commit: global commit sequence number. */
    std::uint64_t commitSeq = 0;
    /** Masked commit: bit s set = shard s participates in the tx. */
    std::uint64_t shardMask = 0;

    /** Make an update record. */
    static LogRecord update(std::uint8_t thread, std::uint16_t tx,
                            Addr addr, std::uint8_t size,
                            std::optional<std::uint64_t> undoVal,
                            std::optional<std::uint64_t> redoVal);

    /** Make a transaction-commit record. */
    static LogRecord commit(std::uint8_t thread, std::uint16_t tx,
                            std::uint32_t nUpdates = 0);

    /** Make a participant-shard prepare record (cross-shard tx). */
    static LogRecord prepare(std::uint8_t thread, std::uint16_t tx,
                             std::uint32_t nUpdatesInShard,
                             std::uint64_t commitSeq);

    /** Make an owner-shard commit record with a participation mask. */
    static LogRecord commitMasked(std::uint8_t thread,
                                  std::uint16_t tx,
                                  std::uint32_t nUpdatesInShard,
                                  std::uint64_t commitSeq,
                                  std::uint64_t shardMask);

    /** Bytes of NVRAM traffic this record costs. */
    std::uint32_t payloadBytes() const;

    /**
     * Serialize into a 32-byte slot image with the given torn-bit
     * value. Unused tail bytes are zeroed. The CRC is computed last,
     * over the full written payload including the torn bit.
     */
    void serialize(std::uint8_t out[kSlotBytes], bool torn) const;

    /**
     * Parse a slot image. Returns nullopt if the slot was never
     * written (no written-marker). @p tornOut receives the torn bit.
     * Does NOT verify the CRC — use classify() when the slot may be
     * damaged.
     */
    static std::optional<LogRecord>
    deserialize(const std::uint8_t in[kSlotBytes], bool &tornOut);
};

/** Result of classifying a raw slot image. */
struct SlotInfo
{
    SlotClass cls = SlotClass::Empty;
    /** Torn (pass-parity) bit of a written slot: valid and
     *  CRC-failing ones. */
    bool torn = false;
    LogRecord rec;      ///< parsed record; valid slots only
};

/**
 * Classify a raw slot image: empty, torn, CRC-damaged, or valid.
 * This is the damage-aware entry point for the salvaging scanner.
 */
SlotInfo classifySlot(const std::uint8_t in[LogRecord::kSlotBytes]);

} // namespace snf::persist

#endif // SNF_PERSIST_LOG_RECORD_HH
