#include "persist/recovery.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "mem/remap_table.hh"
#include "persist/log_record.hh"
#include "persist/log_region.hh"
#include "sim/logging.hh"

namespace snf::persist
{

namespace
{

constexpr std::uint64_t kLineBytes = mem::RemapTable::kLineBytes;

/**
 * Recovery's window onto the crash image: every read and write is
 * translated through the image's remap table (a promoted log slot's
 * live bytes are at its spare), every write is counted in 64-byte-line
 * units and suppressed once the crashAfterWrites budget is spent, so
 * one code path serves normal recovery, I9 write collection, and the
 * crash-during-recovery sweeps.
 */
struct ImageIO
{
    explicit ImageIO(mem::BackingStore &image) : img(image) {}

    mem::BackingStore &img;
    const mem::RemapTable *remap = nullptr;
    std::uint64_t budget = ~0ULL;
    bool collect = false;
    const sim::ProbeFn *probe = nullptr;

    std::uint64_t issued = 0;
    std::uint64_t applied = 0;
    std::vector<Addr> touched;

    Addr
    translate(Addr a) const
    {
        if (!remap)
            return a;
        Addr line = a & ~static_cast<Addr>(kLineBytes - 1);
        if (auto spare = remap->find(line))
            return *spare + (a - line);
        return a;
    }

    void
    read(Addr a, std::uint64_t n, void *out) const
    {
        auto *dst = static_cast<std::uint8_t *>(out);
        while (n > 0) {
            Addr line_end = (a | (kLineBytes - 1)) + 1;
            std::uint64_t seg = std::min<std::uint64_t>(n,
                                                        line_end - a);
            img.read(translate(a), seg, dst);
            dst += seg;
            a += seg;
            n -= seg;
        }
    }

    std::uint64_t
    read64(Addr a) const
    {
        std::uint64_t v = 0;
        read(a, sizeof(v), &v);
        return v;
    }

    /**
     * Large read-only sweep (the slot-array scan): with no active
     * remapping the whole range goes to the store in one call, which
     * walks it page-wise instead of line-wise.
     */
    void
    readBulk(Addr a, std::uint64_t n, void *out) const
    {
        if (!remap || remap->size() == 0)
            img.read(a, n, out);
        else
            read(a, n, out);
    }

    void
    write(Addr a, std::uint64_t n, const void *in)
    {
        const auto *src = static_cast<const std::uint8_t *>(in);
        // Bulk fast path (log truncation writes whole KBs): when no
        // per-line observer is active, no line is remapped, and every
        // covered line fits the write budget, one store write counts
        // exactly like the per-line loop would.
        if (n > 0 && !collect && !(probe && *probe) &&
            (!remap || remap->size() == 0)) {
            std::uint64_t lines =
                ((a + n - 1) / kLineBytes) - (a / kLineBytes) + 1;
            if (applied + lines <= budget) {
                img.write(a, n, src);
                issued += lines;
                applied += lines;
                return;
            }
        }
        while (n > 0) {
            Addr line_end = (a | (kLineBytes - 1)) + 1;
            std::uint64_t seg = std::min<std::uint64_t>(n,
                                                        line_end - a);
            Addr line = a & ~static_cast<Addr>(kLineBytes - 1);
            ++issued;
            if (probe && *probe)
                (*probe)(sim::ProbeEvent::RecoveryWrite, issued, line);
            if (applied < budget) {
                img.write(translate(a), seg, src);
                ++applied;
                // The touched set feeds I9's physical-image diff, so
                // record the line actually written (the spare when
                // the logical line is remapped).
                if (collect)
                    touched.push_back(translate(line));
            }
            src += seg;
            a += seg;
            n -= seg;
        }
    }

    bool contains(Addr a, std::uint64_t n) const
    {
        return img.contains(a, n);
    }

    /**
     * Sparse scan support: with no line remapped, reads are untranslated
     * and the slot scan may walk the image's resident pages in place,
     * treating absent pages as all-zero without copying them.
     */
    bool
    directScan() const
    {
        return !remap || remap->size() == 0;
    }

    const std::uint8_t *
    pageAt(Addr a, std::uint64_t *avail) const
    {
        return img.pageAt(a, avail);
    }

    bool interrupted() const { return issued > applied; }
};

RecoveryReport recoverRegionIo(ImageIO &io, Addr logBase,
                               std::uint64_t logSize,
                               const RecoveryOptions &opts,
                               mem::RemapTable *promoteInto);

RecoveryReport recoverShardedIo(ImageIO &io, const AddressMap &map,
                                const RecoveryOptions &opts,
                                mem::RemapTable *promoteInto);

/** Active per-thread sink of RecoveryTimerScope (null = off). */
thread_local std::uint64_t *recoveryTimerSink = nullptr;

} // namespace

RecoveryTimerScope::RecoveryTimerScope(std::uint64_t *sinkNs)
    : prev(recoveryTimerSink)
{
    recoveryTimerSink = sinkNs;
}

RecoveryTimerScope::~RecoveryTimerScope()
{
    recoveryTimerSink = prev;
}

std::uint64_t *
activeRecoveryTimerSink()
{
    return recoveryTimerSink;
}

RecoveryReport
Recovery::run(mem::BackingStore &image, const AddressMap &map,
              bool truncateLog)
{
    RecoveryOptions opts;
    opts.truncateLog = truncateLog;
    return run(image, map, opts);
}

RecoveryReport
Recovery::run(mem::BackingStore &image, const AddressMap &map,
              const RecoveryOptions &opts)
{
    struct TimeGuard
    {
        std::chrono::steady_clock::time_point start =
            std::chrono::steady_clock::now();
        ~TimeGuard()
        {
            if (recoveryTimerSink) {
                *recoveryTimerSink += static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count());
            }
        }
    } timeGuard;

    // With distributed logs, each partition is an independent
    // circular log holding complete transactions (transactions are
    // thread-private, Section III-F), so partitions recover
    // independently and the reports sum. The write budget, the remap
    // table, and the touched-line set span the whole pass.
    RecoveryReport total;
    mem::RemapTable remap(map.remapBase(), map.remapSize ? map.remapSize
                                                         : 128,
                          map.spareBase(), map.spareSize);
    bool have_remap = map.remapSize != 0;
    if (have_remap) {
        mem::RemapTable::LoadResult lr = remap.load(image);
        total.remapCorrupt = lr.corrupted;
    }
    ImageIO io{image};
    io.remap = have_remap ? &remap : nullptr;
    io.budget = opts.crashAfterWrites;
    io.collect = opts.collectWrites;
    io.probe = &opts.probe;

    // Sharded logs (logShards > 1) split transactions by address, so
    // shards do NOT recover independently: commit decisions join
    // records across shards and the whole pass is merged.
    if (map.logShards > 1) {
        RecoveryReport r = recoverShardedIo(
            io, map, opts,
            have_remap && opts.promoteBadLines ? &remap : nullptr);
        r.remapCorrupt = total.remapCorrupt;
        r.writesIssued = io.issued;
        r.writesApplied = io.applied;
        r.interrupted = io.interrupted();
        r.touchedLines = std::move(io.touched);
        return r;
    }

    std::uint32_t partitions = std::max(map.logPartitions, 1u);
    std::uint64_t part_bytes = map.logSize / partitions;
    for (std::uint32_t p = 0; p < partitions; ++p) {
        RecoveryReport r = recoverRegionIo(
            io, map.logBase() + p * part_bytes, part_bytes, opts,
            have_remap && opts.promoteBadLines ? &remap : nullptr);
        total.headerValid |= r.headerValid;
        total.slotsScanned += r.slotsScanned;
        total.validRecords += r.validRecords;
        total.committedTxns += r.committedTxns;
        total.uncommittedTxns += r.uncommittedTxns;
        total.redoApplied += r.redoApplied;
        total.undoApplied += r.undoApplied;
        total.salvagedTxns += r.salvagedTxns;
        total.quarantinedTxns += r.quarantinedTxns;
        total.emptySlots += r.emptySlots;
        total.tornSlots += r.tornSlots;
        total.crcFailSlots += r.crcFailSlots;
        total.stalePassSlots += r.stalePassSlots;
        total.promotedLines += r.promotedLines;
        if (total.firstBadSlotAddr == 0)
            total.firstBadSlotAddr = r.firstBadSlotAddr;
        total.quarantinedTxIds.insert(total.quarantinedTxIds.end(),
                                      r.quarantinedTxIds.begin(),
                                      r.quarantinedTxIds.end());
    }
    total.writesIssued = io.issued;
    total.writesApplied = io.applied;
    total.interrupted = io.interrupted();
    total.touchedLines = std::move(io.touched);
    return total;
}

RecoveryReport
Recovery::recoverRegion(mem::BackingStore &image, Addr logBase,
                        std::uint64_t logSize, bool truncateLog)
{
    RecoveryOptions opts;
    opts.truncateLog = truncateLog;
    return recoverRegion(image, logBase, logSize, opts);
}

RecoveryReport
Recovery::recoverRegion(mem::BackingStore &image, Addr logBase,
                        std::uint64_t logSize,
                        const RecoveryOptions &opts)
{
    // Legacy single-region entry point: no remap table, but the
    // write budget and collection still apply.
    ImageIO io{image};
    io.budget = opts.crashAfterWrites;
    io.collect = opts.collectWrites;
    io.probe = &opts.probe;
    RecoveryReport report =
        recoverRegionIo(io, logBase, logSize, opts, nullptr);
    report.writesIssued = io.issued;
    report.writesApplied = io.applied;
    report.interrupted = io.interrupted();
    report.touchedLines = std::move(io.touched);
    return report;
}

namespace
{

RecoveryReport
recoverRegionIo(ImageIO &io, Addr logBase, std::uint64_t logSize,
                const RecoveryOptions &opts,
                mem::RemapTable *promoteInto)
{
    RecoveryReport report;

    // Step 1: read the log header (geometry) from NVRAM.
    Addr log_base = logBase;
    std::uint64_t magic = io.read64(log_base);
    std::uint64_t slots = io.read64(log_base + 8);
    if (magic != LogRegion::kMagic || slots == 0 ||
        slots > (logSize - LogRegion::kHeaderBytes) /
                    LogRecord::kSlotBytes) {
        warn("recovery: invalid log header, nothing to recover");
        return report;
    }
    report.headerValid = true;

    Addr slot0 = log_base + LogRegion::kHeaderBytes;
    auto zeroAllSlots = [&]() {
        // Chunked into whole lines so the write budget sees the same
        // units as every other recovery write.
        constexpr std::uint64_t kChunk = 1024;
        std::uint8_t zeros[kChunk] = {};
        std::uint64_t area = slots * LogRecord::kSlotBytes;
        for (std::uint64_t off = 0; off < area; off += kChunk)
            io.write(slot0 + off,
                     std::min<std::uint64_t>(kChunk, area - off),
                     zeros);
        std::uint64_t cleared = 0;
        io.write(log_base + LogRegion::kTruncFlagOffset,
                 sizeof(cleared), &cleared);
    };

    // An interrupted truncation must not let a resumed recovery
    // reinterpret the partially zeroed slot array (a zeroed prefix
    // can detach a commit record from its updates or resurrect
    // stale-pass records under a different window parity). The
    // truncating flag is set — one atomic counted write — only after
    // replay and promotion completed, so a resumed pass can skip
    // straight to finishing the zeroing.
    if (io.read64(log_base + LogRegion::kTruncFlagOffset) != 0) {
        zeroAllSlots();
        return report;
    }

    // Step 2: classify every slot. classifySlot separates damage
    // (torn partial writes, CRC failures) from parseable records;
    // damaged slots never contribute replay values. The scan is by
    // far the hottest loop of a crash sweep (4+ passes per evaluated
    // point), so with no remapping active it walks the image's
    // resident pages in place: a page never written reads as zero, so
    // every slot inside it is Empty without the bytes ever being
    // copied or compared — on a typical sweep only the written log
    // prefix of the multi-MB region costs anything. Remapped images
    // (lifelab) keep the translated bulk-read path.
    //
    // Scratch is thread_local and reused across calls: a sweep runs
    // recovery once per crash point × pass, and the per-call
    // allocation plus value-initialization of a full SlotInfo array
    // (each entry embeds a LogRecord) dominated recovery's own
    // profile. Per-slot state is an 8-byte SlotMeta; parsed records
    // are stored once, densely, only for Valid slots.
    struct SlotMeta
    {
        SlotClass cls;
        bool torn;
        std::uint32_t rec; ///< index into `parsed`, or kNoRec
    };
    constexpr std::uint32_t kNoRec = ~std::uint32_t{0};
    thread_local std::vector<std::uint8_t> slotImg;
    thread_local std::vector<SlotMeta> meta;
    thread_local std::vector<SlotInfo> parsed;
    meta.assign(slots, SlotMeta{SlotClass::Empty, false, kNoRec});
    parsed.clear();
    static const std::uint8_t kZeroSlot[LogRecord::kSlotBytes] = {};
    auto scanOne = [&](std::uint64_t i, const std::uint8_t *img) {
        if (std::memcmp(img, kZeroSlot, LogRecord::kSlotBytes) == 0) {
            // All-zero slot: the default meta already says Empty, and
            // most of the region is empty in a typical sweep.
            ++report.emptySlots;
            ++report.slotsScanned;
            return;
        }
        SlotInfo si = classifySlot(img);
        if (opts.faultIgnoreCrc && si.cls == SlotClass::CrcFail) {
            // Injected bug: the pre-faultlab scanner trusted any slot
            // with a written marker.
            bool torn = false;
            auto rec = LogRecord::deserialize(img, torn);
            if (rec && rec->payloadBytes() <= LogRecord::kSlotBytes) {
                si.cls = SlotClass::Valid;
                si.torn = torn;
                si.rec = *rec;
            }
        }
        meta[i].cls = si.cls;
        meta[i].torn = si.torn;
        switch (si.cls) {
          case SlotClass::Empty:
            ++report.emptySlots;
            break;
          case SlotClass::Torn:
            ++report.tornSlots;
            break;
          case SlotClass::CrcFail:
            ++report.crcFailSlots;
            break;
          case SlotClass::Valid:
            meta[i].rec = static_cast<std::uint32_t>(parsed.size());
            parsed.push_back(si);
            break;
        }
        if ((si.cls == SlotClass::Torn ||
             si.cls == SlotClass::CrcFail) &&
            report.firstBadSlotAddr == 0) {
            report.firstBadSlotAddr =
                slot0 + i * LogRecord::kSlotBytes;
        }
        ++report.slotsScanned;
    };
    if (io.directScan()) {
        std::uint64_t i = 0;
        while (i < slots) {
            Addr a = slot0 + i * LogRecord::kSlotBytes;
            std::uint64_t avail = 0;
            const std::uint8_t *p = io.pageAt(a, &avail);
            std::uint64_t whole = std::min<std::uint64_t>(
                slots - i, avail / LogRecord::kSlotBytes);
            if (whole == 0) {
                // Slot straddles a page boundary: assemble it.
                std::uint8_t buf[LogRecord::kSlotBytes];
                io.read(a, LogRecord::kSlotBytes, buf);
                scanOne(i, buf);
                ++i;
                continue;
            }
            if (p == nullptr) {
                // Absent page: `whole` slots of zeros.
                report.emptySlots += whole;
                report.slotsScanned += whole;
            } else {
                for (std::uint64_t k = 0; k < whole; ++k)
                    scanOne(i + k,
                            p + k * LogRecord::kSlotBytes);
            }
            i += whole;
        }
    } else {
        slotImg.resize(slots * LogRecord::kSlotBytes);
        io.readBulk(slot0, slotImg.size(), slotImg.data());
        for (std::uint64_t i = 0; i < slots; ++i)
            scanOne(i, slotImg.data() + i * LogRecord::kSlotBytes);
    }

    // Step 3: locate the live window. The torn (pass-parity) bit of
    // the first valid slot fixes the current pass; the window runs to
    // the LAST slot of that parity, bridging damaged or dropped slots
    // instead of stopping at the first anomaly (a single damaged slot
    // must not hide every record behind it). Valid slots of the other
    // parity past the window end are the previous pass (older,
    // replayed first); inside the window they are stale records
    // exposed by a dropped overwrite and must not be replayed.
    std::vector<std::uint64_t> window;
    bool wrapped = false;
    std::int64_t first_valid = -1;
    for (std::uint64_t i = 0; i < slots; ++i) {
        if (meta[i].cls == SlotClass::Valid) {
            first_valid = static_cast<std::int64_t>(i);
            break;
        }
    }
    if (first_valid >= 0) {
        bool t0 = meta[first_valid].torn;
        std::uint64_t boundary = 0; // one past the last current slot
        for (std::uint64_t i = 0; i < slots; ++i)
            if (meta[i].cls == SlotClass::Valid && meta[i].torn == t0)
                boundary = i + 1;
        std::vector<std::uint64_t> prev;
        for (std::uint64_t i = boundary; i < slots; ++i)
            if (meta[i].cls == SlotClass::Valid)
                prev.push_back(i);
        wrapped = !prev.empty() || boundary == slots;
        window = std::move(prev);
        for (std::uint64_t i = 0; i < boundary; ++i) {
            switch (meta[i].cls) {
              case SlotClass::Valid:
                if (meta[i].torn == t0)
                    window.push_back(i);
                else
                    ++report.stalePassSlots;
                break;
              case SlotClass::Empty:
              case SlotClass::Torn:
              case SlotClass::CrcFail:
                // Holes and damage inside the live window: bridged,
                // already counted in the histogram above.
                break;
            }
        }
    }
    report.validRecords = window.size();

    // Step 4: group records by transaction generation. A commit
    // record closes the current generation of its 16-bit txid; a
    // later record with the same txid starts a new generation.
    struct Generation
    {
        std::vector<std::uint64_t> updates; // ordered indices
        bool committed = false;
        std::uint32_t nUpdates = 0; // from the commit record
        std::uint16_t tx = 0;
        bool salvage = false;
    };
    std::vector<Generation> generations;
    std::map<std::uint16_t, std::size_t> open_gen;
    std::vector<const SlotInfo *> ordered;
    ordered.reserve(window.size());
    for (std::uint64_t slot : window)
        ordered.push_back(&parsed[meta[slot].rec]);

    std::vector<std::size_t> gen_of(ordered.size(), SIZE_MAX);
    for (std::size_t i = 0; i < ordered.size(); ++i) {
        const LogRecord &rec = ordered[i]->rec;
        auto it = open_gen.find(rec.tx);
        if (it == open_gen.end()) {
            generations.push_back({});
            generations.back().tx = rec.tx;
            it = open_gen.emplace(rec.tx, generations.size() - 1)
                     .first;
        }
        if (rec.isCommit) {
            generations[it->second].committed = true;
            generations[it->second].nUpdates = rec.nUpdates;
            open_gen.erase(it);
        } else {
            generations[it->second].updates.push_back(i);
            gen_of[i] = it->second;
        }
    }

    // Step 5: salvage or quarantine each committed generation. A
    // generation whose commit record promises nUpdates records is
    // salvaged when they were all found. A shortfall is benign only
    // if the log wrapped: reclamation legitimately overwrites old
    // records (and only ones whose data already persisted, so the
    // partial replay is still correct). Without a wrap, log drains
    // are FIFO — a durable commit record implies every update record
    // landed first — so a shortfall can only mean media damage:
    // quarantine, leave the data exactly as the crash left it.
    // nUpdates == 0 records predate the accounting and keep the
    // legacy always-replay behavior.
    for (auto &gen : generations) {
        if (!gen.committed)
            continue;
        ++report.committedTxns;
        std::uint64_t found = gen.updates.size();
        if (gen.nUpdates == 0 || found == gen.nUpdates || wrapped) {
            gen.salvage = true;
            ++report.salvagedTxns;
        } else {
            ++report.quarantinedTxns;
            report.quarantinedTxIds.push_back(gen.tx);
        }
    }

    // Step 6: replay. Redo salvaged transactions' updates in global
    // log order; undo uncommitted ones in global reverse log order.
    // Quarantined transactions are left exactly as the crash left
    // them. Writes are functional (the caches are volatile and reset
    // after the crash).
    for (std::size_t i = 0;
         !opts.faultSkipRedo && i < ordered.size(); ++i) {
        if (gen_of[i] == SIZE_MAX || !generations[gen_of[i]].salvage)
            continue;
        const LogRecord &rec = ordered[i]->rec;
        if (rec.hasRedo && rec.size >= 1 && rec.size <= 8 &&
            io.contains(rec.addr, rec.size)) {
            io.write(rec.addr, rec.size, &rec.redo);
            ++report.redoApplied;
        }
    }
    std::vector<std::uint64_t> undo_order;
    for (const auto &gen : generations) {
        if (gen.committed)
            continue;
        ++report.uncommittedTxns;
        undo_order.insert(undo_order.end(), gen.updates.begin(),
                          gen.updates.end());
    }
    std::sort(undo_order.begin(), undo_order.end(),
              std::greater<>());
    if (opts.faultSkipUndo)
        undo_order.clear();
    for (std::uint64_t idx : undo_order) {
        const LogRecord &rec = ordered[idx]->rec;
        if (rec.hasUndo && rec.size >= 1 && rec.size <= 8 &&
            io.contains(rec.addr, rec.size)) {
            io.write(rec.addr, rec.size, &rec.undo);
            ++report.undoApplied;
        }
    }

    // Step 6b (lifelab): promote the lines of damaged slots into the
    // persistent remap table so the next generation's log traffic
    // avoids the suspect media. This runs BEFORE truncation — the
    // damage evidence must survive an interrupted pass so a resumed
    // recovery finds the same promotion set — and processes lines in
    // ascending address order, skipping ones already promoted, so the
    // spare assignment is deterministic across interrupt/resume.
    if (promoteInto) {
        std::vector<Addr> bad_lines;
        for (std::uint64_t i = 0; i < slots; ++i) {
            if (meta[i].cls != SlotClass::Torn &&
                meta[i].cls != SlotClass::CrcFail)
                continue;
            Addr line = (slot0 + i * LogRecord::kSlotBytes) &
                        ~static_cast<Addr>(kLineBytes - 1);
            if (bad_lines.empty() || bad_lines.back() != line)
                bad_lines.push_back(line);
        }
        bool grew = false;
        for (Addr line : bad_lines) {
            if (promoteInto->find(line) || promoteInto->full())
                continue;
            // Copy the line's current bytes to the spare *before*
            // the mapping exists (afterwards reads of the line would
            // follow the mapping), then record it.
            std::uint8_t buf[kLineBytes];
            io.read(line, kLineBytes, buf);
            std::optional<Addr> spare = promoteInto->add(line);
            SNF_ASSERT(spare, "remap add failed on unmapped line");
            io.write(*spare, kLineBytes, buf);
            grew = true;
            ++report.promotedLines;
        }
        if (grew) {
            // One durable table update per region; goes through the
            // counted writer so the sweep can interrupt it at any
            // chunk (the half-written bank stays CRC-invalid).
            promoteInto->persist(
                [&io](Addr a, std::uint64_t n, const void *d) {
                    io.write(a, n, d);
                });
        }
    }

    // Step 7: truncate the log: clear every slot (damaged ones too).
    // The flag raised first makes the whole step atomic from a
    // resumed recovery's point of view.
    if (opts.truncateLog) {
        std::uint64_t raised = 1;
        io.write(log_base + LogRegion::kTruncFlagOffset,
                 sizeof(raised), &raised);
        zeroAllSlots();
    }
    return report;
}

// ---------------------------------------------------------------
// Merged multi-shard recovery (shardlab)
// ---------------------------------------------------------------

/** One transaction generation inside one shard's live window. */
struct ShardGen
{
    /** Update-record positions, indices into the shard's window. */
    std::vector<std::uint64_t> updates;
    std::uint16_t tx = 0;
    enum class Close { Open, Legacy, Prepare, Masked };
    Close close = Close::Open;
    std::uint32_t nUpdates = 0;  ///< promised by the closing record
    std::uint64_t commitSeq = 0; ///< Prepare / Masked only
    std::uint64_t shardMask = 0; ///< Masked only
    /** Prepare generation joined to its masked commit record. */
    bool consumed = false;
    /** Open generation held by a quarantined transaction: its prepare
     *  record is missing, so neither redo nor undo may touch it. */
    bool pinned = false;
    enum class Action { Leave, Redo, Undo };
    Action action = Action::Leave;
};

/** Scan state of one shard's slice of the log region. */
struct ShardScan
{
    Addr base = 0;
    Addr slot0 = 0;
    std::uint64_t slots = 0;
    bool dead = true;
    bool truncFlag = false;
    bool wrapped = false;
    std::vector<SlotInfo> info;            ///< per slot
    std::vector<const SlotInfo *> ordered; ///< live window, log order
    std::vector<std::size_t> genOf;        ///< window idx -> gen idx
    std::vector<ShardGen> gens;
    /** Generations never closed by any record, by txid. */
    std::map<std::uint16_t, std::size_t> openGen;
};

/**
 * Recover a log split into AddressMap::logShards address-interleaved
 * shards. Each shard scans exactly like a single region (same slot
 * classification, torn-parity window, re-entrant truncation flag),
 * but commit decisions are made per *transaction*, joining records
 * across shards:
 *
 *  - A plain commit record keeps the single-region semantics — a
 *    transaction whose updates all landed in one shard never paid
 *    the cross-shard protocol.
 *  - A masked commit record names its participant shards and its
 *    64-bit transaction sequence number; prepare records in the
 *    participant shards join it exactly by that sequence number.
 *    The commit record is the single atomic commit point: present ->
 *    redo every shard's slice, absent -> undo every slice.
 *  - A shard whose header is unreadable is dead (degraded mode):
 *    surviving shards are salvaged, and any transaction whose
 *    participation mask intersects the dead shard is rolled back on
 *    the shards that still hold its records (its dead-shard slice is
 *    unrecoverable either way), reported in deadShardAbortTxIds.
 *
 * Truncation raises every live shard's flag before zeroing any slot
 * array, so a resumed pass finding any flag set knows replay fully
 * applied (the flag writes are ordered after every replay write
 * through the counted ImageIO) and only has to finish the zeroing.
 */
RecoveryReport
recoverShardedIo(ImageIO &io, const AddressMap &map,
                 const RecoveryOptions &opts,
                 mem::RemapTable *promoteInto)
{
    RecoveryReport report;
    const std::uint32_t nShards = map.logShards;
    const std::uint64_t shard_bytes = map.logSize / nShards;

    std::vector<ShardScan> sc(nShards);
    report.shards.resize(nShards);
    std::uint64_t deadMask = 0;
    bool anyTruncFlag = false;

    // Pass A: headers and truncation flags of every shard, before any
    // write — the merged resume decision needs the global flag view.
    for (std::uint32_t s = 0; s < nShards; ++s) {
        ShardScan &sh = sc[s];
        sh.base = map.logBase() + s * shard_bytes;
        sh.slot0 = sh.base + LogRegion::kHeaderBytes;
        ShardSummary &summ = report.shards[s];
        summ.shard = s;
        std::uint64_t magic = io.read64(sh.base);
        std::uint64_t slots = io.read64(sh.base + 8);
        if (magic != LogRegion::kMagic || slots == 0 ||
            slots > (shard_bytes - LogRegion::kHeaderBytes) /
                        LogRecord::kSlotBytes) {
            warn("recovery: shard %u header invalid, degraded mode",
                 s);
            summ.dead = true;
            deadMask |= 1ULL << s;
            continue;
        }
        sh.dead = false;
        sh.slots = slots;
        summ.headerValid = true;
        report.headerValid = true;
        sh.truncFlag =
            io.read64(sh.base + LogRegion::kTruncFlagOffset) != 0;
        anyTruncFlag |= sh.truncFlag;
    }

    auto zeroShard = [&](ShardScan &sh) {
        constexpr std::uint64_t kChunk = 1024;
        std::uint8_t zeros[kChunk] = {};
        std::uint64_t area = sh.slots * LogRecord::kSlotBytes;
        for (std::uint64_t off = 0; off < area; off += kChunk)
            io.write(sh.slot0 + off,
                     std::min<std::uint64_t>(kChunk, area - off),
                     zeros);
        std::uint64_t cleared = 0;
        io.write(sh.base + LogRegion::kTruncFlagOffset,
                 sizeof(cleared), &cleared);
    };

    // Interrupted-truncation resume: any live shard's flag proves the
    // previous pass finished replay everywhere (all flags are raised
    // before any slot is zeroed, and raised only after replay), so
    // the resumed pass just finishes zeroing every live shard.
    if (anyTruncFlag) {
        for (auto &sh : sc)
            if (!sh.dead)
                zeroShard(sh);
        return report;
    }

    // Pass B: per-shard slot classification, live-window location and
    // generation grouping — steps 2-4 of the single-region scanner,
    // with prepare and masked-commit records additionally closing
    // generations.
    static const std::uint8_t kZeroSlot[LogRecord::kSlotBytes] = {};
    for (std::uint32_t s = 0; s < nShards; ++s) {
        ShardScan &sh = sc[s];
        if (sh.dead)
            continue;
        ShardSummary &summ = report.shards[s];
        std::vector<std::uint8_t> slotImg(sh.slots *
                                          LogRecord::kSlotBytes);
        io.readBulk(sh.slot0, slotImg.size(), slotImg.data());
        sh.info.resize(sh.slots);
        for (std::uint64_t i = 0; i < sh.slots; ++i) {
            const std::uint8_t *img =
                slotImg.data() + i * LogRecord::kSlotBytes;
            ++report.slotsScanned;
            ++summ.slotsScanned;
            if (std::memcmp(img, kZeroSlot, LogRecord::kSlotBytes) ==
                0) {
                ++report.emptySlots;
                continue;
            }
            sh.info[i] = classifySlot(img);
            if (opts.faultIgnoreCrc &&
                sh.info[i].cls == SlotClass::CrcFail) {
                bool torn = false;
                auto rec = LogRecord::deserialize(img, torn);
                if (rec &&
                    rec->payloadBytes() <= LogRecord::kSlotBytes) {
                    sh.info[i].cls = SlotClass::Valid;
                    sh.info[i].torn = torn;
                    sh.info[i].rec = *rec;
                }
            }
            switch (sh.info[i].cls) {
              case SlotClass::Empty:
                ++report.emptySlots;
                break;
              case SlotClass::Torn:
                ++report.tornSlots;
                break;
              case SlotClass::CrcFail:
                ++report.crcFailSlots;
                break;
              case SlotClass::Valid:
                break;
            }
            if ((sh.info[i].cls == SlotClass::Torn ||
                 sh.info[i].cls == SlotClass::CrcFail) &&
                report.firstBadSlotAddr == 0) {
                report.firstBadSlotAddr =
                    sh.slot0 + i * LogRecord::kSlotBytes;
            }
        }

        std::vector<std::uint64_t> window;
        std::int64_t first_valid = -1;
        for (std::uint64_t i = 0; i < sh.slots; ++i) {
            if (sh.info[i].cls == SlotClass::Valid) {
                first_valid = static_cast<std::int64_t>(i);
                break;
            }
        }
        if (first_valid >= 0) {
            bool t0 = sh.info[first_valid].torn;
            std::uint64_t boundary = 0;
            for (std::uint64_t i = 0; i < sh.slots; ++i)
                if (sh.info[i].cls == SlotClass::Valid &&
                    sh.info[i].torn == t0)
                    boundary = i + 1;
            std::vector<std::uint64_t> prev;
            for (std::uint64_t i = boundary; i < sh.slots; ++i)
                if (sh.info[i].cls == SlotClass::Valid)
                    prev.push_back(i);
            sh.wrapped = !prev.empty() || boundary == sh.slots;
            window = std::move(prev);
            for (std::uint64_t i = 0; i < boundary; ++i) {
                if (sh.info[i].cls != SlotClass::Valid)
                    continue;
                if (sh.info[i].torn == t0)
                    window.push_back(i);
                else
                    ++report.stalePassSlots;
            }
        }
        sh.ordered.reserve(window.size());
        for (std::uint64_t slot : window)
            sh.ordered.push_back(&sh.info[slot]);
        summ.validRecords = sh.ordered.size();
        summ.wrapped = sh.wrapped;
        report.validRecords += sh.ordered.size();

        sh.genOf.assign(sh.ordered.size(), SIZE_MAX);
        for (std::size_t i = 0; i < sh.ordered.size(); ++i) {
            const LogRecord &rec = sh.ordered[i]->rec;
            auto it = sh.openGen.find(rec.tx);
            if (it == sh.openGen.end()) {
                sh.gens.push_back({});
                sh.gens.back().tx = rec.tx;
                it = sh.openGen.emplace(rec.tx, sh.gens.size() - 1)
                         .first;
            }
            ShardGen &gen = sh.gens[it->second];
            if (rec.isPrepare) {
                gen.close = ShardGen::Close::Prepare;
                gen.nUpdates = rec.nUpdates;
                gen.commitSeq = rec.commitSeq;
                sh.openGen.erase(it);
            } else if (rec.isCommit && rec.hasShardMask) {
                gen.close = ShardGen::Close::Masked;
                gen.nUpdates = rec.nUpdates;
                gen.commitSeq = rec.commitSeq;
                gen.shardMask = rec.shardMask;
                sh.openGen.erase(it);
            } else if (rec.isCommit) {
                gen.close = ShardGen::Close::Legacy;
                gen.nUpdates = rec.nUpdates;
                sh.openGen.erase(it);
            } else {
                gen.updates.push_back(i);
                sh.genOf[i] = it->second;
            }
        }
    }

    // Step 5 (merged): decide every transaction. Index the cross-shard
    // protocol records first — prepares join their masked commit
    // exactly by the 64-bit transaction sequence number both carry.
    struct GenRef
    {
        std::uint32_t shard;
        std::size_t idx;
    };
    std::map<std::uint64_t, GenRef> maskedBySeq;
    std::map<std::uint64_t, std::vector<GenRef>> preparesBySeq;
    for (std::uint32_t s = 0; s < nShards; ++s) {
        for (std::size_t g = 0; g < sc[s].gens.size(); ++g) {
            ShardGen &gen = sc[s].gens[g];
            if (gen.close == ShardGen::Close::Masked)
                maskedBySeq[gen.commitSeq] = {s, g};
            else if (gen.close == ShardGen::Close::Prepare)
                preparesBySeq[gen.commitSeq].push_back({s, g});
        }
    }

    // Plain commits: single-shard transactions, single-region
    // salvage-or-quarantine semantics within their shard.
    for (std::uint32_t s = 0; s < nShards; ++s) {
        for (auto &gen : sc[s].gens) {
            if (gen.close != ShardGen::Close::Legacy)
                continue;
            ++report.committedTxns;
            std::uint64_t found = gen.updates.size();
            if (gen.nUpdates == 0 || found == gen.nUpdates ||
                sc[s].wrapped) {
                gen.action = ShardGen::Action::Redo;
                ++report.salvagedTxns;
                ++report.shards[s].salvagedTxns;
            } else {
                ++report.quarantinedTxns;
                ++report.shards[s].quarantinedTxns;
                report.quarantinedTxIds.push_back(gen.tx);
            }
        }
    }

    // Masked commits: one committed transaction per record, its
    // slices joined across shards.
    for (auto &[seq, mref] : maskedBySeq) {
        ShardScan &osh = sc[mref.shard];
        ShardGen &own = osh.gens[mref.idx];
        ++report.committedTxns;
        std::uint64_t mask = own.shardMask;

        std::vector<GenRef> slices{mref};
        auto pit = preparesBySeq.find(seq);
        if (pit != preparesBySeq.end()) {
            for (GenRef r : pit->second) {
                if (mask & (1ULL << r.shard)) {
                    sc[r.shard].gens[r.idx].consumed = true;
                    slices.push_back(r);
                }
            }
        }

        if (mask & deadMask) {
            // Degraded mode: the dead shard's slice (updates and its
            // undo values) is gone, so the transaction cannot be
            // replayed whole. Roll back every surviving slice and
            // report the abort — the dead-shard data lines stay as
            // the crash left them.
            ++report.deadShardAborted;
            report.deadShardAbortTxIds.push_back(own.tx);
            for (GenRef r : slices) {
                sc[r.shard].gens[r.idx].action =
                    ShardGen::Action::Undo;
                ++report.shards[r.shard].abortedDeadShard;
            }
            for (std::uint32_t s = 0; s < nShards; ++s)
                if (mask & deadMask & (1ULL << s))
                    ++report.shards[s].abortedDeadShard;
            continue;
        }

        // Completeness across the participation mask: every named
        // shard must account for its slice. A missing or short slice
        // is benign only when that shard wrapped (reclamation only
        // overwrites records whose data already persisted).
        bool ok = own.updates.size() == own.nUpdates || osh.wrapped;
        std::vector<GenRef> attachedOpen;
        for (std::uint32_t s = 0; s < nShards; ++s) {
            if (s == mref.shard || !(mask & (1ULL << s)))
                continue;
            bool have = false;
            for (GenRef r : slices) {
                if (r.shard != s)
                    continue;
                have = true;
                ShardGen &p = sc[s].gens[r.idx];
                if (!(p.updates.size() == p.nUpdates ||
                      sc[s].wrapped))
                    ok = false;
            }
            if (have)
                continue;
            // No prepare from shard s. An open generation of the
            // same txid there is the slice with its prepare record
            // lost: quarantine the whole transaction and pin the
            // generation so rollback does not touch it either.
            auto oit = sc[s].openGen.find(own.tx);
            if (oit != sc[s].openGen.end()) {
                ok = false;
                attachedOpen.push_back({s, oit->second});
            } else if (!sc[s].wrapped) {
                ok = false;
            }
        }
        if (ok) {
            ++report.salvagedTxns;
            for (GenRef r : slices) {
                sc[r.shard].gens[r.idx].action =
                    ShardGen::Action::Redo;
                ++report.shards[r.shard].salvagedTxns;
            }
        } else {
            ++report.quarantinedTxns;
            report.quarantinedTxIds.push_back(own.tx);
            for (GenRef r : slices)
                ++report.shards[r.shard].quarantinedTxns;
            for (GenRef r : attachedOpen) {
                sc[r.shard].gens[r.idx].pinned = true;
                ++report.shards[r.shard].quarantinedTxns;
            }
        }
    }

    // Uncommitted work: prepares with no commit record (the crash hit
    // between the prepare drain and the commit persist — or the
    // commit record died with a dead owner shard) and generations
    // still open, rolled back and counted once per transaction. A
    // prepare whose commit exists but whose shard the commit's mask
    // disowns is rolled back too without recounting the transaction
    // (only mask corruption or the skip-shard-mask self-test can
    // produce it, and the mask is authoritative).
    std::set<std::uint16_t> abortTx;
    std::set<std::uint16_t> deadAmbiguous;
    for (std::uint32_t s = 0; s < nShards; ++s) {
        for (auto &gen : sc[s].gens) {
            if (gen.close == ShardGen::Close::Prepare &&
                !gen.consumed) {
                gen.action = ShardGen::Action::Undo;
                if (maskedBySeq.count(gen.commitSeq))
                    continue;
                abortTx.insert(gen.tx);
                if (deadMask)
                    deadAmbiguous.insert(gen.tx);
            } else if (gen.close == ShardGen::Close::Open &&
                       !gen.pinned) {
                gen.action = ShardGen::Action::Undo;
                abortTx.insert(gen.tx);
            }
        }
    }
    report.uncommittedTxns = abortTx.size();
    for (std::uint16_t tx : deadAmbiguous) {
        ++report.deadShardAborted;
        report.deadShardAbortTxIds.push_back(tx);
    }

    // Step 6 (merged replay). Updates to one address always live in
    // one shard (the shard is a function of the address), so per-shard
    // log order is the only order that matters: redo in shard order,
    // undo in reverse shard order, shards independent.
    if (!opts.faultSkipRedo) {
        for (std::uint32_t s = 0; s < nShards; ++s) {
            ShardScan &sh = sc[s];
            for (std::size_t i = 0; i < sh.ordered.size(); ++i) {
                std::size_t gi = sh.genOf[i];
                if (gi == SIZE_MAX ||
                    sh.gens[gi].action != ShardGen::Action::Redo)
                    continue;
                const LogRecord &rec = sh.ordered[i]->rec;
                if (rec.hasRedo && rec.size >= 1 && rec.size <= 8 &&
                    io.contains(rec.addr, rec.size)) {
                    io.write(rec.addr, rec.size, &rec.redo);
                    ++report.redoApplied;
                }
            }
        }
    }
    if (!opts.faultSkipUndo) {
        for (std::uint32_t s = 0; s < nShards; ++s) {
            ShardScan &sh = sc[s];
            for (std::size_t i = sh.ordered.size(); i-- > 0;) {
                std::size_t gi = sh.genOf[i];
                if (gi == SIZE_MAX ||
                    sh.gens[gi].action != ShardGen::Action::Undo)
                    continue;
                const LogRecord &rec = sh.ordered[i]->rec;
                if (rec.hasUndo && rec.size >= 1 && rec.size <= 8 &&
                    io.contains(rec.addr, rec.size)) {
                    io.write(rec.addr, rec.size, &rec.undo);
                    ++report.undoApplied;
                }
            }
        }
    }

    // Step 6b: promote damaged-slot lines, per shard (same rules as
    // the single-region pass).
    if (promoteInto) {
        for (std::uint32_t s = 0; s < nShards; ++s) {
            ShardScan &sh = sc[s];
            if (sh.dead)
                continue;
            std::vector<Addr> bad_lines;
            for (std::uint64_t i = 0; i < sh.slots; ++i) {
                if (sh.info[i].cls != SlotClass::Torn &&
                    sh.info[i].cls != SlotClass::CrcFail)
                    continue;
                Addr line = (sh.slot0 + i * LogRecord::kSlotBytes) &
                            ~static_cast<Addr>(kLineBytes - 1);
                if (bad_lines.empty() || bad_lines.back() != line)
                    bad_lines.push_back(line);
            }
            bool grew = false;
            for (Addr line : bad_lines) {
                if (promoteInto->find(line) || promoteInto->full())
                    continue;
                std::uint8_t buf[kLineBytes];
                io.read(line, kLineBytes, buf);
                std::optional<Addr> spare = promoteInto->add(line);
                SNF_ASSERT(spare, "remap add failed on unmapped line");
                io.write(*spare, kLineBytes, buf);
                grew = true;
                ++report.promotedLines;
            }
            if (grew) {
                promoteInto->persist(
                    [&io](Addr a, std::uint64_t n, const void *d) {
                        io.write(a, n, d);
                    });
            }
        }
    }

    // Step 7 (merged truncation): raise every live shard's flag, then
    // zero every live shard's slot array (each zeroShard clears its
    // own flag last). Raising all flags first is what makes the
    // resume rule above sound at every interleaving point.
    if (opts.truncateLog) {
        std::uint64_t raised = 1;
        for (auto &sh : sc)
            if (!sh.dead)
                io.write(sh.base + LogRegion::kTruncFlagOffset,
                         sizeof(raised), &raised);
        for (auto &sh : sc)
            if (!sh.dead)
                zeroShard(sh);
    }
    return report;
}

} // namespace

} // namespace snf::persist
