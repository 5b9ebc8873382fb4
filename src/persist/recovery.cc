#include "persist/recovery.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <set>
#include <span>
#include <type_traits>
#include <vector>

#include "mem/remap_table.hh"
#include "persist/log_record.hh"
#include "persist/log_region.hh"
#include "sim/line_table.hh"
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

    /** 64-byte lines [a, a+n) touches (n > 0). */
    static std::uint64_t
    linesOf(Addr a, std::uint64_t n)
    {
        return ((a + n - 1) / kLineBytes) - (a / kLineBytes) + 1;
    }

    /**
     * Whether a write of @p lines lines may go to the store in one
     * call: no per-line observer is active, no line is remapped, and
     * all of them fit the write budget. If so, they are counted here,
     * exactly as the per-line loop would count them.
     */
    bool
    bulk(std::uint64_t lines)
    {
        if (collect || !directScan() || applied + lines > budget)
            return false;
        issued += lines;
        applied += lines;
        return true;
    }

    void
    write(Addr a, std::uint64_t n, const void *in)
    {
        const auto *src = static_cast<const std::uint8_t *>(in);
        if (n > 0 && bulk(linesOf(a, n))) {
            img.write(a, n, src);
            return;
        }
        while (n > 0) {
            Addr line_end = (a | (kLineBytes - 1)) + 1;
            std::uint64_t seg = std::min<std::uint64_t>(n,
                                                        line_end - a);
            Addr line = a & ~static_cast<Addr>(kLineBytes - 1);
            ++issued;
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

    /**
     * Apply @p words in order, as write(w.addr, w.size, &w.value) of
     * each would: in one store call when the whole batch goes bulk,
     * else word by word (the budget may cut it, observers see lines).
     */
    void
    writeWords(std::span<const mem::BackingStore::Word> words)
    {
        std::uint64_t lines = 0;
        for (const auto &w : words)
            lines += linesOf(w.addr, w.size);
        if (bulk(lines)) {
            img.writeWords(words);
            return;
        }
        for (const auto &w : words)
            write(w.addr, w.size, &w.value);
    }

    /**
     * Zero [a, a+n), counting lines as write() of 1 KB chunks from
     * @p a would: in one store call, which drops whole pages, when
     * every chunk would go bulk; else chunk by chunk.
     */
    void
    zero(Addr a, std::uint64_t n)
    {
        constexpr std::uint64_t kChunk = 1024;
        std::uint64_t lines = 0;
        for (std::uint64_t off = 0; off < n; off += kChunk)
            lines += linesOf(a + off, std::min(kChunk, n - off));
        if (bulk(lines)) {
            img.zeroRange(a, n);
            return;
        }
        static constexpr std::uint8_t kZeros[kChunk] = {};
        for (std::uint64_t off = 0; off < n; off += kChunk)
            write(a + off, std::min(kChunk, n - off), kZeros);
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

RecoveryReport recoverLog(ImageIO &io, const AddressMap &map,
                          const RecoveryOptions &opts,
                          mem::RemapTable *promoteInto,
                          mem::BackingStore *replayed);

/** Active per-thread sink of RecoveryTimerScope (null = off). */
thread_local RecoveryTally *recoveryTimerSink = nullptr;

} // namespace

RecoveryTimerScope::RecoveryTimerScope(RecoveryTally *sink)
    : prev(recoveryTimerSink)
{
    recoveryTimerSink = sink;
}

RecoveryTimerScope::~RecoveryTimerScope()
{
    recoveryTimerSink = prev;
}

RecoveryTally *
activeRecoveryTimerSink()
{
    return recoveryTimerSink;
}

RecoveryReport
Recovery::run(mem::BackingStore &image, const AddressMap &map,
              const RecoveryOptions &opts, mem::BackingStore *replayed)
{
    struct TimeGuard
    {
        std::chrono::steady_clock::time_point start =
            std::chrono::steady_clock::now();
        ~TimeGuard()
        {
            if (recoveryTimerSink) {
                recoveryTimerSink->ns += static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count());
                ++recoveryTimerSink->calls;
            }
        }
    } timeGuard;

    // The write budget, the remap table, and the touched-line set span
    // the whole pass.
    mem::RemapTable remap(map.remapBase(), map.remapSize ? map.remapSize
                                                         : 128,
                          map.spareBase(), map.spareSize);
    bool have_remap = map.remapSize != 0;
    bool remap_corrupt = have_remap && remap.load(image).corrupted;
    ImageIO io{image};
    io.remap = have_remap ? &remap : nullptr;
    io.budget = opts.crashAfterWrites;
    io.collect = opts.collectWrites;

    RecoveryReport r = recoverLog(
        io, map, opts,
        have_remap && opts.promoteBadLines ? &remap : nullptr, replayed);
    r.remapCorrupt = remap_corrupt;
    r.writesIssued = io.issued;
    r.writesApplied = io.applied;
    r.interrupted = io.interrupted();
    r.touchedLines = std::move(io.touched);
    return r;
}

namespace
{

/** One transaction generation inside one shard's live window. */
struct ShardGen
{
    /** Update records found in the shard's window (replay finds them
     *  through ShardScan::genOf). */
    std::uint32_t found = 0;
    std::uint16_t tx = 0;
    enum class Close { Open, Plain, Prepare, Masked };
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

/** Scan result of one slot: 8 bytes, the parsed record kept apart. */
struct SlotMeta
{
    SlotClass cls;
    bool torn;
    std::uint32_t rec; ///< index into the parsed records, or kNoRec
};
constexpr std::uint32_t kNoRec = ~std::uint32_t{0};

/**
 * Classification of a run of consecutive slots: a pure function of
 * their bytes and RecoveryOptions::faultIgnoreCrc, independent of
 * where they sit. Record indices and the first damaged slot are
 * relative to the run.
 */
struct SlotRun
{
    std::vector<SlotMeta> meta;  ///< rec indexes recs
    std::vector<LogRecord> recs; ///< the Valid slots' records
    std::uint64_t empty = 0;
    std::uint64_t torn = 0;
    std::uint64_t crcFail = 0;
    std::uint32_t firstBad = kNoRec; ///< first Torn/CrcFail slot

    void
    classify(const std::uint8_t *img, std::uint64_t n, bool ignoreCrc)
    {
        static const std::uint8_t kZeroSlot[LogRecord::kSlotBytes] = {};
        meta.assign(n, SlotMeta{SlotClass::Empty, false, kNoRec});
        recs.clear();
        empty = torn = crcFail = 0;
        firstBad = kNoRec;
        for (std::uint64_t i = 0; i < n; ++i) {
            const std::uint8_t *slot = img + i * LogRecord::kSlotBytes;
            if (std::memcmp(slot, kZeroSlot, LogRecord::kSlotBytes) ==
                0) {
                // All-zero slot: most of the region in a typical sweep.
                ++empty;
                continue;
            }
            SlotInfo si = classifySlot(slot);
            if (ignoreCrc && si.cls == SlotClass::CrcFail) {
                // Injected bug: the pre-faultlab scanner trusted any
                // slot with a written marker.
                bool t = false;
                auto rec = LogRecord::deserialize(slot, t);
                if (rec &&
                    rec->payloadBytes() <= LogRecord::kSlotBytes) {
                    si.cls = SlotClass::Valid;
                    si.torn = t;
                    si.rec = *rec;
                }
            }
            meta[i].cls = si.cls;
            meta[i].torn = si.torn;
            switch (si.cls) {
              case SlotClass::Empty:
                ++empty;
                break;
              case SlotClass::Torn:
                ++torn;
                break;
              case SlotClass::CrcFail:
                ++crcFail;
                break;
              case SlotClass::Valid:
                meta[i].rec = static_cast<std::uint32_t>(recs.size());
                recs.push_back(si.rec);
                break;
            }
            if ((si.cls == SlotClass::Torn ||
                 si.cls == SlotClass::CrcFail) &&
                firstBad == kNoRec)
                firstBad = static_cast<std::uint32_t>(i);
        }
    }
};

/**
 * Per-thread page memo of the direct slot scan. A crash sweep
 * recovers several copies of each crash image, and consecutive crash
 * points share most log pages, so the scan keeps, per chunk (the
 * slots of one resident page within one shard), the bytes it last
 * classified there and what it derived from them. A chunk whose bytes
 * and faultIgnoreCrc match reuses that SlotRun; any other is
 * classified afresh and replaces it. All-empty chunks are never
 * stored, so re-recovering a truncated log keeps the pre-truncation
 * pages the next crash point needs. One log area per thread: a call
 * over another log base or size starts the memo over.
 */
struct ScanMemo
{
    struct Chunk
    {
        std::vector<std::uint8_t> bytes;
        bool ignoreCrc = false;
        SlotRun run;
    };
    // A pass points at the records of the runs scan() returns. A
    // chunk's run changes only when that chunk is scanned again, and
    // growing `chunks` moves each run's record buffer, never copies
    // it, so the pointers hold for the rest of the pass.
    static_assert(std::is_nothrow_move_constructible_v<Chunk>);

    Addr logBase = 0;
    std::uint64_t logSize = 0;
    sim::LineTable<std::size_t> byAddr; ///< chunk start -> chunks idx
    std::vector<Chunk> chunks;
    SlotRun fresh; ///< scratch for chunks not (yet) memoized

    /** The classification of the @p n slots at @p img, which start at
     *  @p a; valid until the next call. */
    const SlotRun &
    scan(Addr a, const std::uint8_t *img, std::uint64_t n,
         bool ignoreCrc)
    {
        const std::uint64_t len = n * LogRecord::kSlotBytes;
        const std::size_t *idx = byAddr.find(a);
        if (idx) {
            Chunk &c = chunks[*idx];
            if (c.ignoreCrc == ignoreCrc && c.bytes.size() == len &&
                std::memcmp(c.bytes.data(), img, len) == 0)
                return c.run;
        }
        fresh.classify(img, n, ignoreCrc);
        if (fresh.empty == n)
            return fresh; // no records to point at
        if (!idx) {
            byAddr[a] = chunks.size();
            chunks.emplace_back();
        }
        Chunk &c = idx ? chunks[*idx] : chunks.back();
        c.bytes.assign(img, img + len);
        c.ignoreCrc = ignoreCrc;
        std::swap(c.run, fresh);
        return c.run;
    }

    void
    resetFor(const AddressMap &map)
    {
        if (map.logBase() == logBase && map.logSize == logSize)
            return;
        logBase = map.logBase();
        logSize = map.logSize;
        byAddr.clear();
        chunks.clear();
    }
};

/** Scan state of one shard's slice of the log region. */
struct ShardScan
{
    Addr base = 0;
    Addr slot0 = 0;
    std::uint64_t slots = 0; ///< 0 for a dead shard
    std::uint64_t meta0 = 0; ///< the shard's first SlotMeta
    bool dead = true;
    bool wrapped = false;
    /** Live window in log order, as indices into the parsed records. */
    std::vector<std::uint32_t> ordered;
    std::vector<std::size_t> genOf; ///< window idx -> gen idx
    std::vector<ShardGen> gens;
    /** Generations still open at the window's end, by txid. */
    sim::LineTable<std::size_t> openGen;
    ShardSummary sum;
};

/**
 * Recover a log split into AddressMap::logShards circular regions (1 =
 * the centralized log). Each shard is scanned on its own (slot
 * classification, torn-parity window, re-entrant truncation flag), but
 * commit decisions are made per *transaction*, joining records across
 * shards:
 *
 *  - A plain commit record decides alone inside its shard: every
 *    transaction of a centralized log or of a per-core region, and a
 *    sharded transaction whose updates all landed in one shard.
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
recoverLog(ImageIO &io, const AddressMap &map,
           const RecoveryOptions &opts, mem::RemapTable *promoteInto,
           mem::BackingStore *replayed)
{
    RecoveryReport report;
    const std::uint32_t nShards = std::max(map.logShards, 1u);

    std::vector<ShardScan> sc(nShards);
    std::uint64_t deadMask = 0;
    bool anyTruncFlag = false;
    // Per-shard summaries only when there is more than one region.
    auto finish = [&]() {
        if (nShards > 1)
            for (const ShardScan &sh : sc)
                report.shards.push_back(sh.sum);
        return std::move(report);
    };

    // Pass A: headers and truncation flags of every shard, before any
    // write — the merged resume decision needs the global flag view.
    for (std::uint32_t s = 0; s < nShards; ++s) {
        ShardScan &sh = sc[s];
        sh.base = map.logRegionBase(s);
        sh.slot0 = sh.base + LogRegion::kHeaderBytes;
        sh.sum.shard = s;
        std::uint64_t magic = io.read64(sh.base);
        std::uint64_t slots = io.read64(sh.base + 8);
        if (magic != LogRegion::kMagic || slots == 0 ||
            slots > (map.logRegionBytes() - LogRegion::kHeaderBytes) /
                        LogRecord::kSlotBytes) {
            warn("recovery: shard %u header invalid, degraded mode", s);
            sh.sum.dead = true;
            deadMask |= 1ULL << s;
            continue;
        }
        sh.dead = false;
        sh.slots = slots;
        sh.sum.headerValid = true;
        report.headerValid = true;
        anyTruncFlag |=
            io.read64(sh.base + LogRegion::kTruncFlagOffset) != 0;
    }

    auto zeroShard = [&](ShardScan &sh) {
        io.zero(sh.slot0, sh.slots * LogRecord::kSlotBytes);
        std::uint64_t cleared = 0;
        io.write(sh.base + LogRegion::kTruncFlagOffset,
                 sizeof(cleared), &cleared);
    };

    // Interrupted-truncation resume: an interrupted truncation must not
    // let a resumed recovery reinterpret a partially zeroed slot array
    // (a zeroed prefix can detach a commit record from its updates or
    // resurrect stale-pass records under a different window parity).
    // Any live shard's flag proves the previous pass finished replay
    // everywhere (all flags are raised before any slot is zeroed, and
    // raised only after replay and promotion), so the resumed pass
    // just finishes zeroing every live shard, whatever
    // opts.truncateLog says, so the replayed image is the zeroed one.
    if (anyTruncFlag) {
        for (auto &sh : sc)
            if (!sh.dead)
                zeroShard(sh);
        if (replayed)
            *replayed = io.img;
        return finish();
    }

    // Pass B: per-shard slot classification, live-window location and
    // generation grouping. classifySlot separates damage (torn partial
    // writes, CRC failures) from parseable records; damaged slots
    // never contribute replay values. The scan is by far the hottest
    // loop of a crash sweep (3+ passes per evaluated point), so with
    // no remapping active it walks the image's resident pages in
    // place: a page never written reads as zero, so every slot inside
    // it is Empty without the bytes ever being copied or compared —
    // on a typical sweep only the written log prefix of the multi-MB
    // region costs anything — and a resident page whose bytes this
    // thread already classified reuses that result (ScanMemo).
    // Remapped images (lifelab) copy each slot array through the
    // translating reader instead.
    //
    // Scratch is thread_local and reused across calls: a sweep runs
    // recovery once per crash point × pass. Per-slot state is an
    // 8-byte SlotMeta; the Valid slots' records are read where the
    // classification keeps them, through one pointer each. Only the
    // runs classified without the memo (`single`, reclassified on
    // every use) are copied, into `owned`, whose capacity for every
    // slot keeps them in place while the pass points at them.
    // `txGen` maps a 16-bit txid to its open generation + 1 while a
    // shard is grouped, and is all zero between shards.
    thread_local std::vector<SlotMeta> meta;
    thread_local std::vector<const LogRecord *> parsed;
    thread_local std::vector<LogRecord> owned;
    thread_local std::vector<std::uint8_t> slotImg;
    thread_local SlotRun single; // runs classified without the memo
    thread_local ScanMemo memo;
    thread_local std::vector<std::uint32_t> txGen(
        std::size_t{1} << (8 * sizeof(LogRecord::tx)), 0);
    std::uint64_t total_slots = 0;
    for (ShardScan &sh : sc) {
        sh.meta0 = total_slots;
        total_slots += sh.slots;
    }
    meta.assign(total_slots, SlotMeta{SlotClass::Empty, false, kNoRec});
    parsed.clear();
    owned.clear();
    if (io.directScan())
        memo.resetFor(map);

    for (std::uint32_t s = 0; s < nShards; ++s) {
        ShardScan &sh = sc[s];
        if (sh.dead)
            continue;
        SlotMeta *m = meta.data() + sh.meta0;
        // Account the run classified for slots [i, i + run size).
        auto add = [&](std::uint64_t i, const SlotRun &run) {
            const std::uint64_t n = run.meta.size();
            const auto rec0 = static_cast<std::uint32_t>(parsed.size());
            report.slotsScanned += n;
            sh.sum.slotsScanned += n;
            report.emptySlots += run.empty;
            report.tornSlots += run.torn;
            report.crcFailSlots += run.crcFail;
            for (std::uint64_t k = 0; k < n; ++k) {
                m[i + k] = run.meta[k];
                if (run.meta[k].rec != kNoRec)
                    m[i + k].rec += rec0;
            }
            const LogRecord *recs = run.recs.data();
            if (&run == &single && !run.recs.empty()) {
                if (owned.empty())
                    owned.reserve(total_slots); // no pointer into it yet
                SNF_ASSERT(owned.size() + run.recs.size() <=
                               owned.capacity(),
                           "more records than slots");
                recs = owned.data() + owned.size();
                owned.insert(owned.end(), run.recs.begin(),
                             run.recs.end());
            }
            for (std::size_t r = 0; r < run.recs.size(); ++r)
                parsed.push_back(recs + r);
            if (run.firstBad != kNoRec && report.firstBadSlotAddr == 0)
                report.firstBadSlotAddr =
                    sh.slot0 + (i + run.firstBad) * LogRecord::kSlotBytes;
        };
        if (io.directScan()) {
            std::uint64_t i = 0;
            while (i < sh.slots) {
                Addr a = sh.slot0 + i * LogRecord::kSlotBytes;
                std::uint64_t avail = 0;
                const std::uint8_t *p = io.pageAt(a, &avail);
                std::uint64_t whole = std::min<std::uint64_t>(
                    sh.slots - i, avail / LogRecord::kSlotBytes);
                if (whole == 0) {
                    // Slot straddles a page boundary: assemble it.
                    std::uint8_t buf[LogRecord::kSlotBytes];
                    io.read(a, LogRecord::kSlotBytes, buf);
                    single.classify(buf, 1, opts.faultIgnoreCrc);
                    add(i, single);
                    ++i;
                    continue;
                }
                if (p == nullptr) {
                    // Absent page: `whole` slots of zeros.
                    report.emptySlots += whole;
                    report.slotsScanned += whole;
                    sh.sum.slotsScanned += whole;
                } else {
                    add(i, memo.scan(a, p, whole, opts.faultIgnoreCrc));
                }
                i += whole;
            }
        } else {
            slotImg.resize(sh.slots * LogRecord::kSlotBytes);
            io.read(sh.slot0, slotImg.size(), slotImg.data());
            single.classify(slotImg.data(), sh.slots, opts.faultIgnoreCrc);
            add(0, single);
        }

        // Locate the live window. The torn (pass-parity) bit of the
        // first valid slot fixes the current pass; the window runs to
        // the LAST slot of that parity, bridging damaged or dropped
        // slots instead of stopping at the first anomaly (a single
        // damaged slot must not hide every record behind it). Valid
        // slots of the other parity past the window end are the
        // previous pass (older, replayed first); inside the window
        // they are stale records exposed by a dropped overwrite and
        // must not be replayed.
        std::uint64_t first_valid = sh.slots;
        for (std::uint64_t i = 0; i < sh.slots; ++i) {
            if (m[i].cls == SlotClass::Valid) {
                first_valid = i;
                break;
            }
        }
        if (first_valid < sh.slots) {
            bool t0 = m[first_valid].torn;
            std::uint64_t boundary = 0; // one past the last current slot
            for (std::uint64_t i = 0; i < sh.slots; ++i)
                if (m[i].cls == SlotClass::Valid && m[i].torn == t0)
                    boundary = i + 1;
            for (std::uint64_t i = boundary; i < sh.slots; ++i)
                if (m[i].cls == SlotClass::Valid)
                    sh.ordered.push_back(m[i].rec);
            // A slot being overwritten has its payload landed under
            // the old header, so it fails its CRC under the previous
            // pass's torn bit (a first write has no marker and reads
            // Torn). At the window's end with nothing valid after it,
            // it is the last slot of a log that has wrapped.
            sh.wrapped = !sh.ordered.empty() || boundary == sh.slots ||
                         (m[boundary].cls == SlotClass::CrcFail &&
                          m[boundary].torn != t0);
            for (std::uint64_t i = 0; i < boundary; ++i) {
                if (m[i].cls != SlotClass::Valid)
                    continue; // holes and damage: bridged
                if (m[i].torn == t0)
                    sh.ordered.push_back(m[i].rec);
                else
                    ++report.stalePassSlots;
            }
        }
        sh.sum.validRecords = sh.ordered.size();
        sh.sum.wrapped = sh.wrapped;
        report.validRecords += sh.ordered.size();

        // Group records by transaction generation. A closing record
        // (commit, masked commit or prepare) closes the current
        // generation of its 16-bit txid; a later record with the same
        // txid starts a new generation.
        sh.genOf.assign(sh.ordered.size(), SIZE_MAX);
        for (std::size_t i = 0; i < sh.ordered.size(); ++i) {
            const LogRecord &rec = *parsed[sh.ordered[i]];
            std::uint32_t &open = txGen[rec.tx];
            if (open == 0) {
                sh.gens.push_back({});
                sh.gens.back().tx = rec.tx;
                open = static_cast<std::uint32_t>(sh.gens.size());
            }
            const std::size_t gi = open - 1;
            ShardGen &gen = sh.gens[gi];
            if (rec.isPrepare) {
                gen.close = ShardGen::Close::Prepare;
                gen.nUpdates = rec.nUpdates;
                gen.commitSeq = rec.commitSeq;
                open = 0;
            } else if (rec.isCommit && rec.hasShardMask) {
                gen.close = ShardGen::Close::Masked;
                gen.nUpdates = rec.nUpdates;
                gen.commitSeq = rec.commitSeq;
                gen.shardMask = rec.shardMask;
                open = 0;
            } else if (rec.isCommit) {
                gen.close = ShardGen::Close::Plain;
                gen.nUpdates = rec.nUpdates;
                open = 0;
            } else {
                ++gen.found;
                sh.genOf[i] = gi;
            }
        }
        // Hand the generations left open to the cross-shard join and
        // leave txGen all zero for the next shard.
        for (std::size_t g = 0; g < sh.gens.size(); ++g) {
            if (sh.gens[g].close != ShardGen::Close::Open)
                continue;
            sh.openGen[sh.gens[g].tx] = g;
            txGen[sh.gens[g].tx] = 0;
        }
    }

    // Step 5: decide every transaction. Index the cross-shard protocol
    // records first — prepares join their masked commit exactly by the
    // 64-bit transaction sequence number both carry.
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

    // Plain commits, salvaged or quarantined inside their shard. A
    // generation whose commit record promises nUpdates records is
    // salvaged when they were all found. A shortfall is benign only if
    // the shard wrapped: reclamation legitimately overwrites old
    // records (and only ones whose data already persisted, so the
    // partial replay is still correct). Without a wrap, log drains are
    // FIFO — a durable commit record implies every update record
    // landed first — so a shortfall can only mean media damage:
    // quarantine, leave the data exactly as the crash left it.
    // nUpdates == 0 records predate the accounting and keep the legacy
    // always-replay behavior.
    for (std::uint32_t s = 0; s < nShards; ++s) {
        for (auto &gen : sc[s].gens) {
            if (gen.close != ShardGen::Close::Plain)
                continue;
            ++report.committedTxns;
            if (gen.nUpdates == 0 || gen.found == gen.nUpdates ||
                sc[s].wrapped) {
                gen.action = ShardGen::Action::Redo;
                ++report.salvagedTxns;
                ++sc[s].sum.salvagedTxns;
            } else {
                ++report.quarantinedTxns;
                ++sc[s].sum.quarantinedTxns;
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
                ++sc[r.shard].sum.abortedDeadShard;
            }
            for (std::uint32_t s = 0; s < nShards; ++s)
                if (mask & deadMask & (1ULL << s))
                    ++sc[s].sum.abortedDeadShard;
            continue;
        }

        // Completeness across the participation mask: every named
        // shard must account for its slice. A missing or short slice
        // is benign only when that shard wrapped (reclamation only
        // overwrites records whose data already persisted).
        bool ok = own.found == own.nUpdates || osh.wrapped;
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
                if (!(p.found == p.nUpdates || sc[s].wrapped))
                    ok = false;
            }
            if (have)
                continue;
            // No prepare from shard s. An open generation of the
            // same txid there is the slice with its prepare record
            // lost: quarantine the whole transaction and pin the
            // generation so rollback does not touch it either.
            if (const std::size_t *open = sc[s].openGen.find(own.tx)) {
                ok = false;
                attachedOpen.push_back({s, *open});
            } else if (!sc[s].wrapped) {
                ok = false;
            }
        }
        if (ok) {
            ++report.salvagedTxns;
            for (GenRef r : slices) {
                sc[r.shard].gens[r.idx].action =
                    ShardGen::Action::Redo;
                ++sc[r.shard].sum.salvagedTxns;
            }
        } else {
            ++report.quarantinedTxns;
            report.quarantinedTxIds.push_back(own.tx);
            for (GenRef r : slices)
                ++sc[r.shard].sum.quarantinedTxns;
            for (GenRef r : attachedOpen) {
                sc[r.shard].gens[r.idx].pinned = true;
                ++sc[r.shard].sum.quarantinedTxns;
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

    // Step 6: replay. Quarantined transactions are left exactly as the
    // crash left them; writes are functional (the caches are volatile
    // and reset after the crash). Updates to one address always live
    // in one shard (the shard is a function of the address, and
    // per-core regions need thread-private data), so per-shard log
    // order is the only order that matters: redo in shard order, undo
    // in reverse shard order, shards independent. The words go to
    // the image as one batch, in that order.
    thread_local std::vector<mem::BackingStore::Word> words;
    words.clear();
    if (!opts.faultSkipRedo) {
        for (std::uint32_t s = 0; s < nShards; ++s) {
            ShardScan &sh = sc[s];
            for (std::size_t i = 0; i < sh.ordered.size(); ++i) {
                std::size_t gi = sh.genOf[i];
                if (gi == SIZE_MAX ||
                    sh.gens[gi].action != ShardGen::Action::Redo)
                    continue;
                const LogRecord &rec = *parsed[sh.ordered[i]];
                if (rec.hasRedo && rec.size >= 1 && rec.size <= 8 &&
                    io.contains(rec.addr, rec.size)) {
                    words.push_back({rec.addr, rec.redo, rec.size});
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
                const LogRecord &rec = *parsed[sh.ordered[i]];
                if (rec.hasUndo && rec.size >= 1 && rec.size <= 8 &&
                    io.contains(rec.addr, rec.size)) {
                    words.push_back({rec.addr, rec.undo, rec.size});
                    ++report.undoApplied;
                }
            }
        }
    }
    io.writeWords(words);

    // Step 6b (lifelab): promote the lines of damaged slots into the
    // persistent remap table so the next generation's log traffic
    // avoids the suspect media. This runs BEFORE truncation — the
    // damage evidence must survive an interrupted pass so a resumed
    // recovery finds the same promotion set — and processes lines in
    // ascending address order, skipping ones already promoted, so the
    // spare assignment is deterministic across interrupt/resume.
    if (promoteInto) {
        for (std::uint32_t s = 0; s < nShards; ++s) {
            ShardScan &sh = sc[s];
            const SlotMeta *m = meta.data() + sh.meta0;
            std::vector<Addr> bad_lines;
            for (std::uint64_t i = 0; i < sh.slots; ++i) {
                if (m[i].cls != SlotClass::Torn &&
                    m[i].cls != SlotClass::CrcFail)
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
                // Copy the line's current bytes to the spare *before*
                // the mapping exists (afterwards reads of the line
                // would follow the mapping), then record it.
                std::uint8_t buf[kLineBytes];
                io.read(line, kLineBytes, buf);
                std::optional<Addr> spare = promoteInto->add(line);
                SNF_ASSERT(spare, "remap add failed on unmapped line");
                io.write(*spare, kLineBytes, buf);
                grew = true;
                ++report.promotedLines;
            }
            if (grew) {
                // One durable table update per shard; goes through
                // the counted writer so the sweep can interrupt it at
                // any chunk (the half-written bank stays CRC-invalid).
                promoteInto->persist(
                    [&io](Addr a, std::uint64_t n, const void *d) {
                        io.write(a, n, d);
                    });
            }
        }
    }

    // Everything above ran the same whatever opts.truncateLog says: the
    // image here is what a non-truncating pass leaves.
    if (replayed)
        *replayed = io.img;

    // Step 7: truncate: raise every live shard's flag, then zero every
    // live shard's slot array, damaged slots too (each zeroShard
    // clears its own flag last). Raising all flags first is what
    // makes the resume rule above sound at every interleaving point.
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
    return finish();
}

} // namespace

} // namespace snf::persist
