#include "crashlab/faultlab.hh"

#include <algorithm>
#include <cstring>

#include <optional>

#include "core/flags.hh"
#include "mem/fault_model.hh"
#include "mem/remap_table.hh"
#include "persist/log_record.hh"
#include "persist/log_region.hh"
#include "sim/logging.hh"

namespace snf::crashlab
{

namespace
{

double
unit(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/**
 * A slot's live bytes move to its spare line once the persistent
 * remap table promotes the line (lifelab), so slot reads and the
 * damage writes must go through the image's table — otherwise faults
 * would land on the stale pre-promotion copy and remapped lines would
 * silently become immune. Decision hashes stay keyed on the logical
 * slot address, which is stable across promotion. Log headers and
 * slots never cross a 64-byte line, so one translation per access
 * suffices.
 */
struct SlotView
{
    SlotView(const mem::BackingStore &image, const AddressMap &map)
    {
        if (map.remapSize == 0)
            return;
        table.emplace(map.remapBase(), map.remapSize, map.spareBase(),
                      map.spareSize);
        table->load(image); // fresh/corrupt loads empty == identity
    }

    Addr
    translate(Addr a) const
    {
        if (!table)
            return a;
        Addr line =
            a & ~static_cast<Addr>(mem::RemapTable::kLineBytes - 1);
        if (auto spare = table->find(line))
            return *spare + (a - line);
        return a;
    }

    std::optional<mem::RemapTable> table;
};

// Distinct decision streams per slot (mixed into the hash seed).
constexpr std::uint64_t kSaltDrop = 0x11;
constexpr std::uint64_t kSaltTorn = 0x12;
constexpr std::uint64_t kSaltMulti = 0x13;
constexpr std::uint64_t kSaltFlip = 0x14;
constexpr std::uint64_t kSaltBitPos = 0x15;
constexpr std::uint64_t kSaltBitPos2 = 0x16;

} // namespace

bool
ImageFaultPlan::damaged(std::uint16_t tx) const
{
    return std::binary_search(damagedTxIds.begin(),
                              damagedTxIds.end(), tx);
}

ImageFaultPlan
applyImageFaults(mem::BackingStore &image, const AddressMap &map,
                 const ImageFaultConfig &cfg, Tick crashTick)
{
    ImageFaultPlan plan;
    if (!cfg.enabled())
        return plan;

    auto draw = [&](std::uint64_t salt, Addr slotAddr) {
        return mem::FaultInjector::hash(cfg.seed ^ salt, slotAddr,
                                        crashTick);
    };
    SlotView view(image, map);

    for (std::uint32_t s = 0; s < map.logShards; ++s) {
        Addr base = map.logRegionBase(s);
        if (image.read64(view.translate(base)) !=
            persist::LogRegion::kMagic)
            continue;
        std::uint64_t slots = image.read64(view.translate(base + 8));
        std::uint64_t max_slots =
            (map.logRegionBytes() - persist::LogRegion::kHeaderBytes) /
            persist::LogRecord::kSlotBytes;
        if (slots > max_slots)
            continue;

        Addr slot0 = base + persist::LogRegion::kHeaderBytes;
        if (cfg.killShard >= 0 &&
            s == static_cast<std::uint32_t>(cfg.killShard)) {
            // Shard death (degraded mode): every record the shard
            // held is damage by definition — record the txids first,
            // then wipe the header so recovery cannot trust the
            // slice at all.
            for (std::uint64_t i = 0; i < slots; ++i) {
                std::uint8_t img[persist::LogRecord::kSlotBytes];
                image.read(view.translate(
                               slot0 +
                               i * persist::LogRecord::kSlotBytes),
                           persist::LogRecord::kSlotBytes, img);
                persist::SlotInfo info = persist::classifySlot(img);
                if (info.cls == persist::SlotClass::Valid)
                    plan.damagedTxIds.push_back(info.rec.tx);
            }
            std::uint8_t zeros[persist::LogRegion::kHeaderBytes] = {};
            image.write(view.translate(base),
                        persist::LogRegion::kHeaderBytes, zeros);
            plan.killedShard = cfg.killShard;
            continue;
        }
        for (std::uint64_t i = 0; i < slots; ++i) {
            Addr a = slot0 + i * persist::LogRecord::kSlotBytes;
            std::uint8_t img[persist::LogRecord::kSlotBytes];
            image.read(view.translate(a),
                       persist::LogRecord::kSlotBytes, img);
            // Only well-formed slots are candidates, so the damaged
            // set below is exactly the transactions we touched.
            persist::SlotInfo info = persist::classifySlot(img);
            if (info.cls != persist::SlotClass::Valid)
                continue;

            std::uint64_t touched = 0;
            if (unit(draw(kSaltDrop, a)) < cfg.dropSlotProb) {
                // The slot's write never reached the media.
                std::memset(img, 0, sizeof(img));
                plan.droppedSlots += 1;
                touched = 1;
            } else if (unit(draw(kSaltTorn, a)) < cfg.tornSlotProb) {
                // Power cut mid-program: the payload half landed, the
                // header word (written last) did not.
                std::memset(img, 0, 8);
                plan.tornSlots += 1;
                touched = 1;
            } else if (unit(draw(kSaltMulti, a)) < cfg.multiBitProb) {
                std::uint64_t b1 = draw(kSaltBitPos, a) % 256;
                std::uint64_t b2 = draw(kSaltBitPos2, a) % 255;
                if (b2 >= b1)
                    b2 += 1;
                img[b1 / 8] ^= static_cast<std::uint8_t>(1u << (b1 % 8));
                img[b2 / 8] ^= static_cast<std::uint8_t>(1u << (b2 % 8));
                plan.multiBitSlots += 1;
                touched = 1;
            } else if (unit(draw(kSaltFlip, a)) < cfg.bitFlipProb) {
                std::uint64_t b = draw(kSaltBitPos, a) % 256;
                img[b / 8] ^= static_cast<std::uint8_t>(1u << (b % 8));
                plan.bitFlipSlots += 1;
                touched = 1;
            }
            if (touched) {
                image.write(view.translate(a),
                            persist::LogRecord::kSlotBytes, img);
                plan.slotsFaulted += 1;
                plan.damagedTxIds.push_back(info.rec.tx);
            }
        }
    }

    std::sort(plan.damagedTxIds.begin(), plan.damagedTxIds.end());
    plan.damagedTxIds.erase(std::unique(plan.damagedTxIds.begin(),
                                        plan.damagedTxIds.end()),
                            plan.damagedTxIds.end());
    return plan;
}

namespace
{

/** Heap byte ranges written by records of the given transactions,
 *  gathered from the clean image's log slots. */
std::vector<std::pair<Addr, Addr>>
coveredRanges(const mem::BackingStore &image, const AddressMap &map,
              const ImageFaultPlan &plan,
              const std::vector<std::uint16_t> &quarantined)
{
    auto interesting = [&](std::uint16_t tx) {
        return plan.damaged(tx) ||
               std::find(quarantined.begin(), quarantined.end(), tx) !=
                   quarantined.end();
    };

    std::vector<std::pair<Addr, Addr>> ranges;
    SlotView view(image, map);
    for (std::uint32_t s = 0; s < map.logShards; ++s) {
        Addr base = map.logRegionBase(s);
        if (image.read64(view.translate(base)) !=
            persist::LogRegion::kMagic)
            continue;
        std::uint64_t slots = image.read64(view.translate(base + 8));
        Addr slot0 = base + persist::LogRegion::kHeaderBytes;
        for (std::uint64_t i = 0; i < slots; ++i) {
            std::uint8_t img[persist::LogRecord::kSlotBytes];
            image.read(view.translate(
                           slot0 +
                           i * persist::LogRecord::kSlotBytes),
                       persist::LogRecord::kSlotBytes, img);
            persist::SlotInfo info = persist::classifySlot(img);
            if (info.cls != persist::SlotClass::Valid ||
                info.rec.isCommit || info.rec.isPrepare ||
                !interesting(info.rec.tx))
                continue;
            ranges.emplace_back(info.rec.addr,
                                info.rec.addr + info.rec.size);
        }
    }
    std::sort(ranges.begin(), ranges.end());
    return ranges;
}

/** End of a range covering @p a, or 0 if none covers it. */
Addr
coveringEnd(const std::vector<std::pair<Addr, Addr>> &ranges, Addr a)
{
    auto it = std::upper_bound(
        ranges.begin(), ranges.end(), a,
        [](Addr x, const std::pair<Addr, Addr> &r) {
            return x < r.first;
        });
    Addr end = 0;
    // Ranges are tiny (<= 8 bytes) but may share a start address, so
    // walk the preceding entries that could still span @p a.
    while (it != ranges.begin()) {
        --it;
        if (it->second > a)
            end = std::max(end, it->second);
        if (it->first + 8 < a)
            break;
    }
    return end;
}

} // namespace

std::vector<Violation>
checkFaultedCrashPoint(const mem::BackingStore &image,
                       const AddressMap &map,
                       const ImageFaultConfig &faults,
                       const CrashFacts &facts,
                       const persist::RecoveryOptions &recOpts,
                       persist::RecoveryReport *reportOut,
                       ImageFaultPlan *planOut)
{
    std::vector<Violation> out;

    mem::BackingStore faulted = image;
    ImageFaultPlan plan =
        applyImageFaults(faulted, map, faults, facts.tick);
    if (planOut)
        *planOut = plan;

    // Canonical faulted recovery: salvage, quarantine, truncate. The
    // pass also hands back its image just before truncation, which is
    // the damaged image salvaged once.
    persist::RecoveryOptions canonOpts = recOpts;
    canonOpts.truncateLog = true;
    mem::BackingStore recovered = faulted;
    mem::BackingStore once(faulted.base(), faulted.size());
    persist::RecoveryReport rep =
        persist::Recovery::run(recovered, map, canonOpts, &once);
    if (reportOut)
        *reportOut = rep;

    // salvage-idempotent (I8): a second, non-truncating salvage pass
    // over the salvaged image must change no byte.
    persist::RecoveryOptions replayOpts = recOpts;
    replayOpts.truncateLog = false;
    mem::BackingStore twice = once;
    persist::Recovery::run(twice, map, replayOpts);
    if (auto diff = once.firstDifference(twice, once.base(),
                                         once.size())) {
        out.push_back({"salvage-idempotent",
                       strfmt("second salvage pass changed the image, first "
                              "difference at 0x%llx",
                              static_cast<unsigned long long>(*diff))});
    }

    // header-valid: injection never touches the log header.
    if (facts.mode != PersistMode::NonPers && !rep.headerValid) {
        out.push_back({"header-valid",
                       "recovery rejected the log header under media faults"});
    }

    // committed-upper: damage can destroy commit records but never
    // forge one (the CRC rejects mutated slots), so the trace upper
    // bound survives injection.
    if (rep.committedTxns > facts.txCommitted) {
        out.push_back(
            {"committed-upper",
             strfmt("recovered %llu committed txns under faults but "
                    "only %llu commits had initiated by tick %llu",
                    static_cast<unsigned long long>(rep.committedTxns),
                    static_cast<unsigned long long>(facts.txCommitted),
                    static_cast<unsigned long long>(facts.tick))});
    }

    // The soundness oracles need every record of the run still in the
    // log; after a wrap, reclamation legitimately erases history.
    if (facts.logWraps != 0)
        return out;

    // quarantine-sound (I7): recovery may only quarantine
    // transactions whose records the plan actually damaged.
    for (std::uint16_t tx : rep.quarantinedTxIds) {
        if (!plan.damaged(tx)) {
            out.push_back({"quarantine-sound",
                           strfmt("tx %u quarantined but none of its slots "
                                  "were damaged",
                                  tx)});
        }
    }

    // undamaged-oracle: recover the *clean* image with the default
    // scanner and compare heap bytes. Any divergence must lie inside
    // an address written by a damaged or quarantined transaction;
    // anything else is a false replay (e.g. trusting a corrupt
    // record) or a false skip.
    mem::BackingStore cleanRec = image;
    persist::Recovery::run(cleanRec, map, persist::RecoveryOptions{});
    // Dead-shard aborts roll a committed transaction back on its
    // surviving shards, so their write sets legitimately diverge from
    // the clean recovery too.
    std::vector<std::uint16_t> excused = rep.quarantinedTxIds;
    excused.insert(excused.end(), rep.deadShardAbortTxIds.begin(),
                   rep.deadShardAbortTxIds.end());
    auto ranges = coveredRanges(image, map, plan, excused);
    Addr from = map.heapBase();
    Addr end = map.nvramBase + map.nvramSize;
    while (from < end) {
        auto diff =
            cleanRec.firstDifference(recovered, from, end - from);
        if (!diff)
            break;
        Addr cover = coveringEnd(ranges, *diff);
        if (cover == 0) {
            out.push_back({"undamaged-oracle",
                           strfmt("faulted recovery diverges from clean "
                                  "recovery at 0x%llx, outside every damaged "
                                  "or quarantined transaction's write set",
                                  static_cast<unsigned long long>(*diff))});
            break;
        }
        from = cover;
    }

    return out;
}

void
addImageFaultFlags(FlagSet &flags, ImageFaultConfig *faults)
{
    flags.addRate("--fault-bitflip P", &faults->bitFlipProb,
                  "faultlab: bit-flip probability per snapshot slot");
    flags.addRate("--fault-multibit P", &faults->multiBitProb,
                  "double-bit flip probability per slot");
    flags.addRate("--fault-drop-slot P", &faults->dropSlotProb,
                  "lost-slot-write probability per slot");
    flags.addRate("--fault-torn-slot P", &faults->tornSlotProb,
                  "torn-header-word probability per slot");
    flags.addCount("--fault-seed N", &faults->seed,
                   "seed of the deterministic damage (default 1)");
    ImageFaultConfig light = ImageFaultConfig::light(0);
    ImageFaultConfig heavy = ImageFaultConfig::heavy(0);
    flags.addPresetFlag(
        "--fault-preset light|heavy",
        {{"light", {{&faults->bitFlipProb, light.bitFlipProb}}},
         {"heavy",
          {{&faults->bitFlipProb, heavy.bitFlipProb},
           {&faults->multiBitProb, heavy.multiBitProb},
           {&faults->dropSlotProb, heavy.dropSlotProb},
           {&faults->tornSlotProb, heavy.tornSlotProb}}}},
        "canned damage mix, before any --fault-* rate");
}

} // namespace snf::crashlab
