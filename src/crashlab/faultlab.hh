/**
 * @file
 * faultlab — NVRAM media-fault injection into crash snapshots, plus
 * the invariant checkers for recovery under damage.
 *
 * The live fault model (mem/fault_model.hh) damages writes as a run
 * executes; this module instead damages the *snapshot image* a crash
 * sweep evaluates. Faulting the image keeps the single journaled
 * reference run clean (so one simulation still serves every crash
 * point) while exercising exactly the recovery-facing surface: the
 * log slots. Damage is a pure hash of (seed, slot address, crash
 * tick), so every evaluated point is bit-exact reproducible.
 *
 * The faulted checkers replace the clean-image invariant set:
 *
 *  - header-valid      faults never touch the log header, so recovery
 *                      must still accept it
 *  - salvage-idempotent (I8) salvaging again, without truncation,
 *                      the image the canonical pass leaves just
 *                      before it truncates changes no byte
 *  - committed-upper   damage can only destroy commit records, never
 *                      forge them (CRC), so the recovered committed
 *                      count keeps its trace upper bound
 *  - quarantine-sound  (I7) every quarantined transaction is one whose
 *                      records the plan actually damaged (unwrapped
 *                      log only)
 *  - undamaged-oracle  recovering the damaged image agrees with
 *                      recovering the clean image on every heap byte
 *                      not written by a damaged or quarantined
 *                      transaction: salvage never falsely replays
 *                      (unwrapped log only)
 */

#ifndef SNF_CRASHLAB_FAULTLAB_HH
#define SNF_CRASHLAB_FAULTLAB_HH

#include <cstdint>
#include <vector>

#include "crashlab/invariants.hh"
#include "mem/backing_store.hh"

namespace snf
{
class FlagSet;
}

namespace snf::crashlab
{

/**
 * Snapshot-image fault rates. Probabilities are per non-empty,
 * well-formed log slot (32 bytes); empty and already-damaged slots
 * are left alone so the injected-damage set is exactly known.
 */
struct ImageFaultConfig
{
    std::uint64_t seed = 1;
    double bitFlipProb = 0.0;  ///< flip one of the slot's 256 bits
    double multiBitProb = 0.0; ///< flip two distinct bits
    double dropSlotProb = 0.0; ///< slot write lost entirely (zeroed)
    double tornSlotProb = 0.0; ///< header word lost, payload landed
    /**
     * Kill one whole log shard (shardlab degraded mode): the shard's
     * header is wiped so recovery must treat its slice as lost,
     * salvage the survivors, and abort every transaction whose
     * participation mask intersects it. -1 = off.
     */
    std::int32_t killShard = -1;

    bool
    enabled() const
    {
        return bitFlipProb > 0.0 || multiBitProb > 0.0 ||
               dropSlotProb > 0.0 || tornSlotProb > 0.0 ||
               killShard >= 0;
    }

    /** Rare single-bit upsets (the common PCM field-failure mode). */
    static ImageFaultConfig
    light(std::uint64_t seed)
    {
        ImageFaultConfig f;
        f.seed = seed;
        f.bitFlipProb = 5e-3;
        return f;
    }

    /** Aggressive mixed-mode damage for soak testing (snfsoak
     *  --fault-preset heavy). */
    static ImageFaultConfig
    heavy(std::uint64_t seed)
    {
        ImageFaultConfig f;
        f.seed = seed;
        f.bitFlipProb = 2e-2;
        f.multiBitProb = 5e-3;
        f.dropSlotProb = 5e-3;
        f.tornSlotProb = 5e-3;
        return f;
    }
};

/** Exactly what applyImageFaults() damaged, for soundness oracles. */
struct ImageFaultPlan
{
    std::uint64_t slotsFaulted = 0;
    std::uint64_t bitFlipSlots = 0;
    std::uint64_t multiBitSlots = 0;
    std::uint64_t droppedSlots = 0;
    std::uint64_t tornSlots = 0;
    /** Shard whose header was wiped (-1 = none). Its records' txids
     *  are all recorded in damagedTxIds before the wipe. */
    std::int32_t killedShard = -1;
    /** txids of every record damaged, sorted and deduplicated. */
    std::vector<std::uint16_t> damagedTxIds;

    bool damaged(std::uint16_t tx) const;
};

/**
 * Damage the log slots of @p image in place, deterministically per
 * (cfg.seed, slot address, @p crashTick). Only slots that classify
 * as Valid before injection are candidates; the returned plan lists
 * the affected transactions.
 */
ImageFaultPlan applyImageFaults(mem::BackingStore &image,
                                const AddressMap &map,
                                const ImageFaultConfig &cfg,
                                Tick crashTick);

/**
 * Evaluate one crash point under injected media faults (see file
 * comment for the checker set). The clean-image workload verify and
 * counting lower bounds do not apply: damage legitimately loses
 * transactions, and the point of salvage is bounding the loss to the
 * damaged set.
 */
std::vector<Violation>
checkFaultedCrashPoint(const mem::BackingStore &image,
                       const AddressMap &map,
                       const ImageFaultConfig &faults,
                       const CrashFacts &facts,
                       const persist::RecoveryOptions &recOpts,
                       persist::RecoveryReport *reportOut = nullptr,
                       ImageFaultPlan *planOut = nullptr);

/**
 * Declare the snapshot-damage flag family snfcrash and snfsoak share:
 * the --fault-bitflip, --fault-multibit, --fault-drop-slot and
 * --fault-torn-slot rates, --fault-seed, and --fault-preset with the
 * rates of ImageFaultConfig::light() and heavy().
 */
void addImageFaultFlags(FlagSet &flags, ImageFaultConfig *faults);

} // namespace snf::crashlab

#endif // SNF_CRASHLAB_FAULTLAB_HH
