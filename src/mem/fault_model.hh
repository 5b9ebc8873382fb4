/**
 * @file
 * Deterministic NVRAM media-fault injector (faultlab).
 *
 * PCM suffers bit upsets, stuck-at cells from wear, and interrupted
 * programs that tear a line; the paper's recovery path assumes none of
 * these. The injector models them on the accepted-write path of a
 * MemDevice: a write is charged normally by the timing/energy model,
 * but the bytes that land in the backing store may be flipped, torn,
 * wedged to a stuck value, or silently dropped.
 *
 * Every decision is a pure hash of (seed, line address, tick) — no RNG
 * state — so any run is bit-exact reproducible per seed regardless of
 * interleaving, and a crash snapshot replays identically. Stuck rows
 * are tick-independent: a row is stuck for the whole run or never.
 */

#ifndef SNF_MEM_FAULT_MODEL_HH
#define SNF_MEM_FAULT_MODEL_HH

#include <cstdint>

#include "core/system_config.hh"
#include "sim/types.hh"

namespace snf::mem
{

/** Tally of injected damage, per apply() call or accumulated. */
struct FaultCounters
{
    std::uint64_t bitFlips = 0;
    std::uint64_t multiBit = 0;
    std::uint64_t tornLines = 0;
    std::uint64_t droppedWrites = 0;
    std::uint64_t stuckWords = 0;
    /**
     * Bytes apply() examined inside the configured scope region,
     * whether or not damage landed. A write path that
     * bypasses the injector examines nothing, so parity tests can
     * assert coverage structurally instead of hoping a probabilistic
     * fault fires. Not part of total().
     */
    std::uint64_t examinedBytes = 0;

    std::uint64_t
    total() const
    {
        return bitFlips + multiBit + tornLines + droppedWrites +
               stuckWords;
    }
};

/**
 * Stateless fault injector: one instance per MemDevice, holding only
 * configuration. All randomness is hashed from (seed, address, tick).
 */
class FaultInjector
{
  public:
    static constexpr std::uint64_t kLineBytes = 64;
    static constexpr std::uint64_t kTornBytes = 32;

    FaultInjector(const FaultModelConfig &cfg, std::uint32_t rowBytes)
        : cfg(cfg), rowBytes(rowBytes)
    {
    }

    bool enabled() const { return cfg.enabled(); }

    /**
     * Damage the bytes of a write in place. @p buf holds the new
     * bytes for [addr, addr+size); @p oldData holds the current
     * backing-store contents of the same range (used to "keep" old
     * bytes for dropped and torn spans). Decisions are made per
     * overlapped 64-byte line. Returns what was injected.
     */
    FaultCounters apply(Addr addr, std::uint64_t size,
                        std::uint8_t *buf, const std::uint8_t *oldData,
                        Tick tick) const;

    /** Deterministic per-seed predicate: is this row stuck? */
    bool rowIsStuck(std::uint64_t row) const;

    /** The 64-bit value a stuck row's wedged word is forced to. */
    std::uint64_t stuckValue(std::uint64_t row) const;

    /** Byte offset of the wedged 8-byte word within a stuck row. */
    std::uint64_t stuckWordOffset(std::uint64_t row) const;

    /** Deterministic splitmix64-style hash, exposed for tests. */
    static std::uint64_t hash(std::uint64_t a, std::uint64_t b,
                              std::uint64_t c);

  private:
    FaultModelConfig cfg;
    std::uint32_t rowBytes;

    bool inScope(Addr lineAddr) const;
    /** Map a hash to [0,1) for probability thresholds. */
    static double unit(std::uint64_t h);
};

} // namespace snf::mem

#endif // SNF_MEM_FAULT_MODEL_HH
