/**
 * @file
 * Seeded random-program generator for conformlab. One 64-bit seed
 * fully determines a program; the generator draws its shape
 * (threads, transaction counts, skew, abort rate), addresses, values,
 * and scheduler-jitter delays from independent Rng::split() child
 * streams so the program is stable under generator evolution in any
 * one dimension.
 */

#ifndef SNF_CONFORMLAB_PROGGEN_HH
#define SNF_CONFORMLAB_PROGGEN_HH

#include <cstdint>

#include "conformlab/program.hh"

namespace snf::conformlab
{

/**
 * Knobs of the program space to draw from. The rest of a program's
 * shape (the ranges its thread, slot and op counts are drawn from,
 * abort rate, skew, jitter, shared-region size) is fixed in
 * proggen.cc.
 */
struct ProgGenConfig
{
    /** Fixed thread count; 0 = draw it from the seed. */
    std::uint32_t threads = 0;
    /** Fixed partition size; 0 = draw it from the seed. */
    std::uint32_t slotsPerThread = 0;
    /** Mean transactions per thread (actual count drawn 1..2*mean). */
    std::uint32_t txPerThread = 6;
    /**
     * Probability any one op targets the shared conflict region
     * instead of the thread's private partition. 0 keeps the program
     * conflict-free and byte-identical to the pre-shared generator
     * for the same seed (the conflict draws come from fresh child
     * streams).
     */
    double conflictRate = 0.0;
    /**
     * Probability an op is a load instead of a store. Only applied
     * when conflictRate > 0 — loads are what make read-validation
     * (TL2) and lost-update detection meaningful.
     */
    double loadRate = 0.25;
};

/**
 * Generate the program for @p seed. Deterministic: the same (seed,
 * config) always yields the same program, on any platform.
 */
Program generateProgram(std::uint64_t seed,
                        const ProgGenConfig &cfg = ProgGenConfig{});

} // namespace snf::conformlab

#endif // SNF_CONFORMLAB_PROGGEN_HH
