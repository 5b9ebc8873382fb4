/**
 * @file
 * Shared CLI parsing for fault-injection flag families (snfsim,
 * snfcrash, snfsoak), fixing the silent-clobber bug: previously
 * `--fault-bitflip 1e-3 --fault-preset heavy` wholesale-overwrote the
 * config and the explicit rate silently vanished, and
 * `--fault-preset heavy --fault-bitflip 0` silently neutered the
 * preset the user just asked for. Both contradictions are now hard
 * errors with a diagnostic; deliberate nonzero tweaks after a preset
 * remain valid overrides.
 */

#ifndef SNF_CORE_FAULT_FLAGS_HH
#define SNF_CORE_FAULT_FLAGS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/system_config.hh"

namespace snf
{

/**
 * Strict unsigned flag-value parse shared by the tools: the whole
 * value must be a number (base prefix allowed); empty values and
 * trailing garbage are fatal with a diagnostic naming the flag.
 */
std::uint64_t parseCountFlag(const char *flag, const char *value);

/**
 * Parse a --log-shards value: a strict count that must additionally
 * lie in [1, 64] (0 shards is meaningless, 64 is the participation
 * mask width). fatal() with a diagnostic otherwise.
 */
std::uint32_t parseLogShardsFlag(const char *flag, const char *value);

/**
 * Parse a --cc value: one of the ccModeName() spellings (2pl, tl2,
 * none). fatal() with a diagnostic naming the flag otherwise.
 */
CcMode parseCcFlag(const char *flag, const char *value);

/**
 * Strict count that must be >= 1 (thread counts, transaction counts,
 * bench repeats — places where 0 silently degenerates the run).
 * fatal() with a diagnostic naming the flag otherwise.
 */
std::uint64_t parsePositiveCountFlag(const char *flag,
                                     const char *value);

/**
 * Strict real value that must lie strictly inside (0, 1) — Zipf skew
 * exponents and similar open-unit parameters where 0 degenerates to
 * uniform and 1 is outside the distribution's validity range. The
 * whole value must parse; fatal() with a diagnostic naming the flag
 * otherwise.
 */
double parseOpenUnitFlag(const char *flag, const char *value);

/** Outcome of FaultFlagSet::consume() for one argv position. */
enum class FlagParse
{
    NotMine, ///< not a flag this set owns; caller handles it
    Ok,      ///< consumed (index advanced past any value)
    Error,   ///< owned flag but invalid/contradictory; *err explains
};

/**
 * A family of fault flags over double rate fields, an integer seed,
 * and named presets that assign several rates at once. Flags accept
 * both `--flag value` and `--flag=value` spellings.
 *
 * Ordering contract (enforced):
 *  - a preset flag must precede every explicit rate flag, because it
 *    assigns the whole family (error: "put the preset first");
 *  - after a preset, an explicit rate may *tune* a field but not
 *    zero one the preset set nonzero (error: contradiction — drop
 *    the preset instead);
 *  - the seed flag is exempt and may appear anywhere.
 */
class FaultFlagSet
{
  public:
    /** Register a rate flag, e.g. ("--fault-bitflip", &f.bitFlipProb). */
    void addRate(const std::string &flag, double *target);

    /** Register the (order-exempt) seed flag. */
    void addSeed(const std::string &flag, std::uint64_t *target);

    /** Register the preset flag name, e.g. "--fault-preset". */
    void setPresetFlag(const std::string &flag);

    /** Register a named preset as (field, value) assignments. */
    void addPreset(const std::string &name,
                   std::vector<std::pair<double *, double>> values);

    /**
     * Try to consume args[i] (and its value). On Ok, @p i is left on
     * the last consumed position (callers' loops then ++i past it).
     * On Error, @p err receives the diagnostic.
     */
    FlagParse consume(const std::vector<std::string> &args,
                      std::size_t &i, std::string *err);

    /** Name of the preset applied so far ("" = none). */
    const std::string &activePreset() const { return presetName; }

  private:
    struct RateFlag
    {
        std::string flag;
        double *target;
    };

    struct Preset
    {
        std::string name;
        std::vector<std::pair<double *, double>> values;
    };

    bool takeValue(const std::vector<std::string> &args,
                   std::size_t &i, const std::string &flag,
                   std::string &valueOut, std::string *err) const;

    std::vector<RateFlag> rates;
    std::string seedFlag;
    std::uint64_t *seedTarget = nullptr;
    std::string presetFlag;
    std::vector<Preset> presets;

    std::string presetName;
    std::vector<double *> explicitRates;
};

} // namespace snf

#endif // SNF_CORE_FAULT_FLAGS_HH
