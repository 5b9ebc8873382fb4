/**
 * @file
 * The one command-line parser of the tools (snfsim, snfcrash,
 * snfsoak, snfdiff, snfoltp). Each tool declares its flags in a
 * FlagSet table — name, value placeholder, value kind with its
 * bounds, one help line — and FlagSet::parse() does the rest:
 * `--flag value` and `--flag=value` spellings, strict values (a
 * count is digits in any base and nothing else, a real is a whole
 * number literal, a choice is one of its names), a generated
 * `--help`, and exit status 1 with a diagnostic naming the flag for
 * an unknown argument or a malformed value.
 *
 * The fault-preset family keeps its ordering contract: a preset
 * assigns several rates at once, so it must precede every explicit
 * rate of its family ("put the preset first"), and an explicit rate
 * after it may tune a field but not zero one the preset set nonzero
 * (a contradiction — drop the preset instead).
 */

#ifndef SNF_CORE_FLAGS_HH
#define SNF_CORE_FLAGS_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/system_config.hh"

namespace snf
{

/** Outcome of FlagSet::consume() for one argv position. */
enum class FlagParse
{
    NotMine, ///< not a declared flag; parse() rejects it
    Ok,      ///< consumed (index advanced past any value)
    Error,   ///< declared flag but invalid/contradictory; *err explains
};

/**
 * A tool's command line as a table of flags. Every declaration takes
 * a spec "--name META" (META is the value placeholder shown by
 * --help; a switch has none) and one help line. A flag given twice
 * keeps its last value. The table captures pointers to the targets
 * and to itself, so it is neither copied nor moved.
 */
class FlagSet
{
  public:
    /** Name → value table of a choice flag. A list flag appends
     *  every value whose name matches an item, so one name may stand
     *  for several values, in adjacent entries (snfcrash's
     *  `--mode all`). */
    template <typename T>
    using Choices = std::vector<std::pair<std::string, T>>;

    /** One named preset: the rate fields it assigns. */
    struct Preset
    {
        std::string name;
        std::vector<std::pair<double *, double>> values;
    };

    /** @p tool names the program in --help and diagnostics. */
    explicit FlagSet(std::string tool) : tool(std::move(tool)) {}

    FlagSet(const FlagSet &) = delete;
    FlagSet &operator=(const FlagSet &) = delete;

    /** A switch: present sets *target = @p value. */
    void addSwitch(const std::string &spec, bool *target,
                   std::string help, bool value = true);

    /** A free-form string (a path, a workload name). */
    void addString(const std::string &spec, std::string *target,
                   std::string help);

    /** A strict unsigned count in [@p lo, @p hi] (base prefix ok). */
    template <typename T>
    void
    addCount(const std::string &spec, T *target, std::string help,
             std::uint64_t lo = 0,
             std::uint64_t hi = std::numeric_limits<T>::max())
    {
        add(spec, std::move(help),
            [target, lo, hi](const std::string &flag,
                             const std::string &v, std::string *err) {
                std::uint64_t n = 0;
                if (!parseCount(flag, v, lo, hi,
                                std::numeric_limits<T>::max(), &n, err))
                    return false;
                *target = static_cast<T>(n);
                return true;
            });
    }

    /** A strict real strictly inside (@p lo, @p hi). */
    void addReal(const std::string &spec, double *target,
                 std::string help, double lo, double hi);

    /** A strict real in [0, 1]. */
    void addProbability(const std::string &spec, double *target,
                        std::string help);

    /** One of the names of @p choices. */
    template <typename T>
    void
    addChoice(const std::string &spec, T *target, Choices<T> choices,
              std::string help)
    {
        add(spec, std::move(help),
            [target, choices](const std::string &flag,
                              const std::string &v, std::string *err) {
                std::vector<T> picked;
                if (!pick(flag, v, choices, &picked, err))
                    return false;
                *target = picked.front();
                return true;
            });
    }

    /** A comma-separated list of counts (any width, any value). */
    void addCountList(const std::string &spec,
                      std::vector<std::uint64_t> *target,
                      std::string help);

    /** A comma-separated list of names of @p choices. */
    template <typename T>
    void
    addChoiceList(const std::string &spec, std::vector<T> *target,
                  Choices<T> choices, std::string help)
    {
        add(spec, std::move(help),
            [target, choices](const std::string &flag,
                              const std::string &v, std::string *err) {
                std::vector<T> picked;
                for (const std::string &item : splitList(v))
                    if (!pick(flag, item, choices, &picked, err))
                        return false;
                *target = std::move(picked);
                return true;
            });
    }

    /** A fault rate in [0, 1], member of the preset family. */
    void addRate(const std::string &spec, double *target,
                 std::string help);

    /** The family's preset flag (at most one per table). */
    void addPresetFlag(const std::string &spec,
                       std::vector<Preset> presets, std::string help);

    /**
     * Try to consume args[i] (and its value). On Ok, @p i is left on
     * the last consumed position (callers' loops then ++i past it).
     * On Error, @p err receives the diagnostic.
     */
    FlagParse consume(const std::vector<std::string> &args,
                      std::size_t &i, std::string *err);

    /**
     * Parse a whole command line (without the program name).
     * `--help` prints help() and exits 0; an unknown argument or a
     * malformed value is fatal() (exit 1) naming the flag.
     */
    void parse(const std::vector<std::string> &args);

    void
    parse(int argc, char **argv)
    {
        parse(std::vector<std::string>(argv + 1, argv + argc));
    }


    /** Whether @p flag (its name, e.g. "--cc") was on the command
     *  line. */
    bool given(const std::string &flag) const;

    /** The generated --help text. */
    std::string help() const;

    /** Name of the preset applied so far ("" = none). */
    std::string activePreset() const { return preset ? preset->name : ""; }

  private:
    using Setter = std::function<bool(
        const std::string &flag, const std::string &value,
        std::string *err)>;

    struct Flag
    {
        std::string name;
        std::string meta; ///< empty for a switch
        std::string help;
        Setter set;
        bool given = false;
    };

    void add(const std::string &spec, std::string help, Setter set);

    static bool parseCount(const std::string &flag,
                           const std::string &v, std::uint64_t lo,
                           std::uint64_t hi, std::uint64_t typeMax,
                           std::uint64_t *out, std::string *err);
    static std::vector<std::string> splitList(const std::string &v);
    static std::string badChoice(const std::string &flag,
                                 const std::string &v,
                                 const std::vector<std::string> &names);

    /** Append every value @p v names to @p out; false if none. */
    template <typename T>
    static bool
    pick(const std::string &flag, const std::string &v,
         const Choices<T> &choices, std::vector<T> *out, std::string *err)
    {
        std::size_t before = out->size();
        std::vector<std::string> names;
        for (const auto &[name, value] : choices) {
            if (names.empty() || names.back() != name)
                names.push_back(name);
            if (name == v)
                out->push_back(value);
        }
        if (out->size() == before)
            *err = badChoice(flag, v, names);
        return out->size() > before;
    }

    std::string tool;
    std::vector<Flag> flags;

    std::string presetFlag;
    std::vector<Preset> presets;
    const Preset *preset = nullptr; ///< applied so far
    bool rateGiven = false;
};

/** The --mode spellings: every PersistMode by persistModeName(). */
FlagSet::Choices<PersistMode> persistModeChoices();

/** The --cc spellings: 2pl, tl2, none. */
FlagSet::Choices<CcMode> ccModeChoices();

/** Choices that are their own names (e.g. allWorkloadNames()). */
FlagSet::Choices<std::string>
nameChoices(const std::vector<std::string> &names);

} // namespace snf

#endif // SNF_CORE_FLAGS_HH
