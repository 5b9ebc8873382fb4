#include "core/fault_flags.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "sim/logging.hh"

namespace snf
{

std::uint64_t
parseCountFlag(const char *flag, const char *value)
{
    char *end = nullptr;
    std::uint64_t n = std::strtoull(value, &end, 0);
    if (end == value || *end != '\0')
        fatal("%s needs a number, got '%s'", flag, value);
    return n;
}

std::uint32_t
parseLogShardsFlag(const char *flag, const char *value)
{
    std::uint64_t n = parseCountFlag(flag, value);
    if (n == 0 || n > 64)
        fatal("%s needs a shard count in [1,64], got '%s'", flag,
              value);
    return static_cast<std::uint32_t>(n);
}

CcMode
parseCcFlag(const char *flag, const char *value)
{
    for (CcMode m : {CcMode::TwoPhase, CcMode::Tl2, CcMode::None})
        if (std::strcmp(ccModeName(m), value) == 0)
            return m;
    fatal("%s wants 2pl, tl2, or none, got '%s'", flag, value);
}

std::uint64_t
parsePositiveCountFlag(const char *flag, const char *value)
{
    std::uint64_t n = parseCountFlag(flag, value);
    if (n == 0)
        fatal("%s needs a count >= 1, got '%s'", flag, value);
    return n;
}

double
parseOpenUnitFlag(const char *flag, const char *value)
{
    char *end = nullptr;
    double x = std::strtod(value, &end);
    if (end == value || *end != '\0')
        fatal("%s needs a number, got '%s'", flag, value);
    if (!(x > 0.0 && x < 1.0))
        fatal("%s needs a value strictly inside (0,1), got '%s'",
              flag, value);
    return x;
}

void
FaultFlagSet::addRate(const std::string &flag, double *target)
{
    rates.push_back(RateFlag{flag, target});
}

void
FaultFlagSet::addSeed(const std::string &flag, std::uint64_t *target)
{
    seedFlag = flag;
    seedTarget = target;
}

void
FaultFlagSet::setPresetFlag(const std::string &flag)
{
    presetFlag = flag;
}

void
FaultFlagSet::addPreset(const std::string &name,
                        std::vector<std::pair<double *, double>> values)
{
    presets.push_back(Preset{name, std::move(values)});
}

bool
FaultFlagSet::takeValue(const std::vector<std::string> &args,
                        std::size_t &i, const std::string &flag,
                        std::string &valueOut, std::string *err) const
{
    const std::string &tok = args[i];
    if (tok.size() > flag.size() && tok[flag.size()] == '=') {
        valueOut = tok.substr(flag.size() + 1);
        return true;
    }
    if (i + 1 >= args.size()) {
        if (err)
            *err = flag + " needs a value";
        return false;
    }
    valueOut = args[++i];
    return true;
}

FlagParse
FaultFlagSet::consume(const std::vector<std::string> &args,
                      std::size_t &i, std::string *err)
{
    const std::string &tok = args[i];
    auto matches = [&tok](const std::string &flag) {
        return tok == flag ||
               (tok.size() > flag.size() &&
                tok.compare(0, flag.size(), flag) == 0 &&
                tok[flag.size()] == '=');
    };

    if (seedTarget && matches(seedFlag)) {
        std::string v;
        if (!takeValue(args, i, seedFlag, v, err))
            return FlagParse::Error;
        *seedTarget = std::strtoull(v.c_str(), nullptr, 0);
        return FlagParse::Ok;
    }

    if (!presetFlag.empty() && matches(presetFlag)) {
        std::string v;
        if (!takeValue(args, i, presetFlag, v, err))
            return FlagParse::Error;
        if (!explicitRates.empty()) {
            if (err)
                *err = presetFlag + " " + v +
                       " would overwrite earlier explicit fault "
                       "rates; put the preset first and tune after it";
            return FlagParse::Error;
        }
        auto it = std::find_if(presets.begin(), presets.end(),
                               [&v](const Preset &p) {
                                   return p.name == v;
                               });
        if (it == presets.end()) {
            if (err) {
                *err = "unknown preset '" + v + "' (expected";
                for (const Preset &p : presets)
                    *err += " " + p.name;
                *err += ")";
            }
            return FlagParse::Error;
        }
        for (const auto &[field, value] : it->values)
            *field = value;
        presetName = v;
        return FlagParse::Ok;
    }

    for (const RateFlag &rf : rates) {
        if (!matches(rf.flag))
            continue;
        std::string v;
        if (!takeValue(args, i, rf.flag, v, err))
            return FlagParse::Error;
        double rate = std::strtod(v.c_str(), nullptr);
        if (rate < 0.0 || rate > 1.0) {
            if (err)
                *err = rf.flag + " " + v +
                       " is not a probability in [0,1]";
            return FlagParse::Error;
        }
        if (!presetName.empty() && rate == 0.0) {
            const Preset &p = *std::find_if(
                presets.begin(), presets.end(),
                [this](const Preset &q) {
                    return q.name == presetName;
                });
            bool preset_sets = std::any_of(
                p.values.begin(), p.values.end(),
                [&rf](const std::pair<double *, double> &fv) {
                    return fv.first == rf.target && fv.second > 0.0;
                });
            if (preset_sets) {
                if (err)
                    *err = rf.flag + " 0 contradicts " + presetFlag +
                           " '" + presetName +
                           "' which enables that fault class; drop "
                           "the preset or the override";
                return FlagParse::Error;
            }
        }
        *rf.target = rate;
        explicitRates.push_back(rf.target);
        return FlagParse::Ok;
    }
    return FlagParse::NotMine;
}

} // namespace snf
