#include "core/flags.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <iostream>

#include "sim/logging.hh"

namespace snf
{

namespace
{

/** Strict real parse: the whole value must be a number literal. */
bool
parseReal(const std::string &flag, const std::string &v, double *out,
          std::string *err)
{
    // strtod alone would skip leading blanks.
    char *end = nullptr;
    *out = std::strtod(v.c_str(), &end);
    if (v.empty() || std::isspace(static_cast<unsigned char>(v[0])) ||
        *end != '\0') {
        *err = flag + " needs a number, got '" + v + "'";
        return false;
    }
    return true;
}

/** Strict probability parse: a real in [0, 1]. */
bool
parseProbability(const std::string &flag, const std::string &v,
                 double *out, std::string *err)
{
    if (!parseReal(flag, v, out, err))
        return false;
    if (!(*out >= 0.0 && *out <= 1.0)) {
        *err = flag + " " + v + " is not a probability in [0,1]";
        return false;
    }
    return true;
}

} // namespace

void
FlagSet::add(const std::string &spec, std::string help, Setter set)
{
    std::size_t space = spec.find(' ');
    Flag f;
    f.name = spec.substr(0, space);
    if (space != std::string::npos)
        f.meta = spec.substr(space + 1);
    f.help = std::move(help);
    f.set = std::move(set);
    SNF_ASSERT(f.name.rfind("--", 0) == 0 &&
                   std::none_of(flags.begin(), flags.end(),
                                [&f](const Flag &g) {
                                    return g.name == f.name;
                                }),
               "bad or duplicate flag spec '%s'", spec.c_str());
    flags.push_back(std::move(f));
}

void
FlagSet::addSwitch(const std::string &spec, bool *target,
                   std::string help, bool value)
{
    add(spec, std::move(help),
        [target, value](const std::string &, const std::string &,
                        std::string *) {
            *target = value;
            return true;
        });
}

void
FlagSet::addString(const std::string &spec, std::string *target,
                   std::string help)
{
    add(spec, std::move(help),
        [target](const std::string &, const std::string &v,
                 std::string *) {
            *target = v;
            return true;
        });
}

void
FlagSet::addReal(const std::string &spec, double *target,
                 std::string help, double lo, double hi)
{
    add(spec, std::move(help),
        [target, lo, hi](const std::string &flag, const std::string &v,
                         std::string *err) {
            double x = 0.0;
            if (!parseReal(flag, v, &x, err))
                return false;
            if (!(x > lo && x < hi)) {
                *err = strfmt("%s needs a value strictly inside "
                              "(%g,%g), got '%s'",
                              flag.c_str(), lo, hi, v.c_str());
                return false;
            }
            *target = x;
            return true;
        });
}

void
FlagSet::addProbability(const std::string &spec, double *target,
                        std::string help)
{
    add(spec, std::move(help),
        [target](const std::string &flag, const std::string &v,
                 std::string *err) {
            double x = 0.0;
            if (!parseProbability(flag, v, &x, err))
                return false;
            *target = x;
            return true;
        });
}

void
FlagSet::addCountList(const std::string &spec,
                      std::vector<std::uint64_t> *target,
                      std::string help)
{
    add(spec, std::move(help),
        [target](const std::string &flag, const std::string &v,
                 std::string *err) {
            std::vector<std::uint64_t> out;
            for (const std::string &item : splitList(v)) {
                std::uint64_t n = 0;
                if (!parseCount(flag, item, 0, UINT64_MAX, UINT64_MAX,
                                &n, err))
                    return false;
                out.push_back(n);
            }
            *target = std::move(out);
            return true;
        });
}

void
FlagSet::addRate(const std::string &spec, double *target,
                 std::string help)
{
    add(spec, std::move(help),
        [this, target](const std::string &flag, const std::string &v,
                       std::string *err) {
            double rate = 0.0;
            if (!parseProbability(flag, v, &rate, err))
                return false;
            if (preset && rate == 0.0)
                for (const auto &[field, value] : preset->values)
                    if (field == target && value > 0.0) {
                        *err = flag + " 0 contradicts " + presetFlag +
                               " '" + preset->name +
                               "' which enables that fault class; drop "
                               "the preset or the override";
                        return false;
                    }
            *target = rate;
            rateGiven = true;
            return true;
        });
}

void
FlagSet::addPresetFlag(const std::string &spec,
                       std::vector<Preset> presetList, std::string help)
{
    SNF_ASSERT(presetFlag.empty(), "one preset flag per table");
    presets = std::move(presetList);
    add(spec, std::move(help),
        [this](const std::string &flag, const std::string &v,
               std::string *err) {
            if (rateGiven) {
                *err = flag + " " + v +
                       " would overwrite earlier explicit fault "
                       "rates; put the preset first and tune after it";
                return false;
            }
            std::vector<std::string> names;
            for (const Preset &p : presets) {
                if (p.name == v) {
                    for (const auto &[field, value] : p.values)
                        *field = value;
                    preset = &p;
                    return true;
                }
                names.push_back(p.name);
            }
            *err = badChoice(flag, v, names);
            return false;
        });
    presetFlag = flags.back().name;
}

bool
FlagSet::parseCount(const std::string &flag, const std::string &v,
                    std::uint64_t lo, std::uint64_t hi,
                    std::uint64_t typeMax, std::uint64_t *out,
                    std::string *err)
{
    // strtoull would skip blanks and wrap a leading '-' around.
    char *end = nullptr;
    errno = 0;
    std::uint64_t n = std::strtoull(v.c_str(), &end, 0);
    if (v.empty() || !std::isdigit(static_cast<unsigned char>(v[0])) ||
        *end != '\0' || errno == ERANGE) {
        *err = flag + " needs a number, got '" + v + "'";
        return false;
    }
    if (n < lo || n > hi) {
        *err = hi == typeMax && n < lo
                   ? strfmt("%s needs a count >= %llu, got '%s'",
                            flag.c_str(),
                            static_cast<unsigned long long>(lo),
                            v.c_str())
                   : strfmt("%s needs a count in [%llu,%llu], got '%s'",
                            flag.c_str(),
                            static_cast<unsigned long long>(lo),
                            static_cast<unsigned long long>(hi),
                            v.c_str());
        return false;
    }
    *out = n;
    return true;
}

std::vector<std::string>
FlagSet::splitList(const std::string &v)
{
    std::vector<std::string> items;
    std::size_t start = 0;
    for (;;) {
        std::size_t comma = v.find(',', start);
        items.push_back(v.substr(start, comma - start));
        if (comma == std::string::npos)
            return items;
        start = comma + 1;
    }
}

std::string
FlagSet::badChoice(const std::string &flag, const std::string &v,
                   const std::vector<std::string> &names)
{
    std::string msg = flag + " wants ";
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (i != 0)
            msg += names.size() > 2 ? ", " : " ";
        if (i != 0 && i + 1 == names.size())
            msg += "or ";
        msg += names[i];
    }
    return msg + ", got '" + v + "'";
}

FlagParse
FlagSet::consume(const std::vector<std::string> &args, std::size_t &i,
                 std::string *err)
{
    const std::string &tok = args[i];
    std::size_t eq = tok.find('=');
    std::string name = tok.substr(0, eq);
    auto f = std::find_if(flags.begin(), flags.end(),
                          [&name](const Flag &g) {
                              return g.name == name;
                          });
    if (f == flags.end())
        return FlagParse::NotMine;

    std::string value;
    std::string scratch;
    if (!err)
        err = &scratch;
    if (f->meta.empty()) {
        if (eq != std::string::npos) {
            *err = f->name + " takes no value";
            return FlagParse::Error;
        }
    } else if (eq != std::string::npos) {
        value = tok.substr(eq + 1);
    } else if (i + 1 < args.size()) {
        value = args[++i];
    } else {
        *err = f->name + " needs a value";
        return FlagParse::Error;
    }
    if (!f->set(f->name, value, err))
        return FlagParse::Error;
    f->given = true;
    return FlagParse::Ok;
}

void
FlagSet::parse(const std::vector<std::string> &args)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        std::string err;
        FlagParse r = consume(args, i, &err);
        if (r == FlagParse::Ok)
            continue;
        if (r == FlagParse::Error)
            fatal("%s", err.c_str());
        if (args[i] == "--help") {
            std::cout << help();
            std::exit(0);
        }
        // A truncated or overlong spelling of a flag names that flag.
        std::string name = args[i].substr(0, args[i].find('='));
        std::string hint;
        for (const Flag &f : flags)
            if (name.size() > 2 && (f.name.rfind(name, 0) == 0 ||
                                    name.rfind(f.name, 0) == 0))
                hint = " (did you mean " + f.name + "?)";
        fatal("unknown argument '%s'%s; see %s --help",
              args[i].c_str(), hint.c_str(), tool.c_str());
    }
}

bool
FlagSet::given(const std::string &flag) const
{
    return std::any_of(flags.begin(), flags.end(),
                       [&flag](const Flag &f) {
                           return f.name == flag && f.given;
                       });
}

std::string
FlagSet::help() const
{
    std::string out = "usage: " + tool + " [options]\n";
    for (const Flag &f : flags) {
        std::string lhs = f.meta.empty() ? f.name : f.name + " " + f.meta;
        out += strfmt("  %-26s %s\n", lhs.c_str(), f.help.c_str());
    }
    out += strfmt("  %-26s %s\n", "--help", "print this help and exit");
    return out;
}

FlagSet::Choices<PersistMode>
persistModeChoices()
{
    FlagSet::Choices<PersistMode> choices;
    for (PersistMode m : kAllModes)
        choices.emplace_back(persistModeName(m), m);
    return choices;
}

FlagSet::Choices<CcMode>
ccModeChoices()
{
    FlagSet::Choices<CcMode> choices;
    for (CcMode m : {CcMode::TwoPhase, CcMode::Tl2, CcMode::None})
        choices.emplace_back(ccModeName(m), m);
    return choices;
}

FlagSet::Choices<std::string>
nameChoices(const std::vector<std::string> &names)
{
    FlagSet::Choices<std::string> choices;
    for (const std::string &n : names)
        choices.emplace_back(n, n);
    return choices;
}

} // namespace snf
