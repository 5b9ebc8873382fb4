/**
 * @file
 * Tests for the tools' flag table (core/flags.hh): the fault-preset
 * ordering contract, the contradiction diagnostics, the seed
 * exemption, and both flag spellings; the strict value kinds
 * (counts, --log-shards, --cc, open-unit reals, lists) the tools
 * share; and the table itself (switches, given(), unknown
 * arguments, generated --help).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/flags.hh"

using namespace snf;

namespace
{

/** A fault-config stand-in plus a fully wired flag set over it. */
struct Fixture
{
    double bitFlip = 0.0;
    double multiBit = 0.0;
    double drop = 0.0;
    std::uint64_t seed = 1;
    FlagSet flags{"test"};

    Fixture()
    {
        flags.addRate("--fault-bitflip P", &bitFlip, "");
        flags.addRate("--fault-multibit P", &multiBit, "");
        flags.addRate("--fault-drop P", &drop, "");
        flags.addCount("--fault-seed N", &seed, "");
        flags.addPresetFlag("--fault-preset X",
                            {{"light", {{&bitFlip, 1e-4}}},
                             {"heavy",
                              {{&bitFlip, 1e-3}, {&multiBit, 2e-4}}}},
                            "");
    }

    /** Feed the whole arg vector; returns the first non-Ok result. */
    FlagParse
    parse(std::vector<std::string> args, std::string *err = nullptr)
    {
        for (std::size_t i = 0; i < args.size(); ++i) {
            FlagParse r = flags.consume(args, i, err);
            if (r != FlagParse::Ok)
                return r;
        }
        return FlagParse::Ok;
    }
};

/** Parse @p args through a table holding one count flag. */
std::uint64_t
parseCount(const std::string &spec, std::vector<std::string> args,
           std::uint64_t lo = 0, std::uint64_t hi = UINT64_MAX)
{
    std::uint64_t v = 0;
    FlagSet f("test");
    f.addCount(spec, &v, "", lo, hi);
    f.parse(args);
    return v;
}

/** Parse @p args through a table holding --cc. */
CcMode
parseCc(std::vector<std::string> args)
{
    CcMode cc = CcMode::None;
    FlagSet f("test");
    f.addChoice("--cc 2pl|tl2|none", &cc, ccModeChoices(), "");
    f.parse(args);
    return cc;
}

/** Parse @p args through a table holding --zipf-theta in (0,1). */
double
parseTheta(std::vector<std::string> args)
{
    double theta = 0.0;
    FlagSet f("test");
    f.addReal("--zipf-theta X", &theta, "", 0.0, 1.0);
    f.parse(args);
    return theta;
}

} // namespace

TEST(FaultFlags, ExplicitRatesAndBothSpellings)
{
    Fixture f;
    EXPECT_EQ(f.parse({"--fault-bitflip", "0.5", "--fault-drop=0.25"}),
              FlagParse::Ok);
    EXPECT_DOUBLE_EQ(f.bitFlip, 0.5);
    EXPECT_DOUBLE_EQ(f.drop, 0.25);
    EXPECT_DOUBLE_EQ(f.multiBit, 0.0);
}

TEST(FaultFlags, PresetAssignsItsFields)
{
    Fixture f;
    EXPECT_EQ(f.parse({"--fault-preset", "heavy"}), FlagParse::Ok);
    EXPECT_DOUBLE_EQ(f.bitFlip, 1e-3);
    EXPECT_DOUBLE_EQ(f.multiBit, 2e-4);
    EXPECT_EQ(f.flags.activePreset(), "heavy");
}

TEST(FaultFlags, PresetAfterExplicitRateIsAnError)
{
    // The silent-clobber bug this parser fixes: the preset would
    // wholesale overwrite the config and the earlier explicit rate
    // silently vanished.
    Fixture f;
    std::string err;
    EXPECT_EQ(f.parse({"--fault-bitflip", "0.5", "--fault-preset",
                       "heavy"},
                      &err),
              FlagParse::Error);
    EXPECT_NE(err.find("put the preset first"), std::string::npos);
    // The explicit rate survives untouched.
    EXPECT_DOUBLE_EQ(f.bitFlip, 0.5);
}

TEST(FaultFlags, ZeroingAPresetFieldIsAnError)
{
    Fixture f;
    std::string err;
    EXPECT_EQ(f.parse({"--fault-preset", "heavy", "--fault-bitflip",
                       "0"},
                      &err),
              FlagParse::Error);
    EXPECT_NE(err.find("contradicts"), std::string::npos);
    EXPECT_NE(err.find("heavy"), std::string::npos);
    EXPECT_DOUBLE_EQ(f.bitFlip, 1e-3); // preset value untouched
}

TEST(FaultFlags, NonzeroTuneAfterPresetIsValid)
{
    Fixture f;
    EXPECT_EQ(f.parse({"--fault-preset", "heavy", "--fault-bitflip",
                       "5e-3"}),
              FlagParse::Ok);
    EXPECT_DOUBLE_EQ(f.bitFlip, 5e-3);
    EXPECT_DOUBLE_EQ(f.multiBit, 2e-4); // rest of the preset stands
}

TEST(FaultFlags, ZeroingAFieldThePresetLeavesAloneIsValid)
{
    // 'light' only sets bitFlip; zeroing multiBit after it
    // contradicts nothing.
    Fixture f;
    EXPECT_EQ(f.parse({"--fault-preset", "light", "--fault-multibit",
                       "0"}),
              FlagParse::Ok);
    EXPECT_DOUBLE_EQ(f.multiBit, 0.0);
}

TEST(FaultFlags, SeedIsOrderExempt)
{
    Fixture f;
    EXPECT_EQ(f.parse({"--fault-bitflip", "0.5", "--fault-seed",
                       "42", "--fault-preset=light"}),
              FlagParse::Error); // preset still rejected...
    Fixture g;
    EXPECT_EQ(g.parse({"--fault-seed=42", "--fault-preset", "light",
                       "--fault-seed", "7"}),
              FlagParse::Ok); // ...but the seed never is
    EXPECT_EQ(g.seed, 7u);
}

TEST(FaultFlags, UnknownPresetIsAnError)
{
    Fixture f;
    std::string err;
    EXPECT_EQ(f.parse({"--fault-preset", "medium"}, &err),
              FlagParse::Error);
    // Worded like every other rejected choice: the flag, the names
    // it takes, and the value it got.
    EXPECT_EQ(err.find("--fault-preset wants "), 0u) << err;
    EXPECT_NE(err.find("got 'medium'"), std::string::npos) << err;
    EXPECT_NE(err.find("light"), std::string::npos);
    EXPECT_NE(err.find("heavy"), std::string::npos);
}

TEST(FaultFlags, OutOfRangeRateIsAnError)
{
    Fixture f;
    std::string err;
    EXPECT_EQ(f.parse({"--fault-bitflip", "1.5"}, &err),
              FlagParse::Error);
    EXPECT_NE(err.find("probability"), std::string::npos);
}

TEST(FaultFlags, MissingValueIsAnError)
{
    Fixture f;
    std::string err;
    EXPECT_EQ(f.parse({"--fault-bitflip"}, &err), FlagParse::Error);
    EXPECT_NE(err.find("needs a value"), std::string::npos);
}

TEST(FaultFlags, ForeignFlagsAreNotMine)
{
    Fixture f;
    std::vector<std::string> args{"--workload", "sps"};
    std::size_t i = 0;
    EXPECT_EQ(f.flags.consume(args, i, nullptr), FlagParse::NotMine);
    EXPECT_EQ(i, 0u);
}

TEST(FaultFlagsDeathTest, RatesAndSeedParseStrictly)
{
    // These used to read as 0, 1e-3 and seed 0 with exit status 0.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(Fixture().flags.parse({"--fault-bitflip", "abc"}),
                ::testing::ExitedWithCode(1),
                "--fault-bitflip needs a number, got 'abc'");
    EXPECT_EXIT(Fixture().flags.parse({"--fault-bitflip", "1e-3x"}),
                ::testing::ExitedWithCode(1),
                "--fault-bitflip needs a number, got '1e-3x'");
    EXPECT_EXIT(Fixture().flags.parse({"--fault-drop="}),
                ::testing::ExitedWithCode(1),
                "--fault-drop needs a number, got ''");
    EXPECT_EXIT(Fixture().flags.parse({"--fault-seed", "zz"}),
                ::testing::ExitedWithCode(1),
                "--fault-seed needs a number, got 'zz'");
    EXPECT_EXIT(Fixture().flags.parse({"--fault-seed=-1"}),
                ::testing::ExitedWithCode(1),
                "--fault-seed needs a number, got '-1'");
}

// ---- Strict count / --log-shards parsing (shared by the tools) ----

TEST(CountFlag, ParsesWholeValuesInAnyBase)
{
    EXPECT_EQ(parseCount("--jobs N", {"--jobs", "8"}), 8u);
    EXPECT_EQ(parseCount("--jobs N", {"--jobs=0"}), 0u);
    EXPECT_EQ(parseCount("--max-points N", {"--max-points", "0x20"}),
              32u);
}

TEST(CountFlagDeathTest, RejectsGarbageWithDiagnostic)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(parseCount("--jobs N", {"--jobs", "8x"}),
                ::testing::ExitedWithCode(1),
                "--jobs needs a number, got '8x'");
    EXPECT_EXIT(parseCount("--jobs N", {"--jobs", ""}),
                ::testing::ExitedWithCode(1),
                "--jobs needs a number");
    EXPECT_EXIT(parseCount("--jobs N", {"--jobs", "four"}),
                ::testing::ExitedWithCode(1),
                "--jobs needs a number, got 'four'");
    // strtoull alone would wrap a sign around, skip blanks and
    // saturate on overflow.
    EXPECT_EXIT(parseCount("--jobs N", {"--jobs", "-3"}),
                ::testing::ExitedWithCode(1),
                "--jobs needs a number, got '-3'");
    EXPECT_EXIT(parseCount("--jobs N", {"--jobs", " 8"}),
                ::testing::ExitedWithCode(1),
                "--jobs needs a number, got ' 8'");
    EXPECT_EXIT(parseCount("--jobs N", {"--jobs", "99999999999999999999"}),
                ::testing::ExitedWithCode(1), "--jobs needs a number");
    EXPECT_EXIT(parseCount("--jobs N", {"--jobs"}),
                ::testing::ExitedWithCode(1), "--jobs needs a value");
}

TEST(LogShardsFlag, AcceptsTheFullMaskRange)
{
    EXPECT_EQ(parseCount("--log-shards N", {"--log-shards", "1"}, 1, 64),
              1u);
    EXPECT_EQ(parseCount("--log-shards N", {"--log-shards", "4"}, 1, 64),
              4u);
    EXPECT_EQ(parseCount("--log-shards N", {"--log-shards=64"}, 1, 64),
              64u);
}

TEST(PositiveCountFlag, AcceptsAnyNonzeroCount)
{
    EXPECT_EQ(parseCount("--threads N", {"--threads", "1"}, 1, 64), 1u);
    EXPECT_EQ(parseCount("--bench-repeats N", {"--bench-repeats", "5"},
                         1),
              5u);
    EXPECT_EQ(parseCount("--threads N", {"--threads", "0x40"}, 1, 64),
              64u);
}

TEST(PositiveCountFlagDeathTest, RejectsZeroAndGarbage)
{
    // 0 silently degenerates the run (no threads, no repeats), so it
    // is a hard error; garbage fails the strict number parse first.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(parseCount("--threads N", {"--threads", "0"}, 1, 64),
                ::testing::ExitedWithCode(1),
                "--threads needs a count in \\[1,64\\], got '0'");
    EXPECT_EXIT(parseCount("--threads N", {"--threads", "65"}, 1, 64),
                ::testing::ExitedWithCode(1),
                "--threads needs a count in \\[1,64\\], got '65'");
    EXPECT_EXIT(parseCount("--bench-repeats N", {"--bench-repeats", "0"},
                           1),
                ::testing::ExitedWithCode(1),
                "--bench-repeats needs a count >= 1, got '0'");
    EXPECT_EXIT(parseCount("--bench-repeats N", {"--bench-repeats", "3x"},
                           1),
                ::testing::ExitedWithCode(1),
                "--bench-repeats needs a number, got '3x'");
    EXPECT_EXIT(parseCount("--bench-repeats N", {"--bench-repeats", ""},
                           1),
                ::testing::ExitedWithCode(1),
                "--bench-repeats needs a number");
}

TEST(LogShardsFlagDeathTest, RejectsZeroOverflowAndGarbage)
{
    // 0 shards is meaningless and 64 is the participation-mask
    // width; garbage must fail the strict number parse first.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(parseCount("--log-shards N", {"--log-shards", "0"}, 1, 64),
                ::testing::ExitedWithCode(1),
                "--log-shards needs a count in \\[1,64\\]");
    EXPECT_EXIT(parseCount("--log-shards N", {"--log-shards", "65"}, 1,
                           64),
                ::testing::ExitedWithCode(1),
                "--log-shards needs a count in \\[1,64\\]");
    EXPECT_EXIT(parseCount("--log-shards N", {"--log-shards", "2q"}, 1,
                           64),
                ::testing::ExitedWithCode(1),
                "--log-shards needs a number, got '2q'");
}

TEST(CcFlag, ParsesEveryScheme)
{
    EXPECT_EQ(parseCc({"--cc", "2pl"}), CcMode::TwoPhase);
    EXPECT_EQ(parseCc({"--cc=tl2"}), CcMode::Tl2);
    EXPECT_EQ(parseCc({"--cc", "2pl", "--cc", "none"}), CcMode::None);
}

TEST(CcFlagDeathTest, RejectsUnknownSchemeNamingTheFlag)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(parseCc({"--cc", "occ"}), ::testing::ExitedWithCode(1),
                "--cc wants 2pl, tl2, or none, got 'occ'");
    EXPECT_EXIT(parseCc({"--cc", "2PL"}), ::testing::ExitedWithCode(1),
                "--cc wants 2pl, tl2, or none, got '2PL'");
    EXPECT_EXIT(parseCc({"--cc", ""}), ::testing::ExitedWithCode(1),
                "--cc wants 2pl, tl2, or none");
}

TEST(OpenUnitFlag, AcceptsInteriorValues)
{
    EXPECT_DOUBLE_EQ(parseTheta({"--zipf-theta", "0.9"}), 0.9);
    EXPECT_DOUBLE_EQ(parseTheta({"--zipf-theta", "0.001"}), 0.001);
    EXPECT_DOUBLE_EQ(parseTheta({"--zipf-theta=.5"}), 0.5);
}

TEST(OpenUnitFlagDeathTest, RejectsBoundsAndGarbage)
{
    // The interval is open: theta = 0 silently degenerates Zipf to
    // uniform and theta = 1 is outside the distribution's validity
    // range, so both are hard errors, as is a half-parsed value.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(parseTheta({"--zipf-theta", "0"}),
                ::testing::ExitedWithCode(1),
                "--zipf-theta needs a value strictly inside \\(0,1\\)");
    EXPECT_EXIT(parseTheta({"--zipf-theta", "1"}),
                ::testing::ExitedWithCode(1),
                "--zipf-theta needs a value strictly inside \\(0,1\\)");
    EXPECT_EXIT(parseTheta({"--zipf-theta", "1.5"}),
                ::testing::ExitedWithCode(1),
                "--zipf-theta needs a value strictly inside \\(0,1\\)");
    EXPECT_EXIT(parseTheta({"--zipf-theta", "-0.2"}),
                ::testing::ExitedWithCode(1),
                "--zipf-theta needs a value strictly inside \\(0,1\\)");
    EXPECT_EXIT(parseTheta({"--zipf-theta", "0.5x"}),
                ::testing::ExitedWithCode(1),
                "--zipf-theta needs a number, got '0.5x'");
    EXPECT_EXIT(parseTheta({"--zipf-theta", ""}),
                ::testing::ExitedWithCode(1),
                "--zipf-theta needs a number");
}

// ---- The table itself: kinds, lists, given(), help, rejection ----

namespace
{

/** A miniature tool declaring one flag of each remaining kind. */
struct Tool
{
    std::uint32_t threads = 2;
    bool reorder = false;
    std::string json;
    double rate = 0.0;
    std::vector<std::string> workloads{"sps"};
    std::vector<std::uint64_t> seeds{1};
    std::vector<PersistMode> modes{PersistMode::Fwb};
    FlagSet flags{"tool"};

    Tool()
    {
        FlagSet::Choices<PersistMode> modeChoices = persistModeChoices();
        modeChoices.emplace_back("all", PersistMode::Hwl);
        modeChoices.emplace_back("all", PersistMode::Fwb);
        flags.addCount("--threads N", &threads, "workload threads", 1,
                       64);
        flags.addSwitch("--reorder", &reorder, "explore orders");
        flags.addString("--json FILE", &json, "report path");
        flags.addProbability("--conflict-rate R", &rate,
                             "conflict probability");
        flags.addChoiceList("--workload W[,W...]", &workloads,
                            nameChoices({"sps", "hash"}), "workloads");
        flags.addCountList("--seed N[,N...]", &seeds, "seeds");
        flags.addChoiceList("--mode M[,M...]", &modes, modeChoices,
                            "modes");
    }
};

} // namespace

TEST(FlagTable, EveryKindInBothSpellings)
{
    Tool t;
    t.flags.parse({"--threads=4", "--reorder", "--json", "-",
                   "--conflict-rate=0.5", "--workload", "sps,hash",
                   "--seed", "3", "--seed=1,0x10", "--mode",
                   "undo-clwb,all"});
    EXPECT_EQ(t.threads, 4u);
    EXPECT_TRUE(t.reorder);
    EXPECT_EQ(t.json, "-");
    EXPECT_DOUBLE_EQ(t.rate, 0.5);
    EXPECT_EQ(t.workloads, (std::vector<std::string>{"sps", "hash"}));
    // A repeated list flag replaces the earlier list.
    EXPECT_EQ(t.seeds, (std::vector<std::uint64_t>{1, 16}));
    // One name may stand for several values.
    EXPECT_EQ(t.modes,
              (std::vector<PersistMode>{PersistMode::UndoClwb,
                                        PersistMode::Hwl,
                                        PersistMode::Fwb}));
    EXPECT_TRUE(t.flags.given("--mode"));
    EXPECT_FALSE(Tool().flags.given("--mode"));
}

TEST(FlagTable, HelpHasOneLinePerFlag)
{
    std::string help = Tool().flags.help();
    EXPECT_NE(help.find("usage: tool [options]\n"), std::string::npos);
    EXPECT_NE(help.find("  --threads N"), std::string::npos);
    EXPECT_NE(help.find("workload threads\n"), std::string::npos);
    EXPECT_NE(help.find("  --mode M[,M...]"), std::string::npos);
    EXPECT_NE(help.find("  --help"), std::string::npos);
}

TEST(FlagTableDeathTest, RejectsBadInputNamingTheFlag)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(Tool().flags.parse({"--thread", "4"}),
                ::testing::ExitedWithCode(1),
                "unknown argument '--thread' \\(did you mean "
                "--threads\\?\\); see tool --help");
    EXPECT_EXIT(Tool().flags.parse({"extra"}),
                ::testing::ExitedWithCode(1),
                "unknown argument 'extra'; see tool --help");
    EXPECT_EXIT(Tool().flags.parse({"--reorder=1"}),
                ::testing::ExitedWithCode(1), "--reorder takes no value");
    EXPECT_EXIT(Tool().flags.parse({"--seed", "1,x"}),
                ::testing::ExitedWithCode(1),
                "--seed needs a number, got 'x'");
    EXPECT_EXIT(Tool().flags.parse({"--seed", "1,,2"}),
                ::testing::ExitedWithCode(1),
                "--seed needs a number, got ''");
    EXPECT_EXIT(Tool().flags.parse({"--workload", "sps,"}),
                ::testing::ExitedWithCode(1),
                "--workload wants sps or hash, got ''");
    EXPECT_EXIT(Tool().flags.parse({"--mode", "fwb,nope"}),
                ::testing::ExitedWithCode(1),
                "--mode wants non-pers, .*, fwb, or all, got 'nope'");
    EXPECT_EXIT(Tool().flags.parse({"--conflict-rate", "1.5"}),
                ::testing::ExitedWithCode(1),
                "--conflict-rate 1.5 is not a probability in \\[0,1\\]");
    EXPECT_EXIT(Tool().flags.parse({"--threads", "2", "--help"}),
                ::testing::ExitedWithCode(0), "");
}
