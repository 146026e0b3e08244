/**
 * @file
 * Unit tests for the support layer: RNG, tables, CLI, statistics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/flat_key_set.hpp"
#include "support/random.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace rsel {
namespace {

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++equal;
    EXPECT_LT(equal, 4);
}

TEST(RngTest, NextBelowStaysInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(RngTest, NextBelowRejectsZeroBound)
{
    Rng rng(7);
    EXPECT_THROW(rng.nextBelow(0), PanicError);
}

TEST(RngTest, NextRangeInclusive)
{
    Rng rng(9);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t v = rng.nextRange(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        sawLo |= v == 3;
        sawHi |= v == 5;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(RngTest, NextBoolRespectsProbability)
{
    Rng rng(11);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, NextBoolDegenerateProbabilities)
{
    Rng rng(1);
    EXPECT_FALSE(rng.nextBool(0.0));
    EXPECT_FALSE(rng.nextBool(-1.0));
    EXPECT_TRUE(rng.nextBool(1.0));
    EXPECT_TRUE(rng.nextBool(2.0));
}

TEST(RngTest, WeightedPickFollowsWeights)
{
    Rng rng(5);
    std::vector<double> weights = {1.0, 3.0, 0.0};
    int counts[3] = {0, 0, 0};
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.nextWeighted(weights, 4.0)];
    EXPECT_EQ(counts[2], 0);
    EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.75, 0.02);
}

TEST(RngTest, WeightedPickRejectsAllZero)
{
    Rng rng(5);
    std::vector<double> weights = {0.0, 0.0};
    EXPECT_THROW(rng.nextWeighted(weights, 0.0), PanicError);
}

TEST(AssertTest, FailureTextIsPinned)
{
    // RSEL_ASSERT's failure path is one out-of-line function; the
    // text it throws is the contract callers and logs rely on. The
    // message may be a std::string built only on failure, as
    // CliOptions::get's is.
    const std::string name = "bogus";
    int line = 0;
    try {
        line = __LINE__ + 1;
        RSEL_ASSERT(name.empty(), "option not defined: " + name);
        FAIL() << "the assertion did not fire";
    } catch (const PanicError &e) {
        EXPECT_EQ(std::string(e.what()),
                  std::string("assertion failed: name.empty() — option "
                              "not defined: bogus (") +
                      __FILE__ + ":" + std::to_string(line) + ")");
    }
    // A passing assertion evaluates its message not at all.
    int built = 0;
    RSEL_ASSERT(name == "bogus", (++built, "unused"));
    EXPECT_EQ(built, 0);
}

TEST(FlatKeySetTest, InsertIsIdempotentAcrossGrowth)
{
    // Start at the smallest table so the keys force several
    // doublings; key 0 and keys sharing low bits must all survive.
    FlatKeySet set;
    EXPECT_FALSE(set.contains(0));
    std::vector<std::uint64_t> keys{0};
    for (std::uint64_t k = 1; k < 500; ++k)
        keys.push_back((k << 32) | (k * 7));
    for (const std::uint64_t k : keys)
        EXPECT_TRUE(set.insert(k));
    for (const std::uint64_t k : keys)
        EXPECT_FALSE(set.insert(k)) << k;
    EXPECT_EQ(set.size(), keys.size());

    // Exactly half full: re-adding a key must not grow the array.
    FlatKeySet half;
    for (std::uint64_t k = 0; k < 8; ++k)
        half.insert(k);
    std::vector<std::uint64_t> before;
    half.forEach([&](std::uint64_t k) { before.push_back(k); });
    EXPECT_FALSE(half.insert(3));
    std::vector<std::uint64_t> after;
    half.forEach([&](std::uint64_t k) { after.push_back(k); });
    EXPECT_EQ(before, after); // same slot order: no rehash
    for (const std::uint64_t k : keys)
        EXPECT_TRUE(set.contains(k)) << k;
    EXPECT_FALSE(set.contains(1));
    EXPECT_FALSE(set.contains((7ull << 32) | 48));

    std::vector<std::uint64_t> seen;
    set.forEach([&](std::uint64_t k) { seen.push_back(k); });
    std::sort(seen.begin(), seen.end());
    std::vector<std::uint64_t> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(seen, sorted);
}

TEST(TableTest, RendersHeaderRowsAndSummary)
{
    Table t("My figure", {"bench", "value"});
    t.addRow({"gzip", "1.00"});
    t.addRow({"gcc", "0.80"});
    t.addSummaryRow({"average", "0.90"});
    const std::string s = t.toString();
    EXPECT_NE(s.find("My figure"), std::string::npos);
    EXPECT_NE(s.find("bench"), std::string::npos);
    EXPECT_NE(s.find("gzip"), std::string::npos);
    EXPECT_NE(s.find("average"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TableTest, RejectsMismatchedRowWidth)
{
    Table t("x", {"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), PanicError);
}

TEST(TableTest, FormatHelpers)
{
    EXPECT_EQ(formatDouble(1.2345, 2), "1.23");
    EXPECT_EQ(formatPercent(0.915, 1), "91.5%");
    EXPECT_EQ(formatPercent(1.0, 0), "100%");
}

TEST(CliTest, ParsesValueForms)
{
    CliOptions cli;
    cli.define("events", "100", "event budget");
    cli.define("seed", "1", "rng seed");
    cli.define("verbose", "false", "chatty output");
    const char *argv[] = {"prog", "--events", "500", "--seed=9",
                          "--verbose"};
    cli.parse(5, argv);
    EXPECT_EQ(cli.getUint("events"), 500u);
    EXPECT_EQ(cli.getInt("seed"), 9);
    EXPECT_TRUE(cli.getBool("verbose"));
}

TEST(CliTest, DefaultsApplyWhenAbsent)
{
    CliOptions cli;
    cli.define("alpha", "0.5", "a ratio");
    const char *argv[] = {"prog"};
    cli.parse(1, argv);
    EXPECT_DOUBLE_EQ(cli.getDouble("alpha"), 0.5);
}

TEST(CliTest, UnknownOptionIsFatal)
{
    CliOptions cli;
    cli.define("known", "1", "known option");
    const char *argv[] = {"prog", "--unknown", "3"};
    EXPECT_THROW(cli.parse(3, argv), FatalError);
}

TEST(CliTest, HelpAndPositional)
{
    CliOptions cli;
    cli.define("x", "1", "x");
    const char *argv[] = {"prog", "pos1", "--help", "pos2"};
    cli.parse(4, argv);
    EXPECT_TRUE(cli.helpRequested());
    ASSERT_EQ(cli.positional().size(), 2u);
    EXPECT_EQ(cli.positional()[0], "pos1");
    EXPECT_NE(cli.usage("prog").find("--x"), std::string::npos);
}

TEST(StatsTest, Mean)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(StatsTest, Ratio)
{
    EXPECT_DOUBLE_EQ(ratio(6.0, 3.0), 2.0);
    EXPECT_DOUBLE_EQ(ratio(6.0, 0.0, 42.0), 42.0);
}

} // namespace
} // namespace rsel
