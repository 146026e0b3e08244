/**
 * @file
 * Unit tests for the metrics layer: cover sets, ratios, and the
 * Section 4.1 exit-domination analysis.
 */

#include <gtest/gtest.h>

#include <bit>
#include <utility>
#include <vector>

#include "dynopt/dynopt_system.hpp"
#include "metrics/metrics_collector.hpp"
#include "workloads/scenarios.hpp"

namespace rsel {
namespace {

SimResult
makeResultWithExecutions(std::vector<std::uint64_t> perRegion,
                         std::uint64_t interpreted)
{
    SimResult r;
    for (std::size_t i = 0; i < perRegion.size(); ++i) {
        RegionStats stats;
        stats.id = static_cast<RegionId>(i);
        stats.executedInsts = perRegion[i];
        r.regions.push_back(stats);
        r.cachedInsts += perRegion[i];
    }
    r.interpretedInsts = interpreted;
    r.totalInsts = r.cachedInsts + interpreted;
    r.regionCount = perRegion.size();
    return r;
}

TEST(CoverSetTest, PicksSmallestSet)
{
    // 100 total executed; regions cover 50, 30, 15; interpreter 5.
    SimResult r = makeResultWithExecutions({50, 30, 15}, 5);
    EXPECT_EQ(r.coverSet(0.50), 1u);
    EXPECT_EQ(r.coverSet(0.80), 2u);
    EXPECT_EQ(r.coverSet(0.90), 3u); // 50+30=80 < 90, need 3rd
    EXPECT_EQ(r.coverSet(0.95), 3u);
}

TEST(CoverSetTest, OrderIndependent)
{
    SimResult a = makeResultWithExecutions({15, 50, 30}, 5);
    SimResult b = makeResultWithExecutions({50, 30, 15}, 5);
    EXPECT_EQ(a.coverSet(0.90), b.coverSet(0.90));
}

TEST(CoverSetTest, SaturationWhenRegionsCannotCover)
{
    SimResult r = makeResultWithExecutions({10, 10}, 80);
    EXPECT_EQ(r.coverSet(0.90), 2u); // all regions, still short
}

TEST(SimResultTest, RatioHelpers)
{
    SimResult r;
    r.totalInsts = 200;
    r.cachedInsts = 150;
    r.interpretedInsts = 50;
    EXPECT_DOUBLE_EQ(r.hitRate(), 0.75);

    r.regionCount = 4;
    r.spanningRegions = 1;
    EXPECT_DOUBLE_EQ(r.spannedCycleRatio(), 0.25);

    r.regionExecutions = 10;
    r.cycleTerminations = 4;
    EXPECT_DOUBLE_EQ(r.executedCycleRatio(), 0.4);

    r.expansionInsts = 100;
    EXPECT_DOUBLE_EQ(r.avgRegionInsts(), 25.0);
    r.exitDominatedRegions = 1;
    EXPECT_DOUBLE_EQ(r.exitDominatedRegionRatio(), 0.25);
    r.exitDominatedDupInsts = 7;
    EXPECT_DOUBLE_EQ(r.exitDominatedDupRatio(), 0.07);

    r.estimatedCacheBytes = 1000;
    r.peakObservedTraceBytes = 60;
    EXPECT_DOUBLE_EQ(r.observedMemoryRatio(), 0.06);
}

TEST(SimResultTest, DegenerateDenominators)
{
    SimResult r;
    EXPECT_DOUBLE_EQ(r.hitRate(), 0.0);
    EXPECT_DOUBLE_EQ(r.spannedCycleRatio(), 0.0);
    EXPECT_DOUBLE_EQ(r.executedCycleRatio(), 0.0);
    EXPECT_DOUBLE_EQ(r.avgRegionInsts(), 0.0);
    EXPECT_DOUBLE_EQ(r.observedMemoryRatio(), 0.0);
}

TEST(ExitDominationTest, Figure2TracesAreExitDominated)
{
    // NET on the interprocedural cycle: trace 2 (E F L) begins at
    // the sole exit of trace 1 (A B D), whose call block D is the
    // only executed predecessor of E — textbook exit domination.
    Program p = buildInterproceduralCycle();
    SimOptions opts;
    opts.maxEvents = 60'000;
    opts.seed = 1;
    SimResult r = simulate(p, Algorithm::Net, opts);
    ASSERT_EQ(r.regionCount, 2u);
    EXPECT_EQ(r.exitDominatedRegions, 1u);
    // The two traces share no blocks, so no duplication.
    EXPECT_EQ(r.exitDominatedDupInsts, 0u);
}

TEST(ExitDominationTest, LeiSpanningTraceHasNoDomination)
{
    Program p = buildInterproceduralCycle();
    SimOptions opts;
    opts.maxEvents = 60'000;
    opts.seed = 1;
    SimResult r = simulate(p, Algorithm::Lei, opts);
    ASSERT_EQ(r.regionCount, 1u);
    EXPECT_EQ(r.exitDominatedRegions, 0u);
}

TEST(ExitDominationTest, DuplicationCountedOnSharedBlocks)
{
    // NET on Figure 4: the second trace (B D F) is entered only
    // from the first trace's exit at A and duplicates D and F.
    Program p = buildUnbiasedBranch(1, 0.5, 0.05);
    SimOptions opts;
    opts.maxEvents = 200'000;
    opts.seed = 9;
    SimResult r = simulate(p, Algorithm::Net, opts);
    ASSERT_GE(r.regionCount, 2u);
    EXPECT_GE(r.exitDominatedRegions, 1u);
    // D (2 insts) and F (2 insts) shared with the dominator.
    EXPECT_GE(r.exitDominatedDupInsts, 4u);
}

TEST(ExitDominationTest, MultiplePredecessorsBlockDomination)
{
    // A region entered from two different earlier regions' exits is
    // not exit-dominated (condition 2 of the definition).
    Program p = buildUnbiasedBranch(1, 0.5, 0.05);
    SimOptions opts;
    opts.maxEvents = 200'000;
    opts.seed = 9;
    SimResult comb = simulate(p, Algorithm::NetCombined, opts);
    // The combined region holds all hot blocks; at most the rare E
    // path could form a dominated region later.
    EXPECT_LE(comb.exitDominatedRegions, comb.regionCount);
}

TEST(SimResultTest, ConservationClosesOnRealRunsAndFlagsTampering)
{
    Program p = buildNestedLoops();
    SimOptions opts;
    opts.maxEvents = 50'000;
    for (Algorithm algo : allSelectors) {
        SimResult r = simulate(p, algo, opts);
        EXPECT_EQ(r.conservationError(), "") << algorithmName(algo);

        // Each broken identity must be named, not silently passed.
        SimResult bad = r;
        bad.cachedInsts += 1;
        EXPECT_NE(bad.conservationError(), "");
        bad = r;
        bad.regionCount += 1;
        EXPECT_NE(bad.conservationError(), "");
        if (!r.regions.empty()) {
            bad = r;
            bad.regions[0].executedInsts += 1;
            EXPECT_NE(bad.conservationError(), "");
        }
    }
}

TEST(MetricsCollectorTest, FiltersAreSizedByTheProgram)
{
    // 8 slots per block, as a power of two within [256, 4096].
    EXPECT_EQ(MetricsCollector::filterSlots(0), 256u);
    EXPECT_EQ(MetricsCollector::filterSlots(1), 256u);
    EXPECT_EQ(MetricsCollector::filterSlots(33), 512u);
    EXPECT_EQ(MetricsCollector::filterSlots(99), 1024u);
    EXPECT_EQ(MetricsCollector::filterSlots(512), 4096u);
    EXPECT_EQ(MetricsCollector::filterSlots(601), 4096u);
}

/** `n` distinct (src, dst) keys that share one filter slot. */
std::vector<std::pair<BlockId, BlockId>>
collidingPairs(std::size_t n, std::size_t slots)
{
    const unsigned shift =
        64 - static_cast<unsigned>(std::countr_zero(slots));
    std::vector<std::pair<BlockId, BlockId>> pairs;
    for (std::uint64_t m = 0; pairs.size() < n; ++m) {
        const BlockId src = static_cast<BlockId>(m % 64);
        const BlockId dst = static_cast<BlockId>(m / 64);
        const std::uint64_t key =
            (static_cast<std::uint64_t>(src) << 32) | dst;
        if (((key * 0x9E3779B97F4A7C15ull) >> shift) == 0)
            pairs.emplace_back(src, dst);
    }
    return pairs;
}

TEST(MetricsCollectorTest, SmallestFiltersStayExact)
{
    // A 1-block program gets the smallest filters. 20k keys all
    // land in slot 0: the first 10k are fed, the rest never are.
    // Each fed key is fed again after later keys took its slot, so
    // the filter is constantly overwritten; it may only skip a
    // repeat, never a first sighting.
    constexpr std::size_t n = 10'000;
    const auto pairs =
        collidingPairs(2 * n, MetricsCollector::filterSlots(1));
    MetricsCollector metrics(1);
    std::uint64_t transitions = 0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j : {i, i / 2, i}) {
            const auto [src, dst] = pairs[j];
            metrics.onEdge(src, dst);
            metrics.onRegionTransition(src, dst);
            ++transitions;
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_TRUE(metrics.sawEdge(pairs[i].first, pairs[i].second))
            << "fed edge " << i << " lost";
    for (std::size_t i = n; i < 2 * n; ++i)
        ASSERT_FALSE(metrics.sawEdge(pairs[i].first, pairs[i].second))
            << "edge " << i << " never fed";

    // The link filter sits in front of the distinct-pair set the
    // same way: every distinct pair counts exactly once.
    const Program prog = buildNestedLoops();
    const CodeCache cache;
    const NetSelector selector(prog, cache);
    const SimResult r = metrics.finalize(prog, cache, selector);
    EXPECT_EQ(r.interRegionLinks, n);
    EXPECT_EQ(r.regionTransitions, transitions);
}

} // namespace
} // namespace rsel
