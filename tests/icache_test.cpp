/**
 * @file
 * Tests for the instruction-cache model and the locality claim it
 * measures: the paper's argument that trace separation degrades
 * I-cache performance, which better region selection repairs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dynopt/dynopt_system.hpp"
#include "runtime/icache.hpp"
#include "support/error.hpp"
#include "support/random.hpp"
#include "workloads/scenarios.hpp"
#include "workloads/workloads.hpp"

namespace rsel {
namespace {

TEST(ICacheModelTest, ColdMissesThenHits)
{
    ICacheModel cache({1024, 64, 2});
    EXPECT_EQ(cache.fetchRange(0, 64), 1u);  // cold miss
    EXPECT_EQ(cache.fetchRange(0, 64), 0u);  // hit
    EXPECT_EQ(cache.fetchRange(32, 64), 1u); // second line cold
    EXPECT_EQ(cache.accesses(), 4u);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_DOUBLE_EQ(cache.missRate(), 0.5);
}

TEST(ICacheModelTest, RangeSpansLines)
{
    ICacheModel cache({1024, 64, 2});
    // 130 bytes from 60 touches lines 0, 1, 2.
    EXPECT_EQ(cache.fetchRange(60, 130), 3u);
    EXPECT_EQ(cache.accesses(), 3u);
}

TEST(ICacheModelTest, LruEvictsLeastRecentlyUsed)
{
    // 2 sets, 2 ways, 64B lines: lines 0,2,4 map to set 0.
    ICacheModel cache({256, 64, 2});
    cache.fetchRange(0 * 64, 1);   // set0 way A
    cache.fetchRange(2 * 64, 1);   // set0 way B
    cache.fetchRange(0 * 64, 1);   // touch A
    cache.fetchRange(4 * 64, 1);   // evicts B (LRU)
    EXPECT_EQ(cache.fetchRange(0 * 64, 1), 0u); // A still present
    EXPECT_EQ(cache.fetchRange(2 * 64, 1), 1u); // B was evicted
}

TEST(ICacheModelTest, WorkingSetWithinCapacityStopsMissing)
{
    ICacheModel cache({4096, 64, 2});
    for (int round = 0; round < 10; ++round)
        cache.fetchRange(0, 2048); // half the capacity, repeatedly
    // Only the first round misses.
    EXPECT_EQ(cache.misses(), 32u);
    EXPECT_EQ(cache.accesses(), 320u);
}

TEST(ICacheModelTest, GeometryValidation)
{
    EXPECT_THROW(ICacheModel({100, 60, 2}), PanicError);  // line !pow2
    EXPECT_THROW(ICacheModel({64, 64, 2}), PanicError);   // < one set
    EXPECT_NO_THROW(ICacheModel({128, 64, 2}));           // one set
}

/** Each set's ways, most recently used first (stamp order). */
std::vector<std::vector<std::size_t>>
recencyOrder(const ICacheModel &cache)
{
    const std::size_t ways = cache.config().ways;
    std::vector<std::vector<std::size_t>> order;
    for (std::size_t base = 0; base < cache.stamps().size(); base += ways) {
        std::vector<std::size_t> set(ways);
        for (std::size_t w = 0; w < ways; ++w)
            set[w] = w;
        std::stable_sort(set.begin(), set.end(),
                         [&](std::size_t a, std::size_t b) {
                             return cache.stamps()[base + a] >
                                    cache.stamps()[base + b];
                         });
        order.push_back(std::move(set));
    }
    return order;
}

TEST(ICacheModelTest, MemoizedFetchMatchesPerAccessModel)
{
    // Random region layouts (blocks of 1-200 bytes, so some span
    // lines), walked with steps, restarts and switches between
    // regions, through memoized runs on one model and the
    // per-access fetchRange on another. Between runs the memoized
    // model now and then takes a plain fetchRange too, as the
    // per-event path does between batched runs. The memo must never
    // change a counter, a tag or the recency order within a set.
    const ICacheConfig geometries[] = {
        {4096, 64, 2}, {1024, 32, 1}, {4096, 64, 4}};
    Rng rng(2024);
    for (const ICacheConfig &geo : geometries) {
        for (int walk = 0; walk < 40; ++walk) {
            struct Block
            {
                Addr addr;
                std::uint32_t bytes;
                ICacheModel::FetchMemo memo;
            };
            ICacheModel memoized(geo);
            ICacheModel reference(geo);
            std::vector<std::vector<Block>> regions(rng.nextRange(1, 8));
            Addr next = rng.nextBelow(64);
            for (auto &region : regions) {
                region.resize(rng.nextRange(1, 24));
                for (Block &b : region) {
                    b.addr = next;
                    b.bytes = static_cast<std::uint32_t>(
                        rng.nextRange(1, 200));
                    next += b.bytes;
                }
                next += rng.nextBelow(4) * 10; // exit stubs
            }
            std::size_t r = 0;
            std::size_t pos = 0;
            for (int run = 0; run < 100; ++run) {
                if (rng.nextBelow(4) == 0) {
                    const Block &b = regions[r][pos];
                    memoized.fetchRange(b.addr, b.bytes);
                    reference.fetchRange(b.addr, b.bytes);
                }
                ICacheModel::Run fetches(memoized);
                for (std::uint64_t n = rng.nextRange(1, 60); n != 0; --n) {
                    const std::uint64_t roll = rng.nextBelow(100);
                    if (roll < 70 && pos + 1 < regions[r].size()) {
                        ++pos;
                    } else if (roll < 85) {
                        pos = 0; // restart
                    } else {
                        r = rng.nextBelow(regions.size()); // switch
                        pos = 0;
                    }
                    Block &b = regions[r][pos];
                    fetches.fetch(b.addr, b.memo, [&] { return b.bytes; });
                    reference.fetchRange(b.addr, b.bytes);
                }
            }
            ASSERT_EQ(memoized.accesses(), reference.accesses());
            ASSERT_EQ(memoized.misses(), reference.misses());
            ASSERT_EQ(memoized.tags(), reference.tags());
            ASSERT_EQ(recencyOrder(memoized), recencyOrder(reference));
        }
    }
}

TEST(ICacheLocalityTest, SpanningTraceBeatsSplitTraces)
{
    // Figure 2 end-to-end: LEI's single spanning trace stays within
    // one contiguous layout chunk; NET ping-pongs between two.
    // With a tiny I-cache the separation becomes measurable misses.
    Program p = buildInterproceduralCycle();
    SimOptions opts;
    opts.maxEvents = 120'000;
    opts.seed = 9;
    opts.icache = {128, 16, 1}; // 8 tiny lines, direct-mapped

    SimResult net = simulate(p, Algorithm::Net, opts);
    SimResult lei = simulate(p, Algorithm::Lei, opts);
    EXPECT_GT(net.icacheAccesses, 0u);
    EXPECT_LT(lei.icacheMissRate(), net.icacheMissRate());
}

TEST(ICacheLocalityTest, CombinationImprovesLocalityOnSuiteWorkload)
{
    Program p = buildTwolf(42);
    SimOptions opts;
    opts.maxEvents = 600'000;
    opts.seed = 7;
    opts.icache = {2048, 64, 2}; // scaled-down L1I

    SimResult net = simulate(p, Algorithm::Net, opts);
    SimResult clei = simulate(p, Algorithm::LeiCombined, opts);
    EXPECT_LT(clei.icacheMissRate(), net.icacheMissRate());
}

} // namespace
} // namespace rsel
