/**
 * @file
 * Tests for the bounded code cache: eviction policies, regeneration
 * accounting, and the paper's deferred claim that algorithms which
 * cache less code regenerate less under pressure (Section 2.3:
 * "our region-selection algorithms should help improve the
 * performance of dynamic optimization systems with bounded code
 * caches ... [they] regenerate fewer evicted regions").
 */

#include <gtest/gtest.h>

#include "dynopt/dynopt_system.hpp"
#include "runtime/code_cache.hpp"
#include "workloads/scenarios.hpp"
#include "workloads/workloads.hpp"

namespace rsel {
namespace {

std::vector<const BasicBlock *>
pathOf(const Program &p, std::initializer_list<BlockId> ids)
{
    std::vector<const BasicBlock *> path;
    for (BlockId id : ids)
        path.push_back(&p.block(id));
    return path;
}

TEST(BoundedCacheTest, UnboundedNeverEvicts)
{
    Program p = buildInterproceduralCycle();
    using Ids = InterprocCycleIds;
    CodeCache cache; // default limits: unbounded
    cache.insert(Region::makeTrace(cache.nextRegionId(),
                                   pathOf(p, {Ids::a, Ids::b})));
    cache.insert(Region::makeTrace(cache.nextRegionId(),
                                   pathOf(p, {Ids::e, Ids::f})));
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_EQ(cache.liveRegionCount(), 2u);
    EXPECT_EQ(cache.liveBytes(), cache.estimatedSizeBytes());
}

TEST(BoundedCacheTest, FifoEvictsOldestUntilFit)
{
    Program p = buildInterproceduralCycle();
    using Ids = InterprocCycleIds;
    CacheLimits limits;
    limits.policy = CacheLimits::Policy::Fifo;

    // Size the capacity to hold roughly two single-block regions.
    Region probe = Region::makeTrace(0, pathOf(p, {Ids::a}));
    limits.capacityBytes =
        2 * (probe.byteSize() + probe.exitStubCount() * 10) + 8;

    CodeCache cache(limits);
    const RegionId r0 = cache.insert(
        Region::makeTrace(cache.nextRegionId(), pathOf(p, {Ids::a})));
    const RegionId r1 = cache.insert(
        Region::makeTrace(cache.nextRegionId(), pathOf(p, {Ids::e})));
    EXPECT_EQ(cache.evictions(), 0u);

    // Third region displaces the oldest (r0), not r1.
    cache.insert(
        Region::makeTrace(cache.nextRegionId(), pathOf(p, {Ids::l})));
    EXPECT_GE(cache.evictions(), 1u);
    EXPECT_FALSE(cache.isLive(r0));
    EXPECT_TRUE(cache.isLive(r1));
    EXPECT_EQ(cache.lookupEntry(Ids::a), nullptr);
    EXPECT_NE(cache.lookupEntry(Ids::e), nullptr);
    // The evicted region's object is still reachable by id.
    EXPECT_EQ(cache.region(r0).entryAddr(),
              p.block(Ids::a).startAddr());
}

TEST(BoundedCacheTest, FullFlushEmptiesEverything)
{
    Program p = buildInterproceduralCycle();
    using Ids = InterprocCycleIds;
    CacheLimits limits;
    limits.policy = CacheLimits::Policy::FullFlush;
    Region probe = Region::makeTrace(0, pathOf(p, {Ids::a}));
    limits.capacityBytes =
        2 * (probe.byteSize() + probe.exitStubCount() * 10) + 8;

    CodeCache cache(limits);
    cache.insert(
        Region::makeTrace(cache.nextRegionId(), pathOf(p, {Ids::a})));
    cache.insert(
        Region::makeTrace(cache.nextRegionId(), pathOf(p, {Ids::e})));
    cache.insert(
        Region::makeTrace(cache.nextRegionId(), pathOf(p, {Ids::l})));
    EXPECT_EQ(cache.flushes(), 1u);
    EXPECT_EQ(cache.evictions(), 2u);
    EXPECT_EQ(cache.liveRegionCount(), 1u); // only the newcomer
    EXPECT_NE(cache.lookupEntry(Ids::l), nullptr);
}

TEST(BoundedCacheTest, RegenerationCountsReinsertedEntries)
{
    Program p = buildInterproceduralCycle();
    using Ids = InterprocCycleIds;
    CacheLimits limits;
    limits.policy = CacheLimits::Policy::Fifo;
    Region probe = Region::makeTrace(0, pathOf(p, {Ids::a}));
    limits.capacityBytes =
        probe.byteSize() + probe.exitStubCount() * 10 + 4;

    CodeCache cache(limits);
    cache.insert(
        Region::makeTrace(cache.nextRegionId(), pathOf(p, {Ids::a})));
    cache.insert(
        Region::makeTrace(cache.nextRegionId(), pathOf(p, {Ids::e})));
    EXPECT_EQ(cache.regenerations(), 0u);
    // Re-insert at A's entry after its eviction: one regeneration.
    cache.insert(
        Region::makeTrace(cache.nextRegionId(), pathOf(p, {Ids::a})));
    EXPECT_EQ(cache.regenerations(), 1u);
}

TEST(BoundedCacheTest, OversizedRegionLivesAlone)
{
    Program p = buildInterproceduralCycle();
    using Ids = InterprocCycleIds;
    CacheLimits limits;
    limits.policy = CacheLimits::Policy::Fifo;
    limits.capacityBytes = 1; // nothing fits
    CodeCache cache(limits);
    const RegionId id = cache.insert(Region::makeTrace(
        cache.nextRegionId(), pathOf(p, {Ids::a, Ids::b, Ids::d})));
    EXPECT_TRUE(cache.isLive(id));
    EXPECT_EQ(cache.liveRegionCount(), 1u);
}

TEST(BoundedCacheTest, EndToEndBoundedRunStaysConsistent)
{
    Program p = buildGzip(42);
    SimOptions opts;
    opts.maxEvents = 800'000;
    opts.seed = 7;

    SimResult unbounded = simulate(p, Algorithm::Net, opts);

    // Half the unbounded footprint forces real cache pressure.
    opts.cache.capacityBytes = unbounded.estimatedCacheBytes / 2;
    for (auto policy : {CacheLimits::Policy::FullFlush,
                        CacheLimits::Policy::Fifo}) {
        opts.cache.policy = policy;
        SimResult bounded = simulate(p, Algorithm::Net, opts);
        EXPECT_GT(bounded.cacheEvictions, 0u);
        EXPECT_GT(bounded.cacheRegenerations, 0u);
        EXPECT_LE(bounded.cacheLiveBytes,
                  std::max<std::uint64_t>(opts.cache.capacityBytes,
                                          1024));
        // Bounded runs pay warm-up repeatedly: more regions
        // selected, lower-or-equal hit rate.
        EXPECT_GE(bounded.regionCount, unbounded.regionCount);
        EXPECT_LE(bounded.hitRate(), unbounded.hitRate() + 1e-9);
        EXPECT_EQ(bounded.totalInsts,
                  bounded.cachedInsts + bounded.interpretedInsts);
    }
}

TEST(BoundedCacheTest, PaperClaimFewerRegenerationsWithCombination)
{
    // The deferred Section 2.3 claim: algorithms that produce fewer,
    // less duplicated regions regenerate less under a bounded cache.
    Program p = buildGzip(42);
    SimOptions opts;
    opts.maxEvents = 800'000;
    opts.seed = 7;
    SimResult netUnbounded = simulate(p, Algorithm::Net, opts);

    opts.cache.capacityBytes = netUnbounded.estimatedCacheBytes / 2;
    opts.cache.policy = CacheLimits::Policy::Fifo;
    SimResult net = simulate(p, Algorithm::Net, opts);
    SimResult clei = simulate(p, Algorithm::LeiCombined, opts);

    EXPECT_LT(clei.cacheRegenerations, net.cacheRegenerations);
    EXPECT_GE(clei.hitRate(), net.hitRate() - 0.02);
}

} // namespace
} // namespace rsel
