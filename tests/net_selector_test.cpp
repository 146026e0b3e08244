/**
 * @file
 * Unit tests for NET selection, pinned to the paper's description:
 * profiling eligibility, the next-executing-tail recording rules,
 * and the Figure 2 / Figure 3 scenario behaviours.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "dynopt/dynopt_system.hpp"
#include "program/program_builder.hpp"
#include "workloads/scenarios.hpp"

namespace rsel {
namespace {

/** Run a scenario under one algorithm and return the result. */
SimResult
runScenario(const Program &p, Algorithm algo, std::uint64_t events,
            NetConfig net = {}, LeiConfig lei = {})
{
    SimOptions opts;
    opts.maxEvents = events;
    opts.seed = 9;
    opts.net = net;
    opts.lei = lei;
    return simulate(p, algo, opts);
}

TEST(NetSelectorTest, CounterEligibilityIsBackwardOnly)
{
    // A forward-branch-only program: NET must never select anything
    // because no target is ever eligible (no backward branches taken,
    // no cache exits).
    ProgramBuilder b(1);
    b.beginFunction("main");
    const BlockId split = b.block(1);
    const BlockId thenSide = b.block(1);
    const BlockId join = b.block(1);
    b.condTo(split, join, CondBehavior::bernoulli(0.5));
    (void)thenSide;
    const BlockId stop = b.block(1);
    b.halt(stop);
    Program p = b.build();

    Program *pp = &p;
    DynOptSystem system(*pp);
    system.useNet();
    Executor exec(p, 1);
    exec.run(1000, system);
    SimResult r = system.finish();
    EXPECT_EQ(r.regionCount, 0u);
    EXPECT_EQ(r.maxLiveCounters, 0u);
}

TEST(NetSelectorTest, SelectsAfterThresholdExecutions)
{
    // A tight self-loop: the head is a backward-branch target. With
    // threshold T the trace must appear at the T-th execution of the
    // target, not before.
    ProgramBuilder b(1);
    b.beginFunction("main");
    const BlockId head = b.block(1);
    const BlockId latch = b.block(1);
    b.loopTo(latch, head, 1000000, 1000000);
    const BlockId stop = b.block(1);
    b.halt(stop);
    Program p = b.build();

    NetConfig cfg;
    cfg.hotThreshold = 10;
    DynOptSystem system(p);
    system.useNet(cfg);
    Executor exec(p, 1);
    // Events: head,latch pairs. The first taken branch into head is
    // the first back edge, so head's counter hits 10 at event
    // 2*10+1; before that nothing is cached.
    // Head's counter reaches 10 at event 21 (head executes at odd
    // events, counted from its first taken entry at event 3); the
    // recording then needs two more events to wrap the cycle.
    exec.run(20, system);
    EXPECT_EQ(system.cache().regionCount(), 0u);
    exec.run(4, system);
    EXPECT_EQ(system.cache().regionCount(), 1u);
    const Region &r = system.cache().region(0);
    EXPECT_EQ(r.blocks().size(), 2u);
    EXPECT_TRUE(r.spansCycle());
    exec.run(2000, system);
    SimResult res = system.finish();
    EXPECT_GT(res.hitRate(), 0.95);
}

TEST(NetSelectorTest, Figure2CannotSpanInterproceduralCycle)
{
    Program p = buildInterproceduralCycle();
    using Ids = InterprocCycleIds;
    SimResult r = runScenario(p, Algorithm::Net, 120'000);

    // NET splits the cycle into two traces: A B D and E F L. (E's
    // trace is selected first here: the backward call makes E
    // counter-eligible one branch earlier in the iteration than A;
    // the paper's figure is about the resulting split, not order.)
    ASSERT_EQ(r.regionCount, 2u);
    std::uint64_t entries[2] = {r.regions[0].entryAddr,
                                r.regions[1].entryAddr};
    std::sort(entries, entries + 2);
    EXPECT_EQ(entries[0], p.block(Ids::e).startAddr());
    EXPECT_EQ(entries[1], p.block(Ids::a).startAddr());
    EXPECT_EQ(r.regions[0].blockCount, 3u);
    EXPECT_EQ(r.regions[1].blockCount, 3u);
    // Neither trace spans the cycle ...
    EXPECT_EQ(r.spanningRegions, 0u);
    EXPECT_DOUBLE_EQ(r.executedCycleRatio(), 0.0);
    // ... so every iteration transitions between the two regions.
    EXPECT_GT(r.regionTransitions, 30'000u);
    EXPECT_GT(r.hitRate(), 0.99);
}

TEST(NetSelectorTest, Figure3DuplicatesInnerLoop)
{
    Program p = buildNestedLoops(1, 4, 1000000);
    using Ids = NestedLoopIds;
    SimResult r = runScenario(p, Algorithm::Net, 150'000);

    // Paper: three traces — B; C; A B — with B duplicated. (The
    // relative selection order of C and A B depends on when each
    // counter starts; the paper's Figure 3 argument is about the
    // resulting trace set.)
    ASSERT_EQ(r.regionCount, 3u);
    auto findRegion = [&](BlockId entry) -> const RegionStats * {
        for (const RegionStats &reg : r.regions)
            if (reg.entryAddr == p.block(entry).startAddr())
                return &reg;
        return nullptr;
    };
    const RegionStats *innerTrace = findRegion(Ids::b);
    const RegionStats *latchTrace = findRegion(Ids::c);
    const RegionStats *outerTrace = findRegion(Ids::a);
    ASSERT_NE(innerTrace, nullptr);
    ASSERT_NE(latchTrace, nullptr);
    ASSERT_NE(outerTrace, nullptr);
    EXPECT_EQ(innerTrace->blockCount, 1u);
    EXPECT_TRUE(innerTrace->spansCycle);
    EXPECT_EQ(latchTrace->blockCount, 1u);
    EXPECT_EQ(outerTrace->blockCount, 2u); // A plus a copy of B
    EXPECT_EQ(innerTrace->id, 0u);         // B is selected first
    // Code expansion counts B twice: 4 blocks of 3 insts selected.
    EXPECT_EQ(r.expansionInsts, 12u);
}

TEST(NetSelectorTest, SizeLimitEndsTrace)
{
    // One huge straight-line loop body; the trace must stop at the
    // configured instruction limit.
    ProgramBuilder b(1);
    b.beginFunction("main");
    const BlockId head = b.block(8);
    for (int i = 0; i < 20; ++i)
        b.block(8);
    const BlockId latch = b.block(8);
    b.loopTo(latch, head, 1000000, 1000000);
    const BlockId stop = b.block(1);
    b.halt(stop);
    Program p = b.build();

    NetConfig cfg;
    cfg.hotThreshold = 10;
    cfg.maxTraceInsts = 50;
    SimResult r = runScenario(p, Algorithm::Net, 5'000, cfg);
    ASSERT_GE(r.regionCount, 1u);
    for (const RegionStats &reg : r.regions)
        EXPECT_LE(reg.instCount, 50u);
}

TEST(NetSelectorTest, RecordingStopsAtExistingRegionHead)
{
    // Figure 3 again, but checked from the region-content angle:
    // trace 2 (entry C) must consist of exactly C — its recording
    // stops when the backward branch C->A is taken; and A's later
    // trace stops when the inner loop branches to cached B.
    Program p = buildNestedLoops(1, 4, 1000000);
    using Ids = NestedLoopIds;
    SimResult r = runScenario(p, Algorithm::Net, 150'000);
    ASSERT_EQ(r.regionCount, 3u);
    // A's trace contains A and one copy of B, and executing it ends
    // by a taken branch to cached B (a region transition), never by
    // a cycle.
    const RegionStats *outerTrace = nullptr;
    for (const RegionStats &reg : r.regions)
        if (reg.entryAddr == p.block(Ids::a).startAddr())
            outerTrace = &reg;
    ASSERT_NE(outerTrace, nullptr);
    EXPECT_FALSE(outerTrace->spansCycle);
    EXPECT_EQ(outerTrace->cycleEnds, 0u);
}

TEST(NetSelectorTest, CounterRecyclingBoundsLiveCounters)
{
    Program p = buildNestedLoops(1, 4, 1000000);
    SimResult r = runScenario(p, Algorithm::Net, 150'000);
    // Targets: B (backward), C (cache exit), A (backward) — each
    // recycled at threshold. At most two live at once (A and C
    // overlap while B's is already recycled).
    EXPECT_LE(r.maxLiveCounters, 2u);
    EXPECT_GE(r.maxLiveCounters, 1u);
}

/** Two back-to-back self loops (head, latch) and a halt. */
struct TwoLoops
{
    Program prog;
    BlockId h1, l1, h2, l2;
};

TwoLoops
twoLoops()
{
    ProgramBuilder b(1);
    b.beginFunction("main");
    TwoLoops t;
    t.h1 = b.block(1);
    t.l1 = b.block(1);
    b.loopTo(t.l1, t.h1, 1000, 1000);
    t.h2 = b.block(1);
    t.l2 = b.block(1);
    b.loopTo(t.l2, t.h2, 1000, 1000);
    b.halt(b.block(1));
    t.prog = b.build();
    return t;
}

/** The latch's back edge into the head, as the driver reports it. */
SelectorEvent
backEdge(const Program &p, BlockId head, BlockId latch)
{
    SelectorEvent ev;
    ev.block = &p.block(head);
    ev.viaTaken = true;
    ev.branchAddr = p.block(latch).lastInstAddr();
    return ev;
}

TEST(NetSelectorTest, LiveCountersThroughTriggerRecycleAndReset)
{
    const TwoLoops t = twoLoops();
    const Program &p = t.prog;
    const CodeCache cache;
    NetConfig cfg;
    cfg.hotThreshold = 3;
    NetSelector net(p, cache, cfg);

    EXPECT_FALSE(net.onInterpreted(backEdge(p, t.h2, t.l2)));
    EXPECT_FALSE(net.onInterpreted(backEdge(p, t.h1, t.l1)));
    EXPECT_FALSE(net.onInterpreted(backEdge(p, t.h1, t.l1)));
    EXPECT_EQ(net.liveCounters(), 2u);
    EXPECT_EQ(net.maxLiveCounters(), 2u);
    // The third count triggers: h1's counter is recycled and the
    // recording starts.
    EXPECT_FALSE(net.onInterpreted(backEdge(p, t.h1, t.l1)));
    EXPECT_TRUE(net.recording());
    EXPECT_EQ(net.liveCounters(), 1u);
    SelectorEvent latch;
    latch.block = &p.block(t.l1);
    EXPECT_FALSE(net.onInterpreted(latch));
    const auto spec = net.onInterpreted(backEdge(p, t.h1, t.l1));
    ASSERT_TRUE(spec);
    EXPECT_EQ(spec->blocks.size(), 2u);
    EXPECT_EQ(net.liveCounters(), 1u);
    // A flush keeps hotness; a reset forgets it. The peak stays.
    net.onCacheDisruption(CacheDisruption::Flush);
    EXPECT_EQ(net.liveCounters(), 1u);
    net.onCacheDisruption(CacheDisruption::Reset);
    EXPECT_EQ(net.liveCounters(), 0u);
    EXPECT_EQ(net.maxLiveCounters(), 2u);
    EXPECT_FALSE(net.onInterpreted(backEdge(p, t.h2, t.l2)));
    EXPECT_EQ(net.liveCounters(), 1u);
    EXPECT_EQ(net.maxLiveCounters(), 2u);
}

TEST(NetSelectorTest, CombinedNetStartsEarlierAndCombines)
{
    // probE = 0: the rare side never executes, so the combined
    // region is exactly the five hot blocks.
    Program p = buildUnbiasedBranch(1, 0.5, 0.0);
    NetConfig cfg; // hotThreshold 50, profWindow 15, minOccur 5
    SimResult plain = runScenario(p, Algorithm::Net, 150'000, cfg);
    SimResult comb =
        runScenario(p, Algorithm::NetCombined, 150'000, cfg);

    // Plain NET needs two traces for the diamond and duplicates the
    // join blocks; combined NET selects one multi-path region.
    EXPECT_GE(plain.regionCount, 2u);
    ASSERT_GE(comb.regionCount, 1u);
    EXPECT_EQ(comb.regions[0].kind, Region::Kind::MultiPath);
    // Both sides of the unbiased branch are in the region: 5 blocks
    // (A B C D F); E never executes.
    EXPECT_EQ(comb.regions[0].blockCount, 5u);
    // No duplication: combined expansion below plain NET's.
    EXPECT_LT(comb.expansionInsts, plain.expansionInsts);
    EXPECT_LT(comb.exitStubs, plain.exitStubs);
    EXPECT_LT(comb.regionTransitions, plain.regionTransitions);
}

TEST(NetSelectorTest, ObservedRejoiningPathsAreIncluded)
{
    // Paper footnote 6: executed paths that rejoin frequent blocks
    // are included even when they occur in fewer than T_min traces
    // (selecting them separately would cause exit-dominated
    // duplication). With probE = 0.3 the E side is observed during
    // the window but falls short of T_min occurrences often — it is
    // kept either way because E -> F rejoins the region.
    Program p = buildUnbiasedBranch(1, 0.5, 0.3);
    SimResult comb = runScenario(p, Algorithm::NetCombined, 150'000);
    ASSERT_GE(comb.regionCount, 1u);
    EXPECT_EQ(comb.regions[0].blockCount, 6u);
}

TEST(NetSelectorTest, CombinedRegionKeepsBothUnbiasedOutcomes)
{
    Program p = buildUnbiasedBranch(1, 0.5, 0.05);
    SimResult comb = runScenario(p, Algorithm::NetCombined, 200'000);
    ASSERT_GE(comb.regionCount, 1u);
    // Control remains in the region across the unbiased branch, so
    // nearly every region execution ends by the branch to the top.
    EXPECT_GT(comb.executedCycleRatio(), 0.85);
    EXPECT_GT(comb.hitRate(), 0.99);
}

TEST(NetSelectorTest, NameReflectsMode)
{
    Program p = buildNestedLoops();
    DynOptSystem a(p);
    a.useNet();
    EXPECT_EQ(a.selector().name(), "NET");
    DynOptSystem b2(p);
    NetConfig cfg;
    cfg.combine = true;
    b2.useNet(cfg);
    EXPECT_EQ(b2.selector().name(), "NET+comb");
}

} // namespace
} // namespace rsel
