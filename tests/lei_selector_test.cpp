/**
 * @file
 * Unit tests for LEI selection, pinned to the paper's Figures 5
 * and 6: cycle detection through the history buffer, eligibility,
 * trace formation, and the Figure 2 / Figure 3 scenario behaviours.
 */

#include <gtest/gtest.h>

#include "dynopt/dynopt_system.hpp"
#include "program/program_builder.hpp"
#include "workloads/scenarios.hpp"

namespace rsel {
namespace {

SimResult
runScenario(const Program &p, Algorithm algo, std::uint64_t events,
            LeiConfig lei = {})
{
    SimOptions opts;
    opts.maxEvents = events;
    opts.seed = 9;
    opts.lei = lei;
    return simulate(p, algo, opts);
}

TEST(LeiSelectorTest, Figure2SpansInterproceduralCycle)
{
    Program p = buildInterproceduralCycle();
    using Ids = InterprocCycleIds;
    SimResult r = runScenario(p, Algorithm::Lei, 120'000);

    // LEI selects a single trace spanning the whole six-block
    // interprocedural cycle. It enters at E rather than A — the
    // backward call makes E's cycle counter fire one branch earlier
    // each iteration — i.e. a rotation of the paper's A B D E F L.
    ASSERT_EQ(r.regionCount, 1u);
    EXPECT_EQ(r.regions[0].entryAddr, p.block(Ids::e).startAddr());
    EXPECT_EQ(r.regions[0].blockCount, 6u);
    EXPECT_TRUE(r.regions[0].spansCycle);
    // Repeated iterations stay in the trace: no region transitions,
    // and nearly every region execution ends by the cycle branch.
    EXPECT_EQ(r.regionTransitions, 0u);
    EXPECT_GT(r.executedCycleRatio(), 0.99);
    EXPECT_GT(r.hitRate(), 0.99);
}

TEST(LeiSelectorTest, Figure2NeedsFewerStubsThanNet)
{
    Program p = buildInterproceduralCycle();
    SimResult lei = runScenario(p, Algorithm::Lei, 120'000);
    SimOptions opts;
    opts.maxEvents = 120'000;
    opts.seed = 9;
    SimResult net = simulate(p, Algorithm::Net, opts);

    // The paper: the split traces need two extra exit stubs.
    EXPECT_LT(lei.exitStubs, net.exitStubs);
    EXPECT_LT(lei.regionCount, net.regionCount);
}

TEST(LeiSelectorTest, Figure3AvoidsInnerLoopDuplication)
{
    Program p = buildNestedLoops(1, 4, 1000000);
    using Ids = NestedLoopIds;
    SimResult r = runScenario(p, Algorithm::Lei, 150'000);

    // The paper's idealized narrative selects two traces (B; C A).
    // Under the literal Figure 5 semantics the outer head A is also
    // cycle-eligible from the first iteration (the backward branch
    // C->A closes a cycle), and its counter races ahead of C's
    // exit-based counter, so three single-block traces emerge: B,
    // then A (stopping at cached B on the fall-through path), then
    // C (stopping at cached A). The figure's substance holds
    // either way: no inner-loop duplication, fewer instructions
    // selected than NET.
    ASSERT_EQ(r.regionCount, 3u);
    EXPECT_EQ(r.regions[0].entryAddr, p.block(Ids::b).startAddr());
    EXPECT_EQ(r.regions[0].blockCount, 1u);
    EXPECT_TRUE(r.regions[0].spansCycle);
    // The key Figure 3 property: the inner loop is never duplicated
    // — B appears in exactly one region.
    EXPECT_EQ(r.regions[1].blockCount, 1u); // [A], stops at cached B
    EXPECT_LE(r.regions[2].blockCount, 2u); // [C] (+ the cold exit)
    EXPECT_LE(r.expansionInsts, 10u);
    // Fewer instructions than NET's 12 for the same program.
    SimOptions opts;
    opts.maxEvents = 150'000;
    opts.seed = 9;
    SimResult net = simulate(p, Algorithm::Net, opts);
    EXPECT_LT(r.expansionInsts, net.expansionInsts);
    EXPECT_LE(r.regionCount, net.regionCount);
}

TEST(LeiSelectorTest, ThresholdCountsCycleCompletions)
{
    // Tight self-loop; the cycle target completes a cycle on every
    // back edge, so with threshold T the trace appears after T
    // cycle completions (plus the two formation events).
    ProgramBuilder b(1);
    b.beginFunction("main");
    const BlockId head = b.block(1);
    const BlockId latch = b.block(1);
    b.loopTo(latch, head, 1000000, 1000000);
    const BlockId stop = b.block(1);
    b.halt(stop);
    Program p = b.build();

    LeiConfig cfg;
    cfg.hotThreshold = 8;
    DynOptSystem system(p);
    system.useLei(cfg);
    Executor exec(p, 1);
    // head is taken-entered at events 3,5,7,...; the first such
    // entry only inserts into the buffer; cycles complete from the
    // second taken entry (event 5). The 8th completion lands at
    // event 19, where the trace forms and is entered immediately.
    exec.run(18, system);
    EXPECT_EQ(system.cache().regionCount(), 0u);
    exec.run(1, system);
    EXPECT_EQ(system.cache().regionCount(), 1u);
    EXPECT_TRUE(system.cache().region(0).spansCycle());
    system.finish();
}

TEST(LeiSelectorTest, ForwardOnlyCyclesViaCacheExitStillEligible)
{
    // Figure 3's second trace C A: the cycle at C closes with the
    // forward transfer B->C, eligible only because the prior
    // occurrence of C was recorded as a code-cache exit.
    Program p = buildNestedLoops(1, 4, 1000000);
    using Ids = NestedLoopIds;
    SimResult r = runScenario(p, Algorithm::Lei, 150'000);
    bool sawC = false;
    for (const RegionStats &reg : r.regions)
        sawC |= reg.entryAddr == p.block(Ids::c).startAddr();
    // C's cycle closes with the forward transfer B->C; it can only
    // be selected because its prior occurrence was a cache exit.
    EXPECT_TRUE(sawC);
}

TEST(LeiSelectorTest, BufferTooSmallPreventsCycleDetection)
{
    // With a 2-entry buffer, the 3-taken-branch cycle of Figure 2
    // (D->E, F->L, L->A) cannot be held, so LEI selects nothing.
    Program p = buildInterproceduralCycle();
    LeiConfig cfg;
    cfg.bufferCapacity = 2;
    SimResult r = runScenario(p, Algorithm::Lei, 50'000, cfg);
    EXPECT_EQ(r.regionCount, 0u);
    EXPECT_DOUBLE_EQ(r.hitRate(), 0.0);

    // A 3-entry buffer is exactly enough.
    cfg.bufferCapacity = 3;
    SimResult r3 = runScenario(p, Algorithm::Lei, 50'000, cfg);
    EXPECT_EQ(r3.regionCount, 1u);
}

TEST(LeiSelectorTest, SizeLimitBoundsTraces)
{
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

    LeiConfig cfg;
    cfg.hotThreshold = 8;
    cfg.maxTraceInsts = 64;
    SimResult r = runScenario(p, Algorithm::Lei, 5'000, cfg);
    ASSERT_GE(r.regionCount, 1u);
    for (const RegionStats &reg : r.regions)
        EXPECT_LE(reg.instCount, 64u);
}

TEST(LeiSelectorTest, TinySizeLimitStillYieldsTheEntry)
{
    // A size limit smaller than the entry block must not break
    // trace formation: the entry alone is selected.
    ProgramBuilder b(1);
    b.beginFunction("main");
    const BlockId head = b.block(9); // bigger than the limit
    const BlockId latch = b.block(2);
    b.loopTo(latch, head, 1000000, 1000000);
    const BlockId stop = b.block(1);
    b.halt(stop);
    Program p = b.build();

    LeiConfig cfg;
    cfg.hotThreshold = 5;
    cfg.maxTraceInsts = 4;
    SimResult r = runScenario(p, Algorithm::Lei, 2'000, cfg);
    ASSERT_GE(r.regionCount, 1u);
    EXPECT_EQ(r.regions[0].blockCount, 1u);
    EXPECT_EQ(r.regions[0].entryAddr, p.block(head).startAddr());
}

TEST(LeiSelectorTest, CountersRecycleAndStayBounded)
{
    Program p = buildNestedLoops(1, 4, 1000000);
    SimResult r = runScenario(p, Algorithm::Lei, 150'000);
    // Only B and C ever satisfy the cycle conditions; each counter
    // is recycled when its trace forms.
    EXPECT_LE(r.maxLiveCounters, 2u);
    EXPECT_GE(r.maxLiveCounters, 1u);
}

TEST(LeiSelectorTest, LiveCountersThroughTriggerRecycleAndReset)
{
    // Two back-to-back self loops; a cycle completes when a back edge
    // finds its head's previous occurrence in the history buffer.
    ProgramBuilder b(1);
    b.beginFunction("main");
    const BlockId h1 = b.block(1);
    const BlockId l1 = b.block(1);
    b.loopTo(l1, h1, 1000, 1000);
    const BlockId h2 = b.block(1);
    const BlockId l2 = b.block(1);
    b.loopTo(l2, h2, 1000, 1000);
    b.halt(b.block(1));
    const Program p = b.build();
    const auto backTo = [&](BlockId head, BlockId latch) {
        SelectorEvent ev;
        ev.block = &p.block(head);
        ev.viaTaken = true;
        ev.branchAddr = p.block(latch).lastInstAddr();
        return ev;
    };

    const CodeCache cache;
    LeiConfig cfg;
    cfg.hotThreshold = 3;
    LeiSelector lei(p, cache, cfg);
    for (int i = 0; i < 2; ++i)
        EXPECT_FALSE(lei.onInterpreted(backTo(h2, l2)));
    EXPECT_EQ(lei.liveCounters(), 1u);
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(lei.onInterpreted(backTo(h1, l1)));
    EXPECT_EQ(lei.liveCounters(), 2u);
    EXPECT_EQ(lei.maxLiveCounters(), 2u);
    // h1's third cycle triggers: the trace forms and the counter is
    // recycled.
    const auto spec = lei.onInterpreted(backTo(h1, l1));
    ASSERT_TRUE(spec);
    EXPECT_EQ(spec->blocks.size(), 2u);
    EXPECT_EQ(lei.liveCounters(), 1u);
    // A flush keeps hotness; a reset forgets it. The peak stays.
    lei.onCacheDisruption(CacheDisruption::Flush);
    EXPECT_EQ(lei.liveCounters(), 1u);
    lei.onCacheDisruption(CacheDisruption::Reset);
    EXPECT_EQ(lei.liveCounters(), 0u);
    EXPECT_EQ(lei.maxLiveCounters(), 2u);
    for (int i = 0; i < 2; ++i)
        EXPECT_FALSE(lei.onInterpreted(backTo(h1, l1)));
    EXPECT_EQ(lei.liveCounters(), 1u);
    EXPECT_EQ(lei.maxLiveCounters(), 2u);
}

TEST(LeiSelectorTest, FewerCountersThanNetOnLongCycles)
{
    // A long cycle (more taken branches than the buffer holds):
    // NET still profiles the loop head on every iteration, LEI
    // cannot (the head has left the buffer), so LEI needs fewer
    // counters — the paper's Figure 10 effect in miniature.
    ProgramBuilder b(1);
    b.beginFunction("main");
    const BlockId head = b.block(2);
    // 24 tiny self-contained diamonds produce many taken branches
    // per iteration.
    std::vector<BlockId> splits;
    for (int i = 0; i < 24; ++i) {
        const BlockId split = b.block(1);
        const BlockId arm = b.block(1);
        const BlockId join = b.block(1);
        b.condTo(split, join, CondBehavior::bernoulli(0.5));
        (void)arm;
        splits.push_back(split);
    }
    const BlockId latch = b.block(1);
    b.jumpTo(latch, head);
    Program p = b.build();

    LeiConfig lcfg;
    lcfg.bufferCapacity = 8; // far smaller than the cycle
    SimOptions opts;
    opts.maxEvents = 30'000;
    opts.seed = 5;
    opts.lei = lcfg;
    SimResult lei = simulate(p, Algorithm::Lei, opts);
    SimResult net = simulate(p, Algorithm::Net, opts);
    EXPECT_LT(lei.maxLiveCounters, net.maxLiveCounters);
}

TEST(LeiSelectorTest, CombinedLeiCombinesObservedCycles)
{
    // probE = 0 keeps the rare side out of the observed window so
    // the combined region is exactly the five hot blocks.
    Program p = buildUnbiasedBranch(1, 0.5, 0.0);
    SimResult plain = runScenario(p, Algorithm::Lei, 200'000);
    SimResult comb = runScenario(p, Algorithm::LeiCombined, 200'000);

    ASSERT_GE(comb.regionCount, 1u);
    EXPECT_EQ(comb.regions[0].kind, Region::Kind::MultiPath);
    EXPECT_EQ(comb.regions[0].blockCount, 5u); // A B C D F
    EXPECT_LE(comb.regionCount, plain.regionCount);
    EXPECT_LT(comb.regionTransitions, plain.regionTransitions);
    EXPECT_GT(comb.executedCycleRatio(), 0.85);
    // Observed traces were stored compactly while profiling.
    EXPECT_GT(comb.peakObservedTraceBytes, 0u);
    EXPECT_EQ(plain.peakObservedTraceBytes, 0u);
}

TEST(LeiSelectorTest, NameReflectsMode)
{
    Program p = buildNestedLoops();
    DynOptSystem a(p);
    a.useLei();
    EXPECT_EQ(a.selector().name(), "LEI");
    DynOptSystem b2(p);
    LeiConfig cfg;
    cfg.combine = true;
    b2.useLei(cfg);
    EXPECT_EQ(b2.selector().name(), "LEI+comb");
}

} // namespace
} // namespace rsel
