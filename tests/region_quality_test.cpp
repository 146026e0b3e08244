/**
 * @file
 * Tests for the Section 4.4 optimization-opportunity analyzer.
 */

#include <gtest/gtest.h>

#include "dynopt/dynopt_system.hpp"
#include "metrics/region_quality.hpp"
#include "program/program_builder.hpp"
#include "workloads/scenarios.hpp"

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

TEST(RegionQualityTest, LinearTraceHasNoOpportunities)
{
    Program p = buildInterproceduralCycle();
    using Ids = InterprocCycleIds;
    Region r = Region::makeTrace(0, pathOf(p, {Ids::a, Ids::b, Ids::d}));
    RegionQualityScratch scratch;
    const RegionQuality q = analyzeRegionQuality(r, scratch);
    EXPECT_FALSE(q.hasInternalCycle);
    EXPECT_FALSE(q.licmCapable);
    EXPECT_EQ(q.dualSuccessorSplits, 0u);
    EXPECT_EQ(q.joinBlocks, 0u);
    EXPECT_EQ(q.internalEdges, 2u);
}

TEST(RegionQualityTest, CycleSpanningTraceIsNotLicmCapable)
{
    // The paper: "even a trace that spans a cycle cannot perform
    // this optimization, because it has nowhere outside the cycle
    // to move an instruction."
    Program p = buildUnbiasedBranch();
    using Ids = UnbiasedBranchIds;
    Region r =
        Region::makeTrace(0, pathOf(p, {Ids::a, Ids::c, Ids::d, Ids::f}));
    ASSERT_TRUE(r.spansCycle());
    RegionQualityScratch scratch;
    const RegionQuality q = analyzeRegionQuality(r, scratch);
    EXPECT_TRUE(q.hasInternalCycle);
    EXPECT_FALSE(q.licmCapable); // the entry is inside the cycle
}

TEST(RegionQualityTest, MultiPathRegionHasBothSidesAndJoin)
{
    Program p = buildUnbiasedBranch();
    using Ids = UnbiasedBranchIds;
    Region r = Region::makeMultiPath(
        0, pathOf(p, {Ids::a, Ids::b, Ids::c, Ids::d, Ids::f}));
    RegionQualityScratch scratch;
    const RegionQuality q = analyzeRegionQuality(r, scratch);
    // A's taken and fall-through are both inside: compensation-free
    // redundancy elimination across the if-else.
    EXPECT_EQ(q.dualSuccessorSplits, 1u);
    // D joins the two sides; A joins F's back edge... A has preds
    // {F}, D has preds {B, C}: exactly one ≥2-pred block.
    EXPECT_EQ(q.joinBlocks, 1u);
    EXPECT_TRUE(q.hasInternalCycle);
}

TEST(RegionQualityTest, InnerCycleWithPreheaderIsLicmCapable)
{
    // A multi-path region whose entry leads into a self-contained
    // inner loop: the entry blocks form the in-region "above the
    // loop" place the paper says LICM needs.
    ProgramBuilder b(1);
    b.beginFunction("main");
    const BlockId pre = b.block(2);   // preheader inside the region
    const BlockId head = b.block(3);  // inner-loop head
    const BlockId latch = b.block(2); // inner-loop latch
    b.loopTo(latch, head, 5, 5);
    const BlockId out = b.block(1);
    b.halt(out);
    b.setEntry(pre);
    Program p = b.build();

    Region r = Region::makeMultiPath(
        0, pathOf(p, {pre, head, latch}));
    RegionQualityScratch scratch;
    const RegionQuality q = analyzeRegionQuality(r, scratch);
    EXPECT_TRUE(q.hasInternalCycle);
    EXPECT_TRUE(q.licmCapable);
}

TEST(RegionQualityTest, CombinedRegionsOfferMoreOpportunities)
{
    // End-to-end (the Section 4.4 argument): across a workload,
    // combined selection yields regions with if-else structure that
    // single-path selection cannot have.
    Program p = buildUnbiasedBranch(1, 0.5, 0.05);
    SimOptions opts;
    opts.maxEvents = 200'000;
    opts.seed = 9;
    SimResult net = simulate(p, Algorithm::Net, opts);
    SimResult comb = simulate(p, Algorithm::NetCombined, opts);

    EXPECT_EQ(net.dualSplitRegions, 0u); // traces are single-path
    EXPECT_GE(comb.dualSplitRegions, 1u);
    EXPECT_GE(comb.joinBlocksTotal, 1u);
}

} // namespace
} // namespace rsel
