/**
 * @file
 * Unit tests for Region: step semantics, exit stubs, cycle spanning.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "program/program.hpp"
#include "program/program_builder.hpp"
#include "runtime/region.hpp"
#include "support/error.hpp"
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

TEST(RegionTest, TraceFootprint)
{
    Program p = buildInterproceduralCycle();
    using Ids = InterprocCycleIds;
    Region r = Region::makeTrace(0, pathOf(p, {Ids::a, Ids::b, Ids::d}));
    EXPECT_EQ(r.kind(), Region::Kind::Trace);
    EXPECT_EQ(r.entryAddr(), p.block(Ids::a).startAddr());
    EXPECT_EQ(r.instCount(), 3u + 3u + 2u);
    EXPECT_EQ(r.byteSize(), p.block(Ids::a).sizeBytes() +
                                p.block(Ids::b).sizeBytes() +
                                p.block(Ids::d).sizeBytes());
    EXPECT_TRUE(r.containsBlock(Ids::b));
    EXPECT_FALSE(r.containsBlock(Ids::l));
}

TEST(RegionTest, TraceStepFollowsRecordedPath)
{
    Program p = buildInterproceduralCycle();
    using Ids = InterprocCycleIds;
    Region r = Region::makeTrace(0, pathOf(p, {Ids::a, Ids::b, Ids::d}));

    std::size_t pos = 0;
    EXPECT_EQ(r.step(pos, p.block(Ids::b), false), RegionStep::Internal);
    EXPECT_EQ(pos, 1u);
    EXPECT_EQ(r.step(pos, p.block(Ids::d), false), RegionStep::Internal);
    EXPECT_EQ(pos, 2u);
    // The call leaves the trace.
    EXPECT_EQ(r.step(pos, p.block(Ids::e), true), RegionStep::Exit);
    EXPECT_EQ(pos, 2u); // unchanged on exit
}

TEST(RegionTest, TraceStepExitsOnPathDivergence)
{
    Program p = buildUnbiasedBranch();
    using Ids = UnbiasedBranchIds;
    Region r =
        Region::makeTrace(0, pathOf(p, {Ids::a, Ids::c, Ids::d, Ids::f}));
    std::size_t pos = 0;
    // Executing the other side of the unbiased branch exits at once.
    EXPECT_EQ(r.step(pos, p.block(Ids::b), false), RegionStep::Exit);
}

TEST(RegionTest, TraceBranchToTopRestartsCycle)
{
    Program p = buildUnbiasedBranch();
    using Ids = UnbiasedBranchIds;
    Region r =
        Region::makeTrace(0, pathOf(p, {Ids::a, Ids::c, Ids::d, Ids::f}));
    EXPECT_TRUE(r.spansCycle()); // F jumps back to A

    std::size_t pos = 0;
    ASSERT_EQ(r.step(pos, p.block(Ids::c), true), RegionStep::Internal);
    ASSERT_EQ(r.step(pos, p.block(Ids::d), false), RegionStep::Internal);
    ASSERT_EQ(r.step(pos, p.block(Ids::f), true), RegionStep::Internal);
    EXPECT_EQ(r.step(pos, p.block(Ids::a), true),
              RegionStep::CycleRestart);
    EXPECT_EQ(pos, 0u);
}

TEST(RegionTest, TraceExitStubCount)
{
    Program p = buildUnbiasedBranch();
    using Ids = UnbiasedBranchIds;
    // Trace A C D F spanning the cycle:
    //  A: cond taken->C (inline), fall->B (stub)            = 1
    //  C: falls through to D (inline)                       = 0
    //  D: cond taken->F (inline), fall->E (stub)            = 1
    //  F: jump to A = branch to top (linked, no stub)       = 0
    Region r =
        Region::makeTrace(0, pathOf(p, {Ids::a, Ids::c, Ids::d, Ids::f}));
    EXPECT_EQ(r.exitStubCount(), 2u);
    EXPECT_TRUE(r.spansCycle());

    // Trace B D F (the tail-duplicated second trace):
    //  B: jump to D (inline)                                = 0
    //  D: cond taken->F (inline), fall->E (stub)            = 1
    //  F: jump to A (off-trace target, stub)                = 1
    Region r2 = Region::makeTrace(1, pathOf(p, {Ids::b, Ids::d, Ids::f}));
    EXPECT_EQ(r2.exitStubCount(), 2u);
    EXPECT_FALSE(r2.spansCycle());
}

TEST(RegionTest, IndirectTerminatorsAlwaysNeedAStub)
{
    Program p = buildInterproceduralCycle();
    using Ids = InterprocCycleIds;
    // Trace E F: F returns (indirect) — one stub even though the
    // trace ends there; E falls through to F inline.
    Region r = Region::makeTrace(0, pathOf(p, {Ids::e, Ids::f}));
    EXPECT_EQ(r.exitStubCount(), 1u);
}

TEST(RegionTest, MultiPathMembershipKeepsControl)
{
    Program p = buildUnbiasedBranch();
    using Ids = UnbiasedBranchIds;
    Region r = Region::makeMultiPath(
        0, pathOf(p, {Ids::a, Ids::b, Ids::c, Ids::d, Ids::f}));
    EXPECT_EQ(r.kind(), Region::Kind::MultiPath);

    std::size_t pos = 0;
    // Both sides of the unbiased branch stay inside.
    EXPECT_EQ(r.step(pos, p.block(Ids::b), false), RegionStep::Internal);
    EXPECT_EQ(r.step(pos, p.block(Ids::d), true), RegionStep::Internal);
    EXPECT_EQ(r.step(pos, p.block(Ids::f), true), RegionStep::Internal);
    EXPECT_EQ(r.step(pos, p.block(Ids::a), true),
              RegionStep::CycleRestart);
    EXPECT_EQ(pos, 0u);
    // The rare side exits.
    ++pos; // move off the entry
    EXPECT_EQ(r.step(pos, p.block(Ids::e), false), RegionStep::Exit);
}

TEST(RegionTest, MultiPathStepMatchesMembershipEverywhere)
{
    // pre falls through into the region entry (head); sw ends in an
    // indirect jump whose targets are a member, a non-member and a
    // block outside the loop.
    ProgramBuilder b(7);
    b.beginFunction("main");
    const BlockId pre = b.block(2);
    const BlockId head = b.block(2);
    const BlockId body = b.block(1);
    const BlockId sw = b.block(1);
    const BlockId tail = b.block(1);
    const BlockId out = b.block(1);
    b.condTo(head, tail, CondBehavior::bernoulli(0.5));
    IndirectBehavior ib;
    ib.targets = {pre, tail, out};
    ib.weightsByPhase = {{1.0, 1.0, 1.0}};
    b.indirectJump(sw, std::move(ib));
    b.jumpTo(tail, pre);
    b.halt(out);
    const Program p = b.build();
    ASSERT_EQ(p.block(pre).terminator(), BranchKind::None);
    ASSERT_EQ(p.block(pre).fallThroughAddr(), p.block(head).startAddr());
    ASSERT_EQ(p.block(sw).terminator(), BranchKind::IndirectJump);

    const Region r =
        Region::makeMultiPath(0, pathOf(p, {head, body, sw, pre}));
    const std::vector<const BasicBlock *> &members = r.blocks();
    for (std::size_t from = 0; from < members.size(); ++from) {
        for (const BasicBlock &next : p.blocks()) {
            for (const bool taken : {false, true}) {
                SCOPED_TRACE(::testing::Message()
                             << "pos " << from << " next " << next.id()
                             << " taken " << taken);
                const auto member =
                    std::find(members.begin(), members.end(), &next);
                std::size_t pos = from;
                const RegionStep step = r.step(pos, next, taken);
                if (member == members.end()) {
                    EXPECT_EQ(step, RegionStep::Exit);
                    EXPECT_EQ(pos, from);
                } else if (member == members.begin()) {
                    EXPECT_EQ(step, RegionStep::CycleRestart);
                    EXPECT_EQ(pos, 0u);
                } else {
                    EXPECT_EQ(step, RegionStep::Internal);
                    EXPECT_EQ(pos, static_cast<std::size_t>(
                                       member - members.begin()));
                }
            }
        }
    }
}

TEST(RegionTest, MultiPathStubsExcludeInternalTargets)
{
    Program p = buildUnbiasedBranch();
    using Ids = UnbiasedBranchIds;
    // Region {A,B,C,D,F}:
    //  A: both directions internal                          = 0
    //  B: jump D internal                                   = 0
    //  C: falls to D internal                               = 0
    //  D: taken->F internal, fall->E outside                = 1
    //  F: jump A internal (cycle)                           = 0
    Region r = Region::makeMultiPath(
        0, pathOf(p, {Ids::a, Ids::b, Ids::c, Ids::d, Ids::f}));
    EXPECT_EQ(r.exitStubCount(), 1u);
    EXPECT_TRUE(r.spansCycle());

    // Compare: two single-path traces need 4 stubs for the same hot
    // code (2 + 2 above) — the paper's Figure 4 reduction.
    Region t1 =
        Region::makeTrace(1, pathOf(p, {Ids::a, Ids::c, Ids::d, Ids::f}));
    Region t2 = Region::makeTrace(2, pathOf(p, {Ids::b, Ids::d, Ids::f}));
    EXPECT_GT(t1.exitStubCount() + t2.exitStubCount(),
              r.exitStubCount());
}

TEST(RegionTest, RejectsDuplicateBlocks)
{
    Program p = buildUnbiasedBranch();
    using Ids = UnbiasedBranchIds;
    EXPECT_THROW(
        Region::makeTrace(0, pathOf(p, {Ids::a, Ids::c, Ids::a})),
        PanicError);
    EXPECT_THROW(Region::makeTrace(0, {}), PanicError);
}

} // namespace
} // namespace rsel
