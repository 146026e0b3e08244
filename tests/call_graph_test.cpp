/**
 * @file
 * Degenerate-shape battery for the interprocedural layer: the call
 * graph (SCC condensation, bottom-up order), the call closure
 * (recursive SCCs and transitivity) and the per-site
 * duplication-growth bound, each on the smallest program that
 * exhibits the shape — single function, self-recursion, a
 * mutual-recursion ring, a call inside a loop body, an indirect call
 * whose callees share a callee, an unreachable callee, and a deep
 * call chain.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/inter_facts.hpp"
#include "program/program_builder.hpp"

namespace rsel {
namespace analysis {
namespace {

/** Position of `f` in the bottom-up order. */
std::size_t
bottomUpPos(const CallGraph &cg, FuncId f)
{
    const auto it =
        std::find(cg.bottomUp.begin(), cg.bottomUp.end(), f);
    EXPECT_NE(it, cg.bottomUp.end());
    return static_cast<std::size_t>(it - cg.bottomUp.begin());
}

TEST(CallGraphTest, SingleFunctionNoCalls)
{
    ProgramBuilder pb;
    pb.beginFunction("main");
    const BlockId a = pb.block(2);
    const BlockId b = pb.block(1);
    pb.halt(b);
    pb.setEntry(a);
    const Program prog = pb.build();

    const InterFacts inf = buildInterFacts(buildProgramFacts(prog));
    const CallGraph &cg = inf.callGraph;

    ASSERT_EQ(inf.summaries.size(), 1u);
    EXPECT_TRUE(cg.sites.empty());
    EXPECT_EQ(cg.entryFunc, 0u);
    EXPECT_TRUE(cg.callReachable(0));
    EXPECT_FALSE(inf.summaries[0].recursive);
    EXPECT_TRUE(inf.summaries[0].leaf);
    EXPECT_EQ(inf.summaries[0].blockCount, 2u);
    EXPECT_EQ(inf.summaries[0].insts, 3u);
    EXPECT_EQ(inf.summaries[0].closureFuncs, 1u);
    EXPECT_EQ(inf.summaries[0].closureInsts, 3u);
    EXPECT_EQ(cg.bottomUp, std::vector<FuncId>{0});
}

TEST(CallGraphTest, SelfRecursionIsACycleOfOne)
{
    ProgramBuilder pb;
    const FuncId rec = pb.beginFunction("rec");
    const BlockId r0 = pb.block(2);
    const BlockId r1 = pb.block(1);
    pb.callTo(r0, rec);
    pb.ret(r1);
    pb.beginFunction("main");
    const BlockId m0 = pb.block(2);
    const BlockId m1 = pb.block(1);
    pb.callTo(m0, rec);
    pb.halt(m1);
    pb.setEntry(m0);
    const Program prog = pb.build();

    const InterFacts inf = buildInterFacts(buildProgramFacts(prog));
    const CallGraph &cg = inf.callGraph;

    ASSERT_EQ(inf.summaries.size(), 2u);
    EXPECT_TRUE(inf.summaries[rec].recursive);
    EXPECT_FALSE(inf.summaries[1].recursive);
    // The self-loop is an SCC that cycles, with one member.
    EXPECT_NE(cg.cfg.sccId[rec], cg.cfg.sccId[1]);
    EXPECT_TRUE(cg.cfg.sccIsCycle[cg.cfg.sccId[rec]]);
    // The closure stays finite despite the cycle: rec's closure is
    // just rec.
    EXPECT_EQ(inf.summaries[rec].closureFuncs, 1u);
    EXPECT_TRUE(inf.inClosure(rec, rec));
    EXPECT_EQ(inf.summaries[1].closureFuncs, 2u);
    // Callee before caller in the bottom-up order.
    EXPECT_LT(bottomUpPos(cg, rec), bottomUpPos(cg, 1));
}

TEST(CallGraphTest, MutualRecursionRingCondensesToOneScc)
{
    ProgramBuilder pb;
    const FuncId fa = pb.beginFunction("a");
    const BlockId a0 = pb.block(2);
    const BlockId a1 = pb.block(1);
    const FuncId fb = pb.beginFunction("b");
    const BlockId b0 = pb.block(2);
    const BlockId b1 = pb.block(1);
    const FuncId fc = pb.beginFunction("c");
    const BlockId c0 = pb.block(2);
    const BlockId c1 = pb.block(1);
    const FuncId fm = pb.beginFunction("main");
    const BlockId m0 = pb.block(2);
    const BlockId m1 = pb.block(1);
    pb.callTo(a0, fb);
    pb.ret(a1);
    pb.callTo(b0, fc);
    pb.ret(b1);
    pb.callTo(c0, fa);
    pb.ret(c1);
    pb.callTo(m0, fa);
    pb.halt(m1);
    pb.setEntry(m0);
    const Program prog = pb.build();

    const InterFacts inf = buildInterFacts(buildProgramFacts(prog));
    const CallGraph &cg = inf.callGraph;

    // One cyclic SCC holding the whole ring; main stays outside.
    EXPECT_EQ(cg.cfg.sccId[fa], cg.cfg.sccId[fb]);
    EXPECT_EQ(cg.cfg.sccId[fb], cg.cfg.sccId[fc]);
    EXPECT_NE(cg.cfg.sccId[fm], cg.cfg.sccId[fa]);
    EXPECT_TRUE(cg.cfg.sccIsCycle[cg.cfg.sccId[fa]]);
    for (const FuncId f : {fa, fb, fc})
        EXPECT_TRUE(inf.summaries[f].recursive);
    EXPECT_FALSE(inf.summaries[fm].recursive);

    // Every ring member's closure is the whole ring, and the ring
    // precedes main bottom-up, its members adjacent.
    for (const FuncId f : {fa, fb, fc}) {
        EXPECT_EQ(inf.summaries[f].closureFuncs, 3u);
        EXPECT_TRUE(inf.inClosure(f, fa));
        EXPECT_TRUE(inf.inClosure(f, fb));
        EXPECT_TRUE(inf.inClosure(f, fc));
        EXPECT_FALSE(inf.inClosure(f, fm));
    }
    EXPECT_EQ(inf.summaries[fm].closureFuncs, 4u);
    const std::size_t pa = bottomUpPos(cg, fa);
    const std::size_t pc = bottomUpPos(cg, fc);
    const std::size_t lo = std::min(pa, pc);
    const std::size_t hi = std::max(pa, pc);
    EXPECT_EQ(hi - lo, 2u); // three members, adjacent
    EXPECT_LT(hi, bottomUpPos(cg, fm));
}

TEST(CallGraphTest, CallInsideLoopBodyIsBoundedByItsLeafCallee)
{
    ProgramBuilder pb;
    const FuncId leaf = pb.beginFunction("leaf");
    const BlockId l0 = pb.block(3);
    pb.ret(l0);
    pb.beginFunction("main");
    const BlockId head = pb.block(2);
    const BlockId body = pb.block(2);
    const BlockId land = pb.block(1);
    const BlockId done = pb.block(1);
    pb.callTo(body, leaf);
    pb.loopTo(land, head, 10, 10);
    pb.halt(done);
    pb.setEntry(head);
    const Program prog = pb.build();

    const InterFacts inf = buildInterFacts(buildProgramFacts(prog));
    const CallGraph &cg = inf.callGraph;

    ASSERT_EQ(cg.sites.size(), 1u);
    EXPECT_EQ(cg.sites[0].block, body);
    EXPECT_EQ(cg.sites[0].loopDepth, 1u);
    EXPECT_EQ(cg.sites[0].returnBlock, land);
    // A leaf's call closure is its own body.
    EXPECT_EQ(inf.closureInstsOf(cg.sites[0]), inf.summaries[leaf].insts);
}

TEST(CallGraphTest, IndirectSiteBoundCountsASharedCalleeOnce)
{
    ProgramBuilder pb;
    const FuncId shared = pb.beginFunction("shared");
    const BlockId s0 = pb.block(4);
    pb.ret(s0);
    const FuncId f = pb.beginFunction("f");
    const BlockId f0 = pb.block(2);
    const BlockId f1 = pb.block(1);
    pb.callTo(f0, shared);
    pb.ret(f1);
    const FuncId g = pb.beginFunction("g");
    const BlockId g0 = pb.block(3);
    const BlockId g1 = pb.block(1);
    pb.callTo(g0, shared);
    pb.ret(g1);
    pb.beginFunction("main");
    const BlockId m0 = pb.block(2);
    const BlockId m1 = pb.block(1);
    pb.indirectCall(m0, IndirectBehavior::weighted(
                            {pb.functionEntry(f), pb.functionEntry(g)},
                            {0.5, 0.5}));
    pb.halt(m1);
    pb.setEntry(m0);
    const Program prog = pb.build();

    const InterFacts inf = buildInterFacts(buildProgramFacts(prog));
    const CallGraph &cg = inf.callGraph;

    // Sites in block-id order: f's, g's, then main's indirect call.
    ASSERT_EQ(cg.sites.size(), 3u);
    const CallSite &site = cg.sites[2];
    EXPECT_EQ(site.block, m0);
    EXPECT_EQ(site.callees, (std::vector<FuncId>{f, g}));

    // The callees' closures weigh 3 + 4 and 4 + 4 insts, 15 summed
    // with `shared` counted twice; their union {f, g, shared} weighs
    // 3 + 4 + 4.
    EXPECT_EQ(inf.summaries[f].closureInsts, 7u);
    EXPECT_EQ(inf.summaries[g].closureInsts, 8u);
    EXPECT_EQ(inf.closureInstsOf(site), 11u);
}

TEST(CallGraphTest, UnreachableCalleeIsNotCallReachable)
{
    ProgramBuilder pb;
    const FuncId called = pb.beginFunction("called");
    const BlockId c0 = pb.block(1);
    pb.ret(c0);
    const FuncId orphan = pb.beginFunction("orphan");
    const BlockId o0 = pb.block(1);
    pb.halt(o0);
    pb.beginFunction("main");
    const BlockId m0 = pb.block(2);
    const BlockId m1 = pb.block(1);
    pb.callTo(m0, called);
    pb.halt(m1);
    pb.setEntry(m0);
    const Program prog = pb.build();

    const InterFacts inf = buildInterFacts(buildProgramFacts(prog));
    const CallGraph &cg = inf.callGraph;

    EXPECT_TRUE(cg.callReachable(called));
    EXPECT_TRUE(cg.callReachable(cg.entryFunc));
    EXPECT_FALSE(cg.callReachable(orphan));
    // The orphan still gets a summary and a (trivial) closure: the
    // facts are total over FuncIds, reachable or not.
    EXPECT_EQ(inf.summaries[orphan].closureFuncs, 1u);
}

TEST(CallGraphTest, DeepCallChainOrdersCalleesFirst)
{
    constexpr std::uint32_t depth = 20;
    ProgramBuilder pb;
    std::vector<FuncId> funcs;
    std::vector<BlockId> first, second;
    for (std::uint32_t i = 0; i < depth; ++i) {
        funcs.push_back(
            pb.beginFunction("f" + std::to_string(i)));
        first.push_back(pb.block(1));
        second.push_back(pb.block(1));
    }
    for (std::uint32_t i = 0; i < depth; ++i) {
        if (i + 1 < depth)
            pb.callTo(first[i], funcs[i + 1]);
        if (i == 0)
            pb.halt(second[i]);
        else
            pb.ret(second[i]);
    }
    pb.setEntry(first[0]);
    const Program prog = pb.build();

    const InterFacts inf = buildInterFacts(buildProgramFacts(prog));
    const CallGraph &cg = inf.callGraph;

    ASSERT_EQ(inf.summaries.size(), depth);
    // Acyclic: no SCC cycles, nothing recursive.
    for (std::uint32_t i = 0; i < depth; ++i)
        EXPECT_FALSE(inf.summaries[i].recursive);
    // Strictly decreasing bottom-up positions along the chain.
    for (std::uint32_t i = 0; i + 1 < depth; ++i)
        EXPECT_LT(bottomUpPos(cg, funcs[i + 1]),
                  bottomUpPos(cg, funcs[i]));
    // Closure transitivity down the whole chain, and the closure
    // mass telescopes: f_i reaches depth - i functions.
    for (std::uint32_t i = 0; i < depth; ++i) {
        EXPECT_EQ(inf.summaries[funcs[i]].closureFuncs, depth - i);
        EXPECT_TRUE(inf.inClosure(funcs[i], funcs[depth - 1]));
        if (i > 0) {
            EXPECT_FALSE(inf.inClosure(funcs[i], funcs[0]));
        }
    }
    EXPECT_EQ(inf.summaries[funcs[0]].closureInsts, 2u * depth);
}

} // namespace
} // namespace analysis
} // namespace rsel
