/**
 * @file
 * Unit tests for the analysis layer's graph core: DiGraph,
 * reachability, RPO, dominators, SCCs, natural loops, and the
 * Program/region adapters of program_facts.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/cfg_facts.hpp"
#include "analysis/program_facts.hpp"
#include "program/program_builder.hpp"
#include "testing/gen_spec.hpp"
#include "testing/random_program.hpp"

namespace rsel {
namespace analysis {
namespace {

TEST(DiGraphTest, DeduplicatesEdges)
{
    DiGraph g(3);
    g.addEdge(0, 1);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    EXPECT_EQ(g.edgeCount(), 2u);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(1, 2));
    EXPECT_FALSE(g.hasEdge(1, 0));
    ASSERT_EQ(g.succs(0).size(), 1u);
}

TEST(CfgFactsTest, DiamondDominators)
{
    // 0 -> {1, 2}; {1, 2} -> 3: neither branch dominates the join.
    DiGraph g(4);
    g.addEdge(0, 1);
    g.addEdge(0, 2);
    g.addEdge(1, 3);
    g.addEdge(2, 3);
    const CfgFacts f = CfgFacts::compute(g, 0);

    EXPECT_EQ(f.idom[0], 0u);
    EXPECT_EQ(f.idom[1], 0u);
    EXPECT_EQ(f.idom[2], 0u);
    EXPECT_EQ(f.idom[3], 0u);
    EXPECT_TRUE(f.dominates(0, 3));
    EXPECT_FALSE(f.dominates(1, 3));
    EXPECT_FALSE(f.dominates(2, 3));
    EXPECT_TRUE(f.dominates(3, 3));
    EXPECT_EQ(f.reachableCount, 4u);
    ASSERT_EQ(f.rpo.size(), 4u);
    EXPECT_EQ(f.rpo.front(), 0u);
    EXPECT_EQ(f.rpo.back(), 3u);
}

TEST(CfgFactsTest, ChainDominatorsAndPreds)
{
    DiGraph g(3);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    const CfgFacts f = CfgFacts::compute(g, 0);
    EXPECT_EQ(f.idom[1], 0u);
    EXPECT_EQ(f.idom[2], 1u);
    EXPECT_TRUE(f.dominates(1, 2));
    ASSERT_EQ(f.preds[2].size(), 1u);
    EXPECT_EQ(f.preds[2][0], 1u);
}

TEST(CfgFactsTest, UnreachableNodesHaveNoDominator)
{
    DiGraph g(3);
    g.addEdge(0, 1); // node 2 is disconnected
    const CfgFacts f = CfgFacts::compute(g, 0);
    EXPECT_FALSE(f.reachable[2]);
    EXPECT_EQ(f.idom[2], invalidNode);
    EXPECT_EQ(f.reachableCount, 2u);
}

TEST(CfgFactsTest, SccCyclesAndExits)
{
    // {1, 2} is a cycle with an exit to 3; 0 and 3 are trivial; 3
    // has a self edge (a cycle of one).
    DiGraph g(4);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(2, 1);
    g.addEdge(2, 3);
    g.addEdge(3, 3);
    const CfgFacts f = CfgFacts::compute(g, 0);

    EXPECT_EQ(f.sccId[1], f.sccId[2]);
    EXPECT_NE(f.sccId[0], f.sccId[1]);
    EXPECT_NE(f.sccId[3], f.sccId[1]);
    EXPECT_TRUE(f.sccIsCycle[f.sccId[1]]);
    EXPECT_TRUE(f.sccIsCycle[f.sccId[3]]); // self edge counts
    EXPECT_FALSE(f.sccIsCycle[f.sccId[0]]);
    EXPECT_TRUE(f.sccHasExit[f.sccId[1]]);
    EXPECT_FALSE(f.sccHasExit[f.sccId[3]]);
}

TEST(CfgFactsTest, NaturalLoopBody)
{
    // 0 -> 1 -> 2 -> 1, 2 -> 3: back edge 2 -> 1 (1 dominates 2)
    // gives the loop {1, 2}.
    DiGraph g(4);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(2, 1);
    g.addEdge(2, 3);
    const CfgFacts f = CfgFacts::compute(g, 0);
    ASSERT_EQ(f.loops.size(), 1u);
    EXPECT_EQ(f.loops[0].header, 1u);
    EXPECT_EQ(f.loops[0].body, (std::vector<std::uint32_t>{1, 2}));
}

/** a: cond -> c | b; b: ft -> c; c: latch -> a | d; d: halt. */
Program
buildLoopProgram()
{
    ProgramBuilder pb;
    pb.beginFunction("main");
    const BlockId a = pb.block(4);
    pb.block(3); // b, reached from a by fall-through
    const BlockId c = pb.block(2);
    const BlockId d = pb.block(1);
    CondBehavior skip;
    skip.kind = CondBehavior::Kind::Bernoulli;
    skip.takenProbByPhase = {0.5};
    pb.condTo(a, c, skip);
    pb.loopTo(c, a, 10, 10);
    pb.halt(d);
    pb.setEntry(a);
    return pb.build();
}

TEST(ProgramFactsTest, PossibleEdgesOfLoopProgram)
{
    const Program p = buildLoopProgram();
    const ProgramFacts pf = buildProgramFacts(p);

    // a -> b (fall-through) and a -> c (taken).
    EXPECT_TRUE(pf.possibleEdge(p.block(0), p.block(1)));
    EXPECT_TRUE(pf.possibleEdge(p.block(0), p.block(2)));
    EXPECT_FALSE(pf.possibleEdge(p.block(0), p.block(3)));
    // c -> a (latch taken) and c -> d (loop exit fall-through).
    EXPECT_TRUE(pf.possibleEdge(p.block(2), p.block(0)));
    EXPECT_TRUE(pf.possibleEdge(p.block(2), p.block(3)));
    // The a..c loop shows up as a cyclic SCC and a natural loop.
    EXPECT_TRUE(pf.cfg.sccIsCycle[pf.cfg.sccId[0]]);
    ASSERT_EQ(pf.cfg.loops.size(), 1u);
    EXPECT_EQ(pf.cfg.loops[0].header, 0u);
}

TEST(ProgramFactsTest, CallAndReturnEdges)
{
    ProgramBuilder pb;
    const FuncId callee = pb.beginFunction("callee");
    const BlockId ca = pb.block(2);
    pb.ret(ca);
    pb.beginFunction("main");
    const BlockId m0 = pb.block(2); // call -> callee, returns to m1
    const BlockId m1 = pb.block(1);
    pb.callTo(m0, callee);
    pb.halt(m1);
    pb.setEntry(m0);
    const Program p = pb.build();
    const ProgramFacts pf = buildProgramFacts(p);

    EXPECT_TRUE(pf.possibleEdge(p.block(m0), p.block(ca)));
    // The return conservatively targets every call fall-through.
    EXPECT_TRUE(pf.possibleEdge(p.block(ca), p.block(m1)));
    EXPECT_FALSE(pf.possibleEdge(p.block(m1), p.block(ca)));
}

TEST(MemberFactsTest, InducedSubgraphCycle)
{
    const Program p = buildLoopProgram();
    const ProgramFacts pf = buildProgramFacts(p);

    // {a, b, c} closes the loop; {a, b} does not.
    const MemberFacts cyc = buildMemberFacts(
        pf, {&p.block(0), &p.block(1), &p.block(2)});
    EXPECT_TRUE(cyc.hasCycle);

    const MemberFacts lin =
        buildMemberFacts(pf, {&p.block(0), &p.block(1)});
    EXPECT_FALSE(lin.hasCycle);
    EXPECT_TRUE(lin.cfg.reachable[1]);
}

TEST(CfgFactsDegenerateTest, SingleBlockProgram)
{
    ProgramBuilder pb;
    pb.beginFunction("main");
    const BlockId a = pb.block(3);
    pb.halt(a);
    pb.setEntry(a);
    const Program p = pb.build();
    const ProgramFacts pf = buildProgramFacts(p);

    EXPECT_EQ(pf.graph.size(), 1u);
    EXPECT_EQ(pf.graph.edgeCount(), 0u);
    EXPECT_EQ(pf.cfg.reachableCount, 1u);
    EXPECT_EQ(pf.cfg.idom[0], 0u);
    EXPECT_TRUE(pf.cfg.loops.empty());
    EXPECT_FALSE(pf.cfg.sccIsCycle[pf.cfg.sccId[0]]);
}

TEST(CfgFactsDegenerateTest, SelfLoopBlock)
{
    // A latch that targets itself: a one-node cycle and a natural
    // loop whose body is just the header.
    ProgramBuilder pb;
    pb.beginFunction("main");
    const BlockId a = pb.block(2);
    const BlockId b = pb.block(1);
    pb.loopTo(a, a, 3, 3);
    pb.halt(b);
    pb.setEntry(a);
    const Program p = pb.build();
    const ProgramFacts pf = buildProgramFacts(p);

    EXPECT_TRUE(pf.possibleEdge(p.block(a), p.block(a)));
    EXPECT_TRUE(pf.cfg.sccIsCycle[pf.cfg.sccId[a]]);
    ASSERT_EQ(pf.cfg.loops.size(), 1u);
    EXPECT_EQ(pf.cfg.loops[0].header, static_cast<std::uint32_t>(a));
    EXPECT_EQ(pf.cfg.loops[0].body,
              (std::vector<std::uint32_t>{a}));
}

TEST(CfgFactsDegenerateTest, UnreachableOnlyFunction)
{
    // A second function no call ever enters: reachability, idom and
    // loops must all treat its blocks as off the rooted CFG.
    ProgramBuilder pb;
    pb.beginFunction("main");
    const BlockId a = pb.block(2);
    pb.halt(a);
    pb.beginFunction("dead");
    const BlockId u0 = pb.block(2);
    const BlockId u1 = pb.block(1);
    const BlockId u2 = pb.block(1);
    pb.loopTo(u1, u0, 2, 2);
    pb.halt(u2);
    pb.setEntry(a);
    const Program p = pb.build();
    const ProgramFacts pf = buildProgramFacts(p);

    EXPECT_FALSE(pf.cfg.reachable[u0]);
    EXPECT_FALSE(pf.cfg.reachable[u1]);
    EXPECT_EQ(pf.cfg.idom[u0], invalidNode);
    EXPECT_EQ(pf.cfg.reachableCount, 1u);
    // Natural loops are defined over reachable back edges only.
    EXPECT_TRUE(pf.cfg.loops.empty());
    // The dead cycle still shows up in the (whole-graph) SCCs.
    EXPECT_TRUE(pf.cfg.sccIsCycle[pf.cfg.sccId[u0]]);
}

TEST(CfgFactsDegenerateTest, IrreducibleCycleHasNoNaturalLoop)
{
    // 0 -> {1, 2}, 1 <-> 2: the cycle {1, 2} has two entries, so
    // neither node dominates the other — an irreducible region with
    // a cyclic SCC but no natural loop.
    DiGraph g(3);
    g.addEdge(0, 1);
    g.addEdge(0, 2);
    g.addEdge(1, 2);
    g.addEdge(2, 1);
    const CfgFacts f = CfgFacts::compute(g, 0);

    EXPECT_EQ(f.sccId[1], f.sccId[2]);
    EXPECT_TRUE(f.sccIsCycle[f.sccId[1]]);
    EXPECT_TRUE(f.loops.empty());
    EXPECT_EQ(f.idom[1], 0u);
    EXPECT_EQ(f.idom[2], 0u);
}

TEST(CfgFactsPropertyTest, InvariantsHoldOverFuzzCorpus)
{
    // Fixed-seed GenSpec corpus: structural invariants of the facts
    // must hold for every generated program shape.
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        testing::GenSpec spec = testing::GenSpec::fromSeed(seed);
        spec.clamp();
        const Program p = testing::generateProgram(spec);
        const ProgramFacts pf = buildProgramFacts(p);
        const CfgFacts &f = pf.cfg;
        const std::uint32_t n = pf.graph.size();
        SCOPED_TRACE("seed " + std::to_string(seed));

        // RPO enumerates exactly the reachable nodes, entry first.
        ASSERT_EQ(f.rpo.size(), f.reachableCount);
        if (!f.rpo.empty()) {
            EXPECT_EQ(f.rpo.front(), f.entry);
        }
        std::uint32_t reachable = 0;
        for (std::uint32_t u = 0; u < n; ++u)
            reachable += f.reachable[u] ? 1 : 0;
        EXPECT_EQ(reachable, f.reachableCount);

        // The entry dominates itself; unreachable nodes have no
        // dominator; every reachable non-entry's idom is reachable.
        EXPECT_EQ(f.idom[f.entry], f.entry);
        for (std::uint32_t u = 0; u < n; ++u) {
            if (!f.reachable[u]) {
                EXPECT_EQ(f.idom[u], invalidNode);
                continue;
            }
            if (u != f.entry) {
                ASSERT_NE(f.idom[u], invalidNode);
                EXPECT_TRUE(f.reachable[f.idom[u]]);
                EXPECT_TRUE(f.dominates(f.idom[u], u));
            }
        }

        // Predecessor lists agree with the edge relation.
        for (std::uint32_t u = 0; u < n; ++u)
            for (const std::uint32_t v : pf.graph.succs(u))
                EXPECT_NE(std::find(f.preds[v].begin(),
                                    f.preds[v].end(), u),
                          f.preds[v].end());

        // Loop headers dominate their bodies, bodies are cyclic.
        for (const NaturalLoop &loop : f.loops) {
            EXPECT_TRUE(f.reachable[loop.header]);
            for (const std::uint32_t node : loop.body) {
                EXPECT_TRUE(f.dominates(loop.header, node));
                EXPECT_EQ(f.sccId[node], f.sccId[loop.header]);
            }
            if (loop.body.size() > 1) {
                EXPECT_TRUE(f.sccIsCycle[f.sccId[loop.header]]);
            }
        }
    }
}

} // namespace
} // namespace analysis
} // namespace rsel
