/**
 * @file
 * Unit tests for the analysis layer's graph core: DiGraph,
 * reachability, SCCs, and the Program/region adapters of
 * program_facts.
 */

#include <gtest/gtest.h>

#include <vector>

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

TEST(CfgFactsTest, ReachabilityFollowsEdgesFromTheEntry)
{
    // 0 -> {1, 2}; {1, 2} -> 3; node 4 is disconnected, and 5 only
    // reaches into the graph.
    DiGraph g(6);
    g.addEdge(0, 1);
    g.addEdge(0, 2);
    g.addEdge(1, 3);
    g.addEdge(2, 3);
    g.addEdge(5, 3);
    const CfgFacts f = CfgFacts::compute(g, 0);
    EXPECT_EQ(f.reachable,
              (std::vector<std::uint8_t>{1, 1, 1, 1, 0, 0}));

    // Rooted elsewhere, only what that root reaches.
    EXPECT_EQ(CfgFacts::compute(g, 5).reachable,
              (std::vector<std::uint8_t>{0, 0, 0, 1, 0, 1}));
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
    // The a..c loop shows up as one cyclic SCC with an exit to d.
    EXPECT_TRUE(pf.cfg.sccIsCycle[pf.cfg.sccId[0]]);
    EXPECT_EQ(pf.cfg.sccId[0], pf.cfg.sccId[2]);
    EXPECT_TRUE(pf.cfg.sccHasExit[pf.cfg.sccId[0]]);
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
    EXPECT_TRUE(pf.cfg.reachable[0]);
    EXPECT_EQ(pf.cfg.sccCount, 1u);
    EXPECT_FALSE(pf.cfg.sccIsCycle[pf.cfg.sccId[0]]);
}

TEST(CfgFactsDegenerateTest, SelfLoopBlock)
{
    // A latch that targets itself: a one-node cycle.
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
    EXPECT_NE(pf.cfg.sccId[a], pf.cfg.sccId[b]);
}

TEST(CfgFactsDegenerateTest, UnreachableOnlyFunction)
{
    // A second function no call ever enters: reachability must
    // treat its blocks as off the rooted CFG.
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
    EXPECT_FALSE(pf.cfg.reachable[u2]);
    // The dead cycle still shows up in the (whole-graph) SCCs.
    EXPECT_TRUE(pf.cfg.sccIsCycle[pf.cfg.sccId[u0]]);
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

        // Reachability is closed under the edge relation and holds
        // the entry; SCC ids are dense, and a component that cycles
        // or exits does so through an edge.
        ASSERT_EQ(f.reachable.size(), n);
        EXPECT_TRUE(f.reachable[p.entry()]);
        std::vector<std::uint8_t> cycles(f.sccCount, 0);
        std::vector<std::uint8_t> exits(f.sccCount, 0);
        for (std::uint32_t u = 0; u < n; ++u) {
            ASSERT_LT(f.sccId[u], f.sccCount);
            for (const std::uint32_t v : pf.graph.succs(u)) {
                if (f.reachable[u]) {
                    EXPECT_TRUE(f.reachable[v]) << u << " -> " << v;
                }
                if (f.sccId[u] == f.sccId[v])
                    cycles[f.sccId[u]] = 1;
                else
                    exits[f.sccId[u]] = 1;
            }
        }
        for (std::uint32_t id = 0; id < f.sccCount; ++id) {
            EXPECT_EQ(f.sccIsCycle[id], cycles[id]) << "scc " << id;
            EXPECT_EQ(f.sccHasExit[id], exits[id]) << "scc " << id;
        }
    }
}

} // namespace
} // namespace analysis
} // namespace rsel
