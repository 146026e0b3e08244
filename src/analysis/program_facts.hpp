/**
 * @file
 * Static facts of one guest Program and of one region member list.
 *
 * `ProgramFacts` adapts a `Program` onto the node-index `DiGraph`:
 * one node per basic block, one edge per *possible* dynamic control
 * transfer — fall-through adjacency, static taken targets, declared
 * indirect targets, and the conservative return edge to every call
 * fall-through (the same edge relation as the testing layer's
 * independent `CfgOracle`, recomputed here from first principles so
 * the analysis layer does not depend on the testing layer). On top
 * of the graph sit the shared graph facts (`CfgFacts`): dominator
 * tree, reachability, RPO, SCCs, natural loops, predecessor lists.
 *
 * `MemberFacts` is the induced possible-edge subgraph over a region
 * member list — what the region passes run on.
 *
 * Both are plain values. Whoever needs them builds them from the
 * program they describe and keeps them no longer than that program:
 * a verify-on-submit system builds its program's facts once, a
 * program verifier run builds its own.
 */

#ifndef RSEL_ANALYSIS_PROGRAM_FACTS_HPP
#define RSEL_ANALYSIS_PROGRAM_FACTS_HPP

#include <vector>

#include "analysis/cfg_facts.hpp"
#include "program/program.hpp"

namespace rsel {
namespace analysis {

/** Static facts about one Program. */
struct ProgramFacts
{
    const Program *prog = nullptr;
    /** Possible-dynamic-CFG: node i == BlockId i. */
    DiGraph graph{0};
    /** Graph facts rooted at the program entry. */
    CfgFacts cfg;

    /** True if control can transfer from `from` to `to` dynamically. */
    bool possibleEdge(const BasicBlock &from, const BasicBlock &to) const
    {
        return graph.hasEdge(from.id(), to.id());
    }
};

/** Build the facts of one program. */
ProgramFacts buildProgramFacts(const Program &prog);

/**
 * Induced possible-edge subgraph over a region member list. Node i
 * is members[i]; the entry is node 0.
 */
struct MemberFacts
{
    std::vector<const BasicBlock *> members;
    DiGraph graph{0};
    /** Graph facts rooted at the region entry (node 0). */
    CfgFacts cfg;
    /** True if the induced subgraph contains any cycle. */
    bool hasCycle = false;
};

/** Build the induced-subgraph facts for one member list. */
MemberFacts buildMemberFacts(
    const ProgramFacts &pf,
    const std::vector<const BasicBlock *> &members);

} // namespace analysis
} // namespace rsel

#endif // RSEL_ANALYSIS_PROGRAM_FACTS_HPP
