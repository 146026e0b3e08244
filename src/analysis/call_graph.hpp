/**
 * @file
 * The interprocedural call graph: functions as nodes, call sites as
 * edges.
 *
 * Built from the call/return terminators of a `Program`: every
 * `Call` terminator contributes the edge caller ->
 * owning-function-of-target, every `IndirectCall` one edge per
 * declared target. `CfgFacts::compute` over the
 * function-level graph gives reachability from the entry function
 * and the Tarjan SCC condensation, so recursion and mutual recursion
 * collapse into single condensation nodes and the bottom-up order is
 * well defined even for cyclic call graphs.
 *
 * The bottom-up order relies on a property of the iterative Tarjan
 * in `CfgFacts`: component ids are assigned when a component is
 * *completed*, and a component can only complete after every
 * component it reaches has completed. Ascending `sccId` is therefore
 * a reverse topological order of the condensation — callees before
 * callers — which is exactly the order summary propagation wants.
 *
 * Everything here is iterative (worklists, explicit stacks): the
 * analyzer must survive adversarial call graphs — long chains, deep
 * mutual-recursion rings — without growing the host stack
 * (`misc-no-recursion` is enforced by clang-tidy).
 */

#ifndef RSEL_ANALYSIS_CALL_GRAPH_HPP
#define RSEL_ANALYSIS_CALL_GRAPH_HPP

#include <cstdint>
#include <vector>

#include "analysis/cfg_facts.hpp"
#include "program/program.hpp"

namespace rsel {
namespace analysis {

/** One call terminator: where it sits and what it can reach. */
struct CallSite
{
    /** The block whose terminator is the call. */
    BlockId block = invalidBlock;
    /** Function owning the call block. */
    FuncId caller = invalidFunc;
    /** Possible callees, deduplicated, ascending. */
    std::vector<FuncId> callees;
    /** Fall-through block the matching return must land at. */
    BlockId returnBlock = invalidBlock;
};

/** Function-level call graph plus its condensation facts. */
struct CallGraph
{
    const Program *prog = nullptr;
    /** Function owning Program::entry(). */
    FuncId entryFunc = invalidFunc;
    /** Node f == FuncId f; edge caller -> callee. */
    DiGraph graph{0};
    /** Facts of `graph` rooted at entryFunc: reachability and the
     *  SCC condensation. */
    CfgFacts cfg;
    /** Every call site in the program, in block-id order. */
    std::vector<CallSite> sites;
    /** Per function: indices into `sites` of its call sites. */
    std::vector<std::vector<std::uint32_t>> sitesOf;
    /** Per function: number of call sites that may target it. */
    std::vector<std::uint32_t> fanIn;
    /** Per function: 1 iff it sits on a call cycle (its SCC cycles). */
    std::vector<std::uint8_t> recursive;
    /**
     * Every FuncId, callees before callers across SCCs (ascending
     * Tarjan completion id; members of one SCC are adjacent).
     */
    std::vector<FuncId> bottomUp;

    /** True iff f is reachable from the entry function via calls. */
    bool callReachable(FuncId f) const
    {
        return f < cfg.reachable.size() && cfg.reachable[f] != 0;
    }
};

/** Build the call graph of a program. */
CallGraph buildCallGraph(const Program &prog);

} // namespace analysis
} // namespace rsel

#endif // RSEL_ANALYSIS_CALL_GRAPH_HPP
