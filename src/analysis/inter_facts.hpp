/**
 * @file
 * Interprocedural facts: per-function summaries propagated bottom-up
 * over the call-graph condensation.
 *
 * Size/shape facts (`FuncSummary`) are local per function; the
 * transitive facts (which functions a function can reach through
 * calls, and the instruction mass of that closure) follow the call
 * graph: the closure of f is {f} united with the closures of its
 * callees. One sweep over the call graph's bottom-up order computes
 * it exactly, recursion included: every member of an SCC reaches
 * every other, so an SCC's closure is its members plus the closures
 * of its callees outside the SCC, and those come earlier in the
 * order, already final. That covers every concrete call chain,
 * including chains that wind through recursion an unbounded number
 * of times.
 *
 * The closure is the sound currency of the layer: any inlining or
 * cross-call region growth at a call site can duplicate at most the
 * closure of its callees (you cannot reach code outside the closure
 * by following calls), which `closureInstsOf` turns into the site's
 * duplication-growth bound.
 */

#ifndef RSEL_ANALYSIS_INTER_FACTS_HPP
#define RSEL_ANALYSIS_INTER_FACTS_HPP

#include <cstdint>
#include <vector>

#include "analysis/call_graph.hpp"

namespace rsel {
namespace analysis {

/** Bottom-up summary of one function. */
struct FuncSummary
{
    FuncId func = invalidFunc;
    /** Blocks in the function's layout range. */
    std::uint32_t blockCount = 0;
    /** Static instructions of the function body. */
    std::uint64_t insts = 0;
    /** Call sites inside the function. */
    std::uint32_t callSites = 0;
    /** Call sites elsewhere that may target the function. */
    std::uint32_t fanIn = 0;
    /** True iff the function contains no call sites. */
    bool leaf = false;
    /** True iff the function sits on a call cycle. */
    bool recursive = false;
    /** |closure(f)|: functions reachable from f via calls, incl f. */
    std::uint32_t closureFuncs = 0;
    /** Static instruction mass of the closure (sound duplication
     *  upper bound for inlining f, recursion collapsed to one copy
     *  per function — the code-cache cost model, where a function
     *  body is materialized at most once per inlining decision). */
    std::uint64_t closureInsts = 0;
};

/** Interprocedural facts of one Program. */
struct InterFacts
{
    CallGraph callGraph;
    /** Summary per FuncId. */
    std::vector<FuncSummary> summaries;
    /** Call closure per FuncId: closure[f][g] iff g is reachable
     *  from f through calls (f itself included). */
    std::vector<std::vector<bool>> closure;

    /** True iff `to` is in the call closure of `from`. */
    bool inClosure(FuncId from, FuncId to) const
    {
        return from < closure.size() && to < closure[from].size() &&
               closure[from][to];
    }

    /**
     * Sound duplication-growth bound of one call site: the
     * instruction mass of the union of its callees' call closures,
     * each function counted once. No inline at the site can copy
     * code outside that union.
     */
    std::uint64_t closureInstsOf(const CallSite &site) const;
};

/** Build the interprocedural facts of a program. */
InterFacts buildInterFacts(const Program &prog);

} // namespace analysis
} // namespace rsel

#endif // RSEL_ANALYSIS_INTER_FACTS_HPP
