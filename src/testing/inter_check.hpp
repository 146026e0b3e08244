/**
 * @file
 * Interprocedural-analysis-vs-simulator validation: replay the
 * deterministic block stream, reconstruct the dynamic call behaviour
 * with a shadow call stack, and check every *sound* claim of the
 * call-graph layer (src/analysis/call_graph, inter_facts) against
 * it:
 *
 *  - every dynamic call transfer at a site lands in a function of
 *    the site's static callee set (one-step callee soundness; with
 *    the closure-transitivity unit test this makes the call closure
 *    a sound bound on call-chain reachability);
 *  - every dynamic return lands exactly at the fall-through block of
 *    the site on top of the shadow stack (the return edge that
 *    ProgramBuilder::build() guarantees by checking each call's
 *    layout successor);
 *  - dynamically observed per-site callee instruction mass never
 *    exceeds the static callee mass, which never exceeds the site's
 *    duplication-growth bound (`InterFacts::closureInstsOf`);
 *  - the counted stream cross-ties to every shipped selector's
 *    SimResult (the stream is selector-independent, so all 7 runs
 *    must have consumed exactly the counted number of events).
 */

#ifndef RSEL_TESTING_INTER_CHECK_HPP
#define RSEL_TESTING_INTER_CHECK_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/inter_facts.hpp"
#include "program/program.hpp"
#include "testing/gen_spec.hpp"

namespace rsel {
namespace testing {

/** Dynamic call-behaviour ground truth plus the check outcome. */
struct InterValidation
{
    /** First violated sound claim ("interprocedural: ..."), or "". */
    std::string error;

    /** Events the counting replay delivered. */
    std::uint64_t streamEvents = 0;
    /** Dynamic call transfers (direct + indirect). */
    std::uint64_t callTransfers = 0;
    /** Dynamic return transfers. */
    std::uint64_t returnTransfers = 0;
    /** Deepest shadow-stack depth observed. */
    std::uint64_t maxDynamicDepth = 0;
    /** Distinct functions entered via a call transfer. */
    std::uint32_t dynCalledFuncs = 0;
    /** Call sites that fired at least once. */
    std::uint32_t sitesExecuted = 0;
    /** Dynamic calls per call site (CallGraph::sites order). */
    std::vector<std::uint64_t> siteCalls;

    /** Σ over executed sites of observed-callee instruction mass. */
    std::uint64_t observedCalleeInsts = 0;
    /** Σ over executed sites of static callee instruction mass. */
    std::uint64_t staticCalleeInsts = 0;
    /** Σ over executed sites of the duplication-growth bound. */
    std::uint64_t dupGrowthBoundInsts = 0;
};

/**
 * Replay `prog` deterministically (`events` block events, executor
 * seed `seed`), check every sound interprocedural claim, and
 * cross-tie the stream against all shipped selectors.
 */
InterValidation validateInterprocedural(const Program &prog,
                                        std::uint64_t events,
                                        std::uint64_t seed);

/**
 * Fuzz-harness form: generate the spec's program and validate with
 * the spec's own events/execSeed. Returns the first violation
 * ("interprocedural: ..."), or "" when every claim held.
 */
std::string checkSpecInterprocedural(const GenSpec &spec);

} // namespace testing
} // namespace rsel

#endif // RSEL_TESTING_INTER_CHECK_HPP
