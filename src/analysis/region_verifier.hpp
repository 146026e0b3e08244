/**
 * @file
 * Static verifier passes over selector-emitted regions.
 *
 * A region is checked twice on its way into the code cache: once as
 * the raw `RegionSpec` the selector handed back (before `Region`
 * construction — so a malformed spec is reported instead of hitting
 * a runtime assertion), and once as the constructed `Region` (the
 * exit-stub accounting cross-check needs the constructed object).
 *
 * Error-severity passes:
 *
 *  - `region-members`         non-empty, no duplicate members, and
 *                             every member pointer is the program's
 *                             own block object for its id — the
 *                             pass that catches block-id aliasing
 *                             (a selector handing blocks of a
 *                             different Program copy).
 *  - `region-single-entrance` the region's entry address is not
 *                             already a live cached entrance
 *                             (single-entrance property, paper
 *                             Section 2.2).
 *  - `region-connectivity`    trace members chain along possible
 *                             CFG edges; multi-path members are all
 *                             reachable from the entry within the
 *                             member set (paper Figure 13's region
 *                             extraction keeps only connected
 *                             blocks).
 *  - `region-exit-stubs`      the constructed Region's exit-stub
 *                             count and spans-cycle flag match an
 *                             independent recomputation from the
 *                             member list.
 *  - `lei-cyclicity`          a plain LEI trace must span a cycle
 *                             (paper Figures 5/6: LEI promotes
 *                             last-executed *iterations*), unless a
 *                             documented truncation exculpates it —
 *                             the trace stopped at an existing
 *                             region, at the size limit, or at a
 *                             history gap (non-fall-through tail or
 *                             dangling fall-through address).
 *
 * The `duplication-accounting` pass is a whole-cache check run at
 * the end of a simulation: it recomputes the paper's duplicated-
 * instruction, expansion, and exit-stub totals from the cache
 * contents and cross-checks the `SimResult`.
 */

#ifndef RSEL_ANALYSIS_REGION_VERIFIER_HPP
#define RSEL_ANALYSIS_REGION_VERIFIER_HPP

#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/program_facts.hpp"
#include "metrics/sim_result.hpp"
#include "runtime/code_cache.hpp"
#include "selection/selector.hpp"

namespace rsel {
namespace analysis {

/** Context a region is verified in (the program is the facts'). */
struct RegionVerifyContext
{
    /** The code cache at submission time (may be null). */
    const CodeCache *cache = nullptr;
    /** Name of the emitting selector ("LEI", "NET", ...). */
    std::string selector;
    /**
     * LEI's maximum trace size, for the size-limit exculpation of
     * the cyclicity pass; 0 = unknown (exculpation unavailable).
     */
    std::uint32_t maxTraceInsts = 0;
    /** Region id the spec will receive (for diagnostics). */
    RegionId id = invalidRegion;
};

/** Runs the region pass set against one program's facts; the
 *  region's blocks must belong to that program. */
class RegionVerifier
{
  public:
    explicit RegionVerifier(const ProgramFacts &facts) : facts_(facts)
    {
    }

    /** Verify a raw selector-emitted spec (pre-construction). */
    void runOnSpec(const RegionSpec &spec,
                   const RegionVerifyContext &ctx,
                   DiagnosticEngine &diag) const;

    /** Verify a constructed Region (adds the exit-stub pass). */
    void runOnRegion(const Region &region,
                     const RegionVerifyContext &ctx,
                     DiagnosticEngine &diag) const;

    /** Names of every region pass, including the whole-cache
     *  duplication accountant. */
    static const std::vector<std::string> &passNames();

  private:
    const ProgramFacts &facts_;
};

/**
 * Cross-check the SimResult's static duplication/expansion totals
 * against an independent recomputation from the cache contents.
 * Reports under pass "duplication-accounting".
 */
void checkDuplicationAccounting(const Program &prog,
                                const CodeCache &cache,
                                const SimResult &result,
                                DiagnosticEngine &diag);

} // namespace analysis
} // namespace rsel

#endif // RSEL_ANALYSIS_REGION_VERIFIER_HPP
