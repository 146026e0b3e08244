/**
 * @file
 * Static verifier passes over a guest Program.
 *
 * Error-severity passes (a violation means the program is malformed
 * and the simulator's behaviour on it is undefined):
 *
 *  - `branch-targets`     static taken targets of direct branches
 *                         resolve to block starts; declared indirect
 *                         targets are in range.
 *  - `fallthrough`        every fall-through-capable terminator has
 *                         a block at its fall-through address.
 *  - `behaviors`          conditional blocks carry a conditional
 *                         behaviour (with at least one phase
 *                         probability), indirect blocks carry a
 *                         non-empty target set with matching weight
 *                         vectors.
 *  - `entry`              the program entry exists and starts a
 *                         function.
 *  - `call-graph-consistency`
 *                         every call terminator targets a function
 *                         entry (direct target and declared indirect
 *                         targets alike) and its return edge lands
 *                         at the caller's own layout successor.
 *
 * Warning-severity lints (legal but suspicious; reported, never
 * fatal):
 *
 *  - `unreachable-code`   blocks no possible edge path reaches from
 *                         the entry.
 *  - `dead-function`      functions none of whose blocks are
 *                         reachable.
 *  - `no-exit-scc`        a reachable strongly connected component
 *                         with no leaving edge and no Halt — the
 *                         program can statically never terminate.
 *  - `interprocedural-reachability`
 *                         functions the entry function cannot reach
 *                         through call edges (candidates the
 *                         cross-call selector can never grow into).
 */

#ifndef RSEL_ANALYSIS_PROGRAM_VERIFIER_HPP
#define RSEL_ANALYSIS_PROGRAM_VERIFIER_HPP

#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/program_facts.hpp"

namespace rsel {
namespace analysis {

/** Which program passes to run. */
struct ProgramVerifyOptions
{
    /** Run the warning-severity lint passes too. */
    bool lints = true;
    /** When non-empty, run only the named passes. */
    std::vector<std::string> only;
    /** Skip the named passes (applied after `only`). */
    std::vector<std::string> skip;

    /** True if the named pass should run under this filter. */
    bool passEnabled(const std::string &pass) const;
};

/** Runs the Program pass set on facts it builds for the run. */
class ProgramVerifier
{
  public:
    /** Run all (enabled) passes on `prog`, reporting into `diag`. */
    static void run(const Program &prog, DiagnosticEngine &diag,
                    const ProgramVerifyOptions &opts = {});

    /** Names of every pass, error passes first. */
    static const std::vector<std::string> &passNames();
};

} // namespace analysis
} // namespace rsel

#endif // RSEL_ANALYSIS_PROGRAM_VERIFIER_HPP
