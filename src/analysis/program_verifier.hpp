/**
 * @file
 * Static lints over a guest Program.
 *
 * Structure is not checked here: ProgramBuilder::build() is the one
 * gate on it, so every Program this runs on already has each target
 * a block, each call target a function entry, a behaviour on each
 * conditional and indirect block and a same-function successor after
 * each block that falls through or calls. What is left is legal but
 * suspicious, and reported at warning severity, never fatal:
 *
 *  - `entry`              the program entry starts no function.
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

#include "analysis/diagnostics.hpp"
#include "analysis/program_facts.hpp"

namespace rsel {
namespace analysis {

/** Runs the Program lints on facts it builds for the run. */
class ProgramVerifier
{
  public:
    /**
     * Run every lint on `prog`, reporting into `diag`.
     * @pre `prog` came from ProgramBuilder::build().
     */
    static void run(const Program &prog, DiagnosticEngine &diag);
};

} // namespace analysis
} // namespace rsel

#endif // RSEL_ANALYSIS_PROGRAM_VERIFIER_HPP
