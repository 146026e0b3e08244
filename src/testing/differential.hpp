/**
 * @file
 * The cross-selector differential oracle.
 *
 * One differential check takes a GenSpec and runs the full matrix:
 *
 *  1. Generator determinism — the spec must yield a byte-identical
 *     program twice, and the program must survive a save → load →
 *     save round trip unchanged.
 *  2. A reference architectural run (raw Executor, no optimizer)
 *     records the trace and the stream hash.
 *  3. Every shipped selection algorithm (allSelectors) runs live
 *     under an InvariantSink; its architectural stream must equal
 *     the reference bit-for-bit (transparency across selectors).
 *  4. Each algorithm then replays the recorded trace; the replayed
 *     SimResult must be field-for-field identical to the live one
 *     (record → replay round trip).
 *  5. All selectors must agree on the architectural facts (events,
 *     total instructions) even while disagreeing on regions.
 *
 * Optionally an intentionally broken selector joins the matrix
 * (BrokenMode) to prove the oracle actually rejects bad selectors.
 */

#ifndef RSEL_TESTING_DIFFERENTIAL_HPP
#define RSEL_TESTING_DIFFERENTIAL_HPP

#include <string>

#include "metrics/sim_result.hpp"
#include "resilience/fault_plan.hpp"
#include "testing/gen_spec.hpp"

namespace rsel {
namespace testing {

/**
 * Test-only selector sabotage, for validating the oracle itself.
 *
 * Disconnect and Resubmit are caught by the dynamic invariant
 * oracle. Alias and Noncyclic are *dynamically invisible* — the
 * simulated execution is bit-identical — and only the static
 * verifier (analysis::RegionVerifier) rejects them, so those two
 * modes always run with verify-on-submit enabled.
 */
enum class BrokenMode : std::uint8_t {
    None,       ///< No sabotage.
    Disconnect, ///< Append a CFG-disconnected block to each trace.
    Resubmit,   ///< Re-emit an already-installed region spec.
    Alias,      ///< Swap members for same-id blocks of a program copy.
    Noncyclic,  ///< Truncate LEI traces to an inexcusably acyclic prefix.
};

/** Mode name as accepted by --break-selector. */
const char *brokenModeName(BrokenMode mode);

/** Parse a --break-selector argument. @throws FatalError. */
BrokenMode parseBrokenMode(const std::string &text);

/**
 * Deterministic text fingerprint of a SimResult: every counter the
 * record→replay round trip must preserve, one "key=value" line each.
 * Two runs are considered identical iff their fingerprints match.
 */
std::string resultFingerprint(const SimResult &result);

/** Outcome of one differential check. */
struct DiffReport
{
    /** Empty = all oracles passed; else the first failure. */
    std::string error;
    /** Static block count of the generated program. */
    std::uint32_t programBlocks = 0;
};

/**
 * Run the full differential matrix for `spec`. Never throws: all
 * failures (including FatalError / PanicError / InvariantViolation
 * from any layer) are captured in the report.
 *
 * The generated program is well formed by construction
 * (ProgramBuilder::build() rejects anything else). With `verify`
 * set, every live and replay system runs with verify-on-submit, so
 * each emitted region passes the static RegionVerifier before it is
 * cached.
 *
 * An armed `faults` plan is injected into every live and replay
 * system (the reference architectural run stays fault-free): the
 * whole oracle matrix — transparency, conservation, record→replay
 * fingerprint equality — must hold under the faulted runs too, which
 * is exactly the graceful-degradation guarantee.
 */
DiffReport runDifferential(const GenSpec &spec,
                           BrokenMode broken = BrokenMode::None,
                           bool verify = false,
                           const resilience::FaultPlan &faults = {});

} // namespace testing
} // namespace rsel

#endif // RSEL_TESTING_DIFFERENTIAL_HPP
