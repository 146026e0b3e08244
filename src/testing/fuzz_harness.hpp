/**
 * @file
 * The deterministic fuzzing harness.
 *
 * Drives the differential oracle over a corpus of seeds: each seed
 * maps to a GenSpec (GenSpec::fromSeed), each spec to a generated
 * program and a full cross-selector differential check. Checks run
 * in parallel on a thread pool, but results are reported in seed
 * order and shrinking is serial, so the summary is identical for
 * any job count — determinism is part of the contract.
 *
 * On failure the harness greedily shrinks the spec and emits a
 * complete reproducer: the minimal spec string, the failure, the
 * generated program text, and the rselect-fuzz command line that
 * replays it.
 */

#ifndef RSEL_TESTING_FUZZ_HARNESS_HPP
#define RSEL_TESTING_FUZZ_HARNESS_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "testing/differential.hpp"
#include "testing/gen_spec.hpp"

namespace rsel {
namespace testing {

/** Configuration of one fuzz run. */
struct FuzzOptions
{
    /** Number of consecutive seeds to fuzz. */
    std::uint64_t seeds = 25;
    /** First seed. */
    std::uint64_t startSeed = 1;
    /** Worker threads; 0 = hardware concurrency, 1 = serial. */
    std::size_t jobs = 0;
    /** Override events per run (0 = keep each spec's own). */
    std::uint64_t events = 0;
    /** Optional selector sabotage (oracle self-test). */
    BrokenMode broken = BrokenMode::None;
    /** Run the static verifier on every emitted region (--verify). */
    bool verify = false;
    /**
     * After a clean differential, additionally validate the
     * interprocedural analysis (call-graph soundness, return-edge
     * layout, duplication bounds) against the counted dynamic call
     * behaviour of every seed (--interprocedural).
     */
    bool interprocedural = false;
    /** Shrink failing specs (reproducers are built either way). */
    bool shrink = true;
    /** Shrink at most this many failures (the rest report as-is). */
    std::uint32_t maxShrinks = 3;
    /**
     * Fault-fuzzing mode: pair every seed with its own fault plan
     * (FaultPlan::fromSeed of the same seed) and run the whole
     * differential matrix under injected faults.
     */
    bool faultFuzz = false;
    /** Fixed fault plan applied to every seed (when armed). */
    resilience::FaultPlan faults;
};

/** One failing seed, with its reproducer. */
struct FuzzFailure
{
    /** The corpus seed (0 for a spec given directly). */
    std::uint64_t seed = 0;
    /** The spec derived from the seed. */
    GenSpec spec;
    /** Failure at the original spec. */
    std::string error;
    /** Fault plan active for this seed (disarmed when fault-free). */
    resilience::FaultPlan faults;
    /** True if the shrinker ran for this failure. */
    bool shrunk = false;
    /** Minimal still-failing spec. */
    GenSpec shrunkSpec;
    /** Failure at the minimal spec. */
    std::string shrunkError;
    /** Static block count of the minimal spec's program. */
    std::uint32_t shrunkBlocks = 0;
    /** saveProgram text of the minimal program. */
    std::string reproProgram;
    /** Command line that replays the minimal failure. */
    std::string cliLine;
};

/** Outcome of a fuzz run; identical for any job count. */
struct FuzzSummary
{
    std::uint64_t seedsRun = 0;
    std::uint64_t failures = 0;
    /** Every failure, in seed order. */
    std::vector<FuzzFailure> detail;
};

/** Outcome of checking one spec. */
struct SpecCheck
{
    /** Static block count of the spec's program. */
    std::uint32_t programBlocks = 0;
    /** The failure with its reproducer; empty when every check held. */
    std::optional<FuzzFailure> failure;
};

/**
 * Check one spec under `opts` with fault plan `faults`: the
 * differential oracle, then, when that is clean and
 * `opts.interprocedural` is set, the interprocedural validation. A
 * failure comes back with its reproducer: shrunk when `opts.shrink`
 * is set and the shrinker can replay the error, plus the repro
 * program and the rselect-fuzz command line. Its `seed` is 0.
 */
SpecCheck checkSpec(const GenSpec &spec, const FuzzOptions &opts,
                    const resilience::FaultPlan &faults);

/** Run the corpus described by `opts`. */
FuzzSummary runFuzz(const FuzzOptions &opts);

} // namespace testing
} // namespace rsel

#endif // RSEL_TESTING_FUZZ_HARNESS_HPP
