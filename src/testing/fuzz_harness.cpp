#include "testing/fuzz_harness.hpp"

#include <memory>
#include <sstream>

#include "driver/thread_pool.hpp"
#include "program/trace_io.hpp"
#include "testing/inter_check.hpp"
#include "testing/random_program.hpp"
#include "testing/shrinker.hpp"

namespace rsel {
namespace testing {

namespace {

/** The rselect-fuzz command line replaying `spec` under `opts`. */
std::string
fuzzCliLine(const GenSpec &spec, const FuzzOptions &opts,
            const resilience::FaultPlan &faults)
{
    std::string line = "rselect-fuzz --spec '" + spec.toString() + "'";
    if (opts.broken != BrokenMode::None)
        line += std::string(" --break-selector ") +
                brokenModeName(opts.broken);
    if (opts.verify)
        line += " --verify";
    if (opts.interprocedural)
        line += " --interprocedural";
    if (faults.armed())
        line += " --fault-spec '" + faults.toString() + "'";
    return line;
}

} // namespace

SpecCheck
checkSpec(const GenSpec &spec, const FuzzOptions &opts,
          const resilience::FaultPlan &faults)
{
    DiffReport report =
        runDifferential(spec, opts.broken, opts.verify, faults);
    // The interprocedural claims assume fault-free runs; a fault
    // plan only affects the differential leg.
    if (report.error.empty() && opts.interprocedural)
        report.error = checkSpecInterprocedural(spec);
    SpecCheck check;
    check.programBlocks = report.programBlocks;
    if (report.error.empty())
        return check;

    FuzzFailure &failure = check.failure.emplace();
    failure.spec = spec;
    failure.error = report.error;
    failure.faults = faults;
    failure.shrunkSpec = spec;
    failure.shrunkError = report.error;
    failure.shrunkBlocks = report.programBlocks;

    // Interprocedural failures are found outside the differential
    // predicate, so the shrinker cannot reproduce them; the original
    // spec is the reproducer instead.
    if (opts.shrink && report.error.rfind("interprocedural:", 0) != 0) {
        const ShrinkOutcome shrunk = shrinkSpec(
            spec, opts.broken, report.error, opts.verify, faults);
        failure.shrunk = true;
        failure.shrunkSpec = shrunk.spec;
        failure.shrunkError = shrunk.error;
        failure.shrunkBlocks = shrunk.programBlocks;
    }

    try {
        std::ostringstream os;
        saveProgram(generateProgram(failure.shrunkSpec), os);
        failure.reproProgram = os.str();
    } catch (const std::exception &e) {
        failure.reproProgram =
            std::string("<program generation failed: ") + e.what() +
            ">";
    }
    failure.cliLine = fuzzCliLine(failure.shrunkSpec, opts, faults);
    return check;
}

FuzzSummary
runFuzz(const FuzzOptions &opts)
{
    // Specs (and their fault plans) derive serially from the seeds
    // so the corpus is fixed before any parallelism starts.
    std::vector<GenSpec> specs;
    std::vector<resilience::FaultPlan> plans;
    specs.reserve(opts.seeds);
    plans.reserve(opts.seeds);
    for (std::uint64_t i = 0; i < opts.seeds; ++i) {
        const std::uint64_t seed = opts.startSeed + i;
        GenSpec spec = GenSpec::fromSeed(seed);
        if (opts.events != 0)
            spec.events = opts.events;
        spec.clamp();
        specs.push_back(spec);
        resilience::FaultPlan plan =
            opts.faultFuzz ? resilience::FaultPlan::fromSeed(seed)
                           : opts.faults;
        plan.clamp();
        plans.push_back(plan);
    }

    // Fan the checks out without shrinking; results land in per-seed
    // slots, so the collected outcome is independent of scheduling
    // and job count.
    FuzzOptions unshrunk = opts;
    unshrunk.shrink = false;
    std::vector<SpecCheck> checks(specs.size());
    std::unique_ptr<ThreadPool> pool;
    if (opts.jobs != 1 && specs.size() > 1)
        pool = std::make_unique<ThreadPool>(
            opts.jobs == 0 ? ThreadPool::hardwareWorkers() : opts.jobs);
    forEachIndex(pool.get(), specs.size(), [&](std::size_t i) {
        checks[i] = checkSpec(specs[i], unshrunk, plans[i]);
    });

    FuzzSummary summary;
    summary.seedsRun = specs.size();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (!checks[i].failure)
            continue;
        ++summary.failures;
        // Shrinking is serial and covers the first maxShrinks
        // failures in seed order. Checking the spec again to shrink
        // it costs one differential beside the shrinker's hundreds.
        FuzzFailure failure =
            opts.shrink && summary.detail.size() < opts.maxShrinks
                ? checkSpec(specs[i], opts, plans[i]).failure.value()
                : std::move(*checks[i].failure);
        failure.seed = opts.startSeed + i;
        summary.detail.push_back(std::move(failure));
    }
    return summary;
}

} // namespace testing
} // namespace rsel
