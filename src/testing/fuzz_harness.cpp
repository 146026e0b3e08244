#include "testing/fuzz_harness.hpp"

#include <memory>
#include <sstream>

#include "driver/thread_pool.hpp"
#include "program/trace_io.hpp"
#include "testing/inter_check.hpp"
#include "testing/prediction_check.hpp"
#include "testing/random_program.hpp"
#include "testing/shrinker.hpp"

namespace rsel {
namespace testing {

std::string
fuzzCliLine(const GenSpec &spec, BrokenMode mode, bool verify,
            const resilience::FaultPlan &faults, bool analyze,
            bool interprocedural)
{
    std::string line = "rselect-fuzz --spec '" + spec.toString() + "'";
    if (mode != BrokenMode::None)
        line += std::string(" --break-selector ") +
                brokenModeName(mode);
    if (verify)
        line += " --verify";
    if (analyze)
        line += " --analyze";
    if (interprocedural)
        line += " --interprocedural";
    if (faults.armed())
        line += " --fault-spec '" + faults.toString() + "'";
    return line;
}

namespace {

/** True for failures the differential-based shrinker cannot
 *  reproduce (static-prediction checks run outside the oracle). */
bool
isAnalyzeFailure(const std::string &error)
{
    return error.rfind("static-prediction:", 0) == 0 ||
           error.rfind("interprocedural:", 0) == 0;
}

/** One seed's full check: the differential oracle, then (when
 *  requested and clean) the static-prediction validation. */
DiffReport
runSeedCheck(const GenSpec &spec, const FuzzOptions &opts,
             const resilience::FaultPlan &plan)
{
    DiffReport report =
        runDifferential(spec, opts.broken, opts.verify, plan);
    // Prediction bounds assume fault-free runs; a fault plan only
    // affects the differential leg, never the analyze leg.
    if (report.error.empty() && opts.analyze)
        report.error = checkSpecPredictions(spec);
    if (report.error.empty() && opts.interprocedural)
        report.error = checkSpecInterprocedural(spec);
    return report;
}

} // namespace

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

    // Fan the checks out; results land in per-seed slots, so the
    // collected outcome is independent of scheduling and job count.
    std::vector<DiffReport> reports(specs.size());
    std::unique_ptr<ThreadPool> pool;
    if (opts.jobs != 1 && specs.size() > 1)
        pool = std::make_unique<ThreadPool>(
            opts.jobs == 0 ? ThreadPool::hardwareWorkers() : opts.jobs);
    forEachIndex(pool.get(), specs.size(), [&](std::size_t i) {
        reports[i] = runSeedCheck(specs[i], opts, plans[i]);
    });

    FuzzSummary summary;
    summary.seedsRun = specs.size();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (reports[i].error.empty())
            continue;
        ++summary.failures;

        FuzzFailure failure;
        failure.seed = opts.startSeed + i;
        failure.spec = specs[i];
        failure.error = reports[i].error;
        failure.faults = plans[i];
        failure.shrunkSpec = specs[i];
        failure.shrunkError = reports[i].error;
        failure.shrunkBlocks = reports[i].programBlocks;

        // Static-prediction failures are found outside the
        // differential predicate, so the shrinker cannot reproduce
        // them; report the original spec as the reproducer instead.
        if (opts.shrink && !isAnalyzeFailure(reports[i].error) &&
            static_cast<std::uint32_t>(summary.detail.size()) <
                opts.maxShrinks) {
            const ShrinkOutcome shrunk =
                shrinkSpec(specs[i], opts.broken, reports[i].error,
                           opts.verify, plans[i]);
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
                std::string("<program generation failed: ") +
                e.what() + ">";
        }
        failure.cliLine =
            fuzzCliLine(failure.shrunkSpec, opts.broken, opts.verify,
                        plans[i], opts.analyze,
                        opts.interprocedural);
        summary.detail.push_back(std::move(failure));
    }
    return summary;
}

} // namespace testing
} // namespace rsel
