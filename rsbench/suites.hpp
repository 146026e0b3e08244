/**
 * @file
 * The three suite workloads: the twelve synthetic SPECint programs
 * under the paper's four configurations (NET, LEI, NET+comb,
 * LEI+comb) — 48 cells, run serially at their default lengths.
 *
 *  - suite-live:   events from the live Executor into an unbounded
 *                  cache; the paper's own experiment.
 *  - suite-replay: the same cells replayed from traces recorded during
 *                  set-up; differs from suite-live only in the event
 *                  producer.
 *  - suite-churn:  the live cells with a 1 KiB FullFlush cache, so
 *                  every workload flushes and re-forms regions.
 */

#ifndef RSBENCH_SUITES_HPP
#define RSBENCH_SUITES_HPP

#include "common.hpp"

namespace rsbench {

enum class Suite { Live, Replay, Churn };

/** The workload name ("suite-live", ...). */
const char *suiteName(Suite suite);

/** The golden set a suite must reproduce; replay reproduces live's. */
const char *suiteGoldenSet(Suite suite);

/**
 * One timed repetition: set-up (the twelve program builds, plus trace
 * recording on suite-replay), then the 48 cells. The result
 * fingerprints land in `prints`, hashed after the clock stops.
 */
Rep runSuiteRep(Suite suite, const Seeds &seeds, Scale scale,
                Prints &prints);

/**
 * Untimed cross-checks that need no goldens. suite-replay: every cell
 * equals its live run (live == replay). suite-live and suite-churn:
 * the per-event dispatch leg equals the batched print, for every cell
 * when `everyCell`, else for one cell per configuration with the
 * workload picked by the seeds.
 */
void crossCheckSuite(Suite suite, const Seeds &seeds, Scale scale,
                     const Prints &prints, bool everyCell,
                     Check &check);

/** Per-layer totals of one traced pass over a suite. */
struct SuiteTrace
{
    double wallS = 0;
    std::uint64_t events = 0;
    /** workloads: the program builds. */
    Layer build;
    /** program: trace recording (suite-replay's set-up). */
    Layer record;
    /** program: Executor / TraceReplayer fillBatch, one span a batch. */
    Layer produce;
    /** dynopt: DynOptSystem::onBatch, one span a batch; the selector
     *  spans below are its children. */
    Layer onBatch;
    /** selection: every call into the real selector. */
    Layer select;
    /** metrics: DynOptSystem::finish. */
    Layer finalize;
    /** testing: resultFingerprint. */
    Layer fingerprint;
    std::uint64_t traceBytes = 0;
    std::uint64_t recordedEvents = 0;
    /** Regions the selector handed out, and how many were MultiPath. */
    std::uint64_t regionsOut = 0;
    std::uint64_t multipathOut = 0;
    /** runtime: CodeCache::Listener notifications. */
    std::uint64_t inserts = 0;
    std::uint64_t drops = 0;
    /** Σ SimResult::cacheRegenerations. */
    std::uint64_t regenerations = 0;
    Prints prints;

    /** onBatch self time: its spans minus the selector spans. */
    double
    dynoptSelfS() const
    {
        return onBatch.seconds() - select.seconds();
    }

    /** Σ self time over every layer. */
    double
    attributedS() const
    {
        return build.seconds() + record.seconds() + produce.seconds() +
               onBatch.seconds() + finalize.seconds() +
               fingerprint.seconds();
    }
};

/**
 * One traced pass: the work of runSuiteRep, with the benchmark driving
 * fillBatch -> onBatch itself, a decorator around the real selector
 * (installed through useCustom) and a cache listener.
 */
SuiteTrace traceSuite(Suite suite, const Seeds &seeds, Scale scale);

/** suite-live's events by where they ran. */
struct Dispositions
{
    std::uint64_t interpreted = 0;
    std::uint64_t trace = 0;
    std::uint64_t multipath = 0;
    /** Prints of this per-event pass (must equal the batched ones). */
    Prints prints;
};

/**
 * Untimed per-event pass over suite-live that reads
 * DynOptSystem::lastStep() after every event: interpreted, run from a
 * Trace region, or run from a MultiPath region.
 */
Dispositions countDispositions(const Seeds &seeds, Scale scale);

} // namespace rsbench

#endif // RSBENCH_SUITES_HPP
