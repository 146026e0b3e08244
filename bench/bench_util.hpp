/**
 * @file
 * Shared harness for the figure/table reproduction binaries.
 *
 * Every bench binary runs the twelve-workload synthetic suite under
 * the algorithms it needs and prints one table in the paper's
 * layout: a row per benchmark plus the cross-suite average the paper
 * quotes. Common CLI flags:
 *
 *   --events N   dynamic block events per run (0 = workload default)
 *   --seed N     executor seed
 *   --build-seed N  program-synthesis seed
 *   --workload NAME  restrict to one workload
 *   --jobs N     parallel sweep workers (0 = hardware concurrency,
 *                1 = serial); results are identical at any count
 */

#ifndef RSEL_BENCH_BENCH_UTIL_HPP
#define RSEL_BENCH_BENCH_UTIL_HPP

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "dynopt/dynopt_system.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "workloads/workloads.hpp"

namespace rsel::bench {

/** Options common to all bench binaries. */
struct BenchOptions
{
    /** Events per run; 0 means each workload's default length. */
    std::uint64_t events = 0;
    /** Executor seed. */
    std::uint64_t seed = 7;
    /** Program-synthesis seed. */
    std::uint64_t buildSeed = 42;
    /** Optional single-workload filter (empty = whole suite). */
    std::string workloadFilter;
    /** Sweep workers (0 = hardware concurrency, 1 = serial). */
    std::size_t jobs = 0;
    /** Threshold configuration shared by all runs. */
    NetConfig net;
    LeiConfig lei;

    /** The equivalent SimOptions (maxEvents 0 = workload default). */
    SimOptions simOptions() const;
};

/**
 * Parse the common bench CLI. Prints usage and exits 0 on --help;
 * on a bad flag or value (an unknown --workload, a selector knob
 * the selectors would reject) prints `error: ...` and exits 2.
 * Positional arguments land in `positional` when given (and are
 * ignored otherwise).
 */
BenchOptions parseArgs(int argc, char **argv,
                       const std::string &description,
                       std::vector<std::string> *positional = nullptr);

/**
 * Lazily runs and caches suite results per algorithm so a binary
 * that needs NET and LEI only simulates each workload twice.
 */
class SuiteRunner
{
  public:
    /** Adjusts one workload's cell options (by suite index). */
    using Adjust = std::function<void(std::size_t workload, SimOptions &)>;

    /** `adjust`, when set, runs on every cell's options before it
     *  is simulated. */
    explicit SuiteRunner(BenchOptions opts, Adjust adjust = {});

    /** Results for one algorithm, in suite order. */
    const std::vector<SimResult> &results(Algorithm algo);

    /** The workloads being run (after filtering). */
    const std::vector<const WorkloadInfo *> &workloads() const
    {
        return workloads_;
    }

    /** The options in effect. */
    const BenchOptions &options() const { return opts_; }

  private:
    BenchOptions opts_;
    Adjust adjust_;
    std::vector<const WorkloadInfo *> workloads_;
    std::map<Algorithm, std::vector<SimResult>> cache_;
};

/**
 * Print a finished table plus the "paper reports" footnote that
 * states the published shape the figure should reproduce.
 */
void printFigure(const Table &table, const std::string &paperNote);

// ---------------------------------------------------------------
// Wall-clock timing helpers.
//
// Perf binaries must time with the monotonic steady_clock (never
// system_clock, which NTP can step mid-measurement), discard warmup
// repetitions (cold caches and lazy allocation dominate the first
// runs), and report the median of several timed repetitions (robust
// against scheduler noise, unlike a single run or the mean).
// ---------------------------------------------------------------

/** Monotonic nanoseconds since an arbitrary epoch (steady_clock). */
std::uint64_t nowNanos();

/** Median of a sample set. @pre non-empty (takes a copy to sort). */
double medianOf(std::vector<double> values);

} // namespace rsel::bench

#endif // RSEL_BENCH_BENCH_UTIL_HPP
