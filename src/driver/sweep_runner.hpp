/**
 * @file
 * Parallel sweep engine for (workload × algorithm × config) grids.
 *
 * Every experiment in this repo — rselect-sim, all bench harnesses —
 * boils down to the same shape: run a grid of independent,
 * deterministic simulations and tabulate the SimResults. Each cell
 * is embarrassingly parallel (its own Program, Executor and
 * DynOptSystem; no shared mutable state), so the SweepRunner fans
 * the grid out over a fixed-size ThreadPool and collects results in
 * grid order, making parallel output byte-identical to a serial run.
 *
 * Determinism contract:
 *  - A cell's executor seed and build seed are fixed at grid
 *    construction time, never derived from scheduling, thread
 *    identity or completion order. Every cell shares the base
 *    seed: this is the paper's methodology, since all algorithms on
 *    a workload must consume the identical dynamic block stream for
 *    the comparison to be fair.
 *  - Each cell rebuilds its Program from the workload's deterministic
 *    builder, so no cross-cell state exists at all.
 *  - run() stores each result at the cell's grid index; callers see
 *    suite order regardless of which worker finished first.
 */

#ifndef RSEL_DRIVER_SWEEP_RUNNER_HPP
#define RSEL_DRIVER_SWEEP_RUNNER_HPP

#include <cstdint>
#include <vector>

#include "dynopt/dynopt_system.hpp"
#include "metrics/sim_result.hpp"
#include "support/cli.hpp"
#include "workloads/workloads.hpp"

namespace rsel {

/** One fully resolved simulation cell. */
struct SweepCell
{
    /** Workload to build and run. Never null in a grid. */
    const WorkloadInfo *workload = nullptr;
    /** Selection algorithm for this cell. */
    Algorithm algo = Algorithm::Net;
    /** Program-synthesis seed for this cell's private build. */
    std::uint64_t buildSeed = 42;
    /** Simulation options with maxEvents already resolved (the
     *  workload default applied). */
    SimOptions opts;
};

/** Runs SweepCell grids serially or across a thread pool. */
class SweepRunner
{
  public:
    /**
     * @param jobs worker threads; 0 = hardware concurrency, 1 =
     *             legacy serial path (no pool, runs on the calling
     *             thread).
     */
    explicit SweepRunner(std::size_t jobs = 0);

    /** The worker count actually in effect. */
    std::size_t jobs() const { return jobs_; }

    /**
     * Build the (workload × algorithm) grid, workload-major — the
     * exact order the historical serial loops iterated in.
     *
     * @param workloads grid rows; all pointers must outlive run().
     * @param algos     grid columns.
     * @param base      shared options; base.maxEvents == 0 means
     *                  "use each workload's default event count",
     *                  base.seed is every cell's executor seed.
     * @param buildSeed program-synthesis seed for every cell.
     */
    static std::vector<SweepCell>
    makeGrid(const std::vector<const WorkloadInfo *> &workloads,
             const std::vector<Algorithm> &algos, const SimOptions &base,
             std::uint64_t buildSeed);

    /**
     * Run every cell and return SimResults in grid order, each with
     * SimResult::workload filled in. With jobs == 1 the cells run
     * inline on the calling thread; otherwise they are fanned out
     * over a ThreadPool. A FatalError/PanicError thrown by a cell is
     * rethrown (the earliest-grid-index failure) after all cells
     * finish, so no worker is abandoned mid-run.
     */
    std::vector<SimResult> run(const std::vector<SweepCell> &cells) const;

    /** Build, simulate and label one cell (the per-worker body). */
    static SimResult runCell(const SweepCell &cell);

  private:
    std::size_t jobs_;
};

/**
 * Define the selector knobs every simulation front end takes, with
 * the paper's values as defaults: --net-threshold, --lei-threshold,
 * --buffer, --tprof (T_prof) and --tmin (T_min).
 */
void defineSelectorKnobs(CliOptions &cli);

/**
 * Read the knobs defineSelectorKnobs() declared into NET's and LEI's
 * configs. A value the selectors would reject throws FatalError
 * (`--<knob> must be in [1, max], got V`): every knob is at least 1
 * and fits 32 bits, and T_min is at most T_prof.
 */
void readSelectorKnobs(const CliOptions &cli, NetConfig &net,
                       LeiConfig &lei);

} // namespace rsel

#endif // RSEL_DRIVER_SWEEP_RUNNER_HPP
