#include "driver/sweep_runner.hpp"

#include <algorithm>
#include <memory>

#include "driver/thread_pool.hpp"
#include "support/error.hpp"

namespace rsel {

SweepRunner::SweepRunner(std::size_t jobs)
    : jobs_(jobs == 0 ? ThreadPool::hardwareWorkers() : jobs)
{}

std::vector<SweepCell>
SweepRunner::makeGrid(const std::vector<const WorkloadInfo *> &workloads,
                      const std::vector<Algorithm> &algos,
                      const SimOptions &base, std::uint64_t buildSeed)
{
    RSEL_ASSERT(!algos.empty(), "sweep grid needs at least one algorithm");
    std::vector<SweepCell> cells;
    cells.reserve(workloads.size() * algos.size());
    for (const WorkloadInfo *w : workloads) {
        RSEL_ASSERT(w != nullptr, "sweep grid got a null workload");
        for (Algorithm algo : algos) {
            SweepCell cell;
            cell.workload = w;
            cell.algo = algo;
            cell.buildSeed = buildSeed;
            cell.opts = base;
            if (cell.opts.maxEvents == 0)
                cell.opts.maxEvents = w->defaultEvents;
            cells.push_back(cell);
        }
    }
    return cells;
}

SimResult
SweepRunner::runCell(const SweepCell &cell)
{
    RSEL_ASSERT(cell.workload != nullptr, "sweep cell has no workload");
    // A private Program per cell: builders are deterministic, so
    // rebuilding costs a little CPU but removes every cross-thread
    // dependency (and any aliasing question about sharing one
    // Program across concurrent simulations).
    Program prog = cell.workload->build(cell.buildSeed);
    SimResult r = simulate(prog, cell.algo, cell.opts);
    r.workload = cell.workload->name;
    return r;
}

std::vector<SimResult>
SweepRunner::run(const std::vector<SweepCell> &cells) const
{
    std::vector<SimResult> results(cells.size());
    // No pool at jobs 1 (or for a single cell): the legacy serial
    // loop on this thread. Otherwise fail fast on a broken cell: no
    // further cell starts, and the first exception is rethrown here.
    //
    // Concurrency contract: cells share no mutable state — each
    // index writes only results[i], and the slots are distinct
    // objects, so no lock (and no capability annotation) is needed;
    // forEachIndex's wait publishes every slot to this thread.
    std::unique_ptr<ThreadPool> pool;
    if (jobs_ > 1 && cells.size() > 1)
        pool = std::make_unique<ThreadPool>(
            std::min(jobs_, cells.size()));
    forEachIndex(pool.get(), cells.size(), [&](std::size_t i) {
        results[i] = SweepRunner::runCell(cells[i]);
    });
    return results;
}

void
defineSelectorKnobs(CliOptions &cli)
{
    cli.define("net-threshold", "50", "NET hot threshold");
    cli.define("lei-threshold", "35", "LEI cycle threshold");
    cli.define("buffer", "500", "LEI history-buffer capacity");
    cli.define("tprof", "15", "observed traces per entrance (T_prof)");
    cli.define("tmin", "5", "block occurrence threshold (T_min)");
}

void
readSelectorKnobs(const CliOptions &cli, NetConfig &net, LeiConfig &lei)
{
    const auto knob = [&cli](const char *name, std::uint64_t max) {
        const std::uint64_t v = cli.getUint(name);
        if (v == 0 || v > max)
            fatal(std::string("--") + name + " must be in [1, " +
                  std::to_string(max) + "], got " + cli.get(name));
        return static_cast<std::uint32_t>(v);
    };
    net.hotThreshold = knob("net-threshold", UINT32_MAX);
    lei.hotThreshold = knob("lei-threshold", UINT32_MAX);
    lei.bufferCapacity = knob("buffer", UINT32_MAX);
    net.profWindow = lei.profWindow = knob("tprof", UINT32_MAX);
    net.minOccur = lei.minOccur = knob("tmin", net.profWindow);
}

} // namespace rsel
