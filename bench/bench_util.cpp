#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "driver/sweep_runner.hpp"
#include "support/error.hpp"
#include "support/exit_codes.hpp"

namespace rsel::bench {

BenchOptions
parseArgs(int argc, char **argv, const std::string &description,
          std::vector<std::string> *positional)
{
    CliOptions cli;
    cli.define("events", "0",
               "dynamic block events per run (0 = workload default)");
    cli.define("seed", "7", "executor seed");
    cli.define("build-seed", "42", "program-synthesis seed");
    cli.define("workload", "", "restrict to one workload by name");
    defineSelectorKnobs(cli);
    cli.define("jobs", "0",
               "parallel sweep workers (0 = hardware concurrency, "
               "1 = serial)");

    BenchOptions opts;
    try {
        cli.parse(argc, argv);
        if (cli.helpRequested()) {
            std::cout << description << "\n\n" << cli.usage(argv[0]);
            std::exit(ExitOk);
        }
        opts.events = cli.getUint("events");
        opts.seed = cli.getUint("seed");
        opts.buildSeed = cli.getUint("build-seed");
        opts.workloadFilter = cli.get("workload");
        if (!opts.workloadFilter.empty() &&
            findWorkload(opts.workloadFilter) == nullptr)
            fatal("unknown workload: " + opts.workloadFilter);
        opts.jobs = static_cast<std::size_t>(cli.getUint("jobs"));
        readSelectorKnobs(cli, opts.net, opts.lei);
    } catch (const FatalError &e) {
        std::cerr << "error: " << e.what() << '\n';
        std::exit(ExitUsageError);
    }
    if (positional)
        *positional = cli.positional();
    return opts;
}

SuiteRunner::SuiteRunner(BenchOptions opts, Adjust adjust)
    : opts_(std::move(opts)), adjust_(std::move(adjust))
{
    for (const WorkloadInfo &w : workloadSuite()) {
        if (opts_.workloadFilter.empty() ||
            w.name == opts_.workloadFilter) {
            workloads_.push_back(&w);
        }
    }
    if (workloads_.empty())
        fatal("unknown workload: " + opts_.workloadFilter);
}

SimOptions
BenchOptions::simOptions() const
{
    SimOptions sim;
    sim.maxEvents = events;
    sim.seed = seed;
    sim.net = net;
    sim.lei = lei;
    return sim;
}

const std::vector<SimResult> &
SuiteRunner::results(Algorithm algo)
{
    auto it = cache_.find(algo);
    if (it != cache_.end())
        return it->second;

    // One workload-major grid per algorithm, fanned out over the
    // pool; collection is in suite order, so the printed tables are
    // byte-identical to the old serial loop at any job count.
    std::vector<SweepCell> cells = SweepRunner::makeGrid(
        workloads_, {algo}, opts_.simOptions(), opts_.buildSeed);
    if (adjust_)
        for (std::size_t w = 0; w < cells.size(); ++w)
            adjust_(w, cells[w].opts);
    std::vector<SimResult> results = SweepRunner(opts_.jobs).run(cells);
    return cache_.emplace(algo, std::move(results)).first->second;
}

void
printFigure(const Table &table, const std::string &paperNote)
{
    table.print(std::cout);
    std::cout << "paper reports: " << paperNote << "\n\n";
}

std::uint64_t
nowNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
medianOf(std::vector<double> values)
{
    RSEL_ASSERT(!values.empty(), "median of an empty sample set");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n % 2 == 1)
        return values[n / 2];
    return (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

} // namespace rsel::bench
