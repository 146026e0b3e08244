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
    cli.define("net-threshold", "50", "NET hot threshold");
    cli.define("lei-threshold", "35", "LEI cycle threshold");
    cli.define("buffer", "500", "LEI history-buffer capacity");
    cli.define("tprof", "15", "observed traces per entrance (T_prof)");
    cli.define("tmin", "5", "block occurrence threshold (T_min)");
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
        // The selectors assert every knob is at least 1 (and T_min
        // at most T_prof); each lands in a 32-bit field.
        const auto knob = [&](const char *name, std::uint64_t max) {
            const std::uint64_t v = cli.getUint(name);
            if (v == 0 || v > max)
                fatal(std::string("--") + name + " must be in [1, " +
                      std::to_string(max) + "], got " + cli.get(name));
            return static_cast<std::uint32_t>(v);
        };
        opts.net.hotThreshold = knob("net-threshold", UINT32_MAX);
        opts.lei.hotThreshold = knob("lei-threshold", UINT32_MAX);
        opts.lei.bufferCapacity = knob("buffer", UINT32_MAX);
        const std::uint32_t tprof = knob("tprof", UINT32_MAX);
        const std::uint32_t tmin = knob("tmin", tprof);
        opts.net.profWindow = tprof;
        opts.lei.profWindow = tprof;
        opts.net.minOccur = tmin;
        opts.lei.minOccur = tmin;
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
