/**
 * @file
 * rselect-sim: the general-purpose simulation driver.
 *
 * Runs any workload (or the whole suite) under any subset of the
 * shipped selection algorithms with fully exposed parameters, and
 * reports either a human-readable table or CSV for downstream
 * analysis.
 *
 *     rselect-sim --workload gcc --algos NET,LEI --events 2000000
 *     rselect-sim --csv --algos all > results.csv
 *     rselect-sim --workload mcf --cache-kb 8 --cache-policy fifo
 *
 * Sweeps run the (workload × algorithm) grid in parallel on a
 * thread pool (--jobs N; default = hardware concurrency, 1 = the
 * legacy serial path). Results are collected in grid order, so the
 * output is byte-identical at any job count.
 *
 * Trace-driven use (the Pin/DynamoRIO-style front door):
 *
 *     rselect-sim --workload gzip --save-program gzip.prog
 *     rselect-sim --workload gzip --record-trace gzip.trc --events 1000000
 *     rselect-sim --program gzip.prog --trace gzip.trc --algos LEI
 *     rselect-sim --program gzip.prog --algos NET,LEI
 *
 * --program replaces --workload: the last form runs the live table
 * (or CSV) over the loaded program, labelled by its path. Giving
 * both is a usage error.
 */

#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/diagnostics.hpp"
#include "program/trace_io.hpp"
#include "rselect.hpp"

using namespace rsel;

namespace {

/** Parse a comma-separated algorithm list ("all" = everything). */
std::vector<Algorithm>
parseAlgorithms(const std::string &spec)
{
    if (spec == "all") {
        return {allSelectors,
                allSelectors + std::size(allSelectors)};
    }
    if (spec == "paper") {
        return {allAlgorithms,
                allAlgorithms + std::size(allAlgorithms)};
    }
    std::vector<Algorithm> algos;
    std::stringstream ss(spec);
    std::string name;
    while (std::getline(ss, name, ',')) {
        bool found = false;
        for (Algorithm a : allSelectors) {
            if (algorithmName(a) == name) {
                algos.push_back(a);
                found = true;
                break;
            }
        }
        if (!found)
            fatal("unknown algorithm '" + name +
                  "' (try NET, LEI, NET+comb, LEI+comb, Mojo, BOA, "
                  "WRS, paper, or all)");
    }
    if (algos.empty())
        fatal("no algorithms given");
    return algos;
}

void
printCsvHeader()
{
    std::cout
        << "workload,algorithm,events,total_insts,hit_rate,regions,"
           "expansion_insts,expansion_bytes,exit_stubs,"
           "region_transitions,region_executions,cycle_terminations,"
           "spanning_regions,cover_set_90,max_live_counters,"
           "observed_trace_bytes,exit_dominated_regions,"
           "exit_dominated_dup_insts,duplicated_insts,"
           "licm_capable_regions,dual_split_regions,"
           "cache_evictions,cache_regenerations\n";
}

void
printCsvRow(const SimResult &r)
{
    std::cout << r.workload << ',' << r.selector << ',' << r.events
              << ',' << r.totalInsts << ',' << r.hitRate() << ','
              << r.regionCount << ',' << r.expansionInsts << ','
              << r.expansionBytes << ',' << r.exitStubs << ','
              << r.regionTransitions << ',' << r.regionExecutions
              << ',' << r.cycleTerminations << ','
              << r.spanningRegions << ',' << r.coverSet90 << ','
              << r.maxLiveCounters << ','
              << r.peakObservedTraceBytes << ','
              << r.exitDominatedRegions << ','
              << r.exitDominatedDupInsts << ',' << r.duplicatedInsts
              << ',' << r.licmCapableRegions << ','
              << r.dualSplitRegions << ',' << r.cacheEvictions << ','
              << r.cacheRegenerations << '\n';
}

/** Print one program's results under every algorithm as a table. */
void
printTable(const std::string &label, std::uint64_t events,
           const std::vector<SimResult> &results, const SimOptions &opts)
{
    std::vector<std::string> headers{"metric"};
    for (const SimResult &r : results)
        headers.push_back(r.selector);
    Table t("rselect-sim: " + label + " (" + std::to_string(events) +
                " events)",
            headers);
    auto row = [&](const std::string &name, auto getter, int decimals) {
        std::vector<std::string> cells{name};
        for (const SimResult &r : results)
            cells.push_back(formatDouble(getter(r), decimals));
        t.addRow(cells);
    };
    row("hit rate (%)",
        [](const SimResult &r) { return 100 * r.hitRate(); }, 2);
    row("regions",
        [](const SimResult &r) { return double(r.regionCount); }, 0);
    row("expansion (insts)",
        [](const SimResult &r) { return double(r.expansionInsts); }, 0);
    row("exit stubs",
        [](const SimResult &r) { return double(r.exitStubs); }, 0);
    row("transitions",
        [](const SimResult &r) { return double(r.regionTransitions); },
        0);
    row("90% cover set",
        [](const SimResult &r) { return double(r.coverSet90); }, 0);
    row("duplicated insts",
        [](const SimResult &r) { return double(r.duplicatedInsts); }, 0);
    if (opts.cache.capacityBytes != 0) {
        row("cache evictions",
            [](const SimResult &r) { return double(r.cacheEvictions); },
            0);
        row("cache regenerations",
            [](const SimResult &r) {
                return double(r.cacheRegenerations);
            },
            0);
    }
    if (opts.faults.armed()) {
        row("faults injected",
            [](const SimResult &r) {
                return double(r.recovery.faultsInjected);
            },
            0);
        row("regions invalidated",
            [](const SimResult &r) {
                return double(r.recovery.regionsInvalidated);
            },
            0);
        row("retranslations",
            [](const SimResult &r) {
                return double(r.recovery.retranslations);
            },
            0);
        row("blacklisted entrances",
            [](const SimResult &r) {
                return double(r.recovery.blacklistedEntrances);
            },
            0);
    }
    t.print(std::cout);
    std::cout << '\n';
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli;
    cli.define("workload", "",
               "workload name, or 'all' (the default without "
               "--program)");
    cli.define("algos", "paper",
               "comma-separated algorithms, 'paper', or 'all'");
    cli.define("events", "0",
               "events per run (0 = workload default; 1000000 for "
               "--program and --record-trace)");
    cli.define("seed", "7", "executor seed");
    cli.define("build-seed", "42", "program-synthesis seed");
    defineSelectorKnobs(cli);
    cli.define("cache-kb", "0",
               "code-cache capacity in KiB (0 = unbounded)");
    cli.define("cache-policy", "flush",
               "bounded-cache policy: flush | fifo");
    cli.define("csv", "false", "emit CSV instead of tables");
    cli.define("jobs", "0",
               "parallel sweep workers (0 = hardware concurrency, "
               "1 = serial)");
    cli.define("save-program", "",
               "write the workload's program file and exit");
    cli.define("record-trace", "",
               "execute and record a trace file, then exit");
    cli.define("program", "",
               "load the guest program from a file instead of a "
               "built-in workload (not with --workload)");
    cli.define("trace", "",
               "replay a recorded trace instead of executing "
               "(requires --program or --workload)");
    cli.define("fault-spec", "",
               "fault-injection plan (e.g. "
               "'f1,tfail=20,inval=50,seed=9'); empty = disarmed");
    cli.define("verify", "false",
               "statically verify every emitted region "
               "(verify-on-submit)");

    try {
        cli.parse(argc, argv);
    } catch (const FatalError &e) {
        std::cerr << "error: " << e.what() << '\n';
        return ExitUsageError;
    }
    if (cli.helpRequested()) {
        std::cout << cli.usage(argv[0]);
        return ExitOk;
    }

    try {
        const std::vector<Algorithm> algos =
            parseAlgorithms(cli.get("algos"));

        SimOptions opts;
        opts.seed = cli.getUint("seed");
        readSelectorKnobs(cli, opts.net, opts.lei);
        opts.cache.capacityBytes =
            cacheBytesFromKb(cli.getUint("cache-kb"), "--cache-kb");
        const std::string policy = cli.get("cache-policy");
        if (policy != "flush" && policy != "fifo")
            fatal("--cache-policy must be 'flush' or 'fifo'");
        opts.cache.policy = policy == "fifo"
                                ? CacheLimits::Policy::Fifo
                                : CacheLimits::Policy::FullFlush;
        opts.maxEvents = cli.getUint("events");
        if (!cli.get("fault-spec").empty())
            opts.faults =
                resilience::FaultPlan::parse(cli.get("fault-spec"));
        opts.verifyRegions = cli.getBool("verify");

        const std::string programPath = cli.get("program");
        const std::string workload = cli.get("workload");
        if (!programPath.empty() && !workload.empty())
            fatal("--program and --workload each name the guest "
                  "program: give one");
        // What --program and --record-trace run when --events is 0.
        const std::uint64_t programEvents =
            opts.maxEvents != 0 ? opts.maxEvents : 1'000'000;
        const bool csv = cli.getBool("csv");

        // Single-program modes: a loaded program, or a trace mode.
        if (!cli.get("save-program").empty() ||
            !cli.get("record-trace").empty() || !programPath.empty() ||
            !cli.get("trace").empty()) {
            Program prog = [&] {
                if (!programPath.empty()) {
                    std::ifstream in(programPath);
                    if (!in)
                        fatal("cannot open " + programPath);
                    return loadProgram(in);
                }
                const WorkloadInfo *w = findWorkload(workload);
                if (w == nullptr)
                    fatal(workload.empty()
                              ? "trace modes need --workload or "
                                "--program"
                              : "unknown workload '" + workload + "'");
                return w->build(cli.getUint("build-seed"));
            }();

            if (!cli.get("save-program").empty()) {
                std::ofstream out(cli.get("save-program"));
                saveProgram(prog, out);
                std::cout << "wrote " << cli.get("save-program")
                          << '\n';
                return 0;
            }
            if (!cli.get("record-trace").empty()) {
                std::ofstream out(cli.get("record-trace"),
                                  std::ios::binary);
                TraceWriter writer(out, prog);
                Executor exec(prog, cli.getUint("seed"));
                exec.run(programEvents, writer);
                writer.finish();
                std::cout << "wrote " << writer.eventCount()
                          << " events to "
                          << cli.get("record-trace") << '\n';
                return 0;
            }
            if (!cli.get("trace").empty()) {
                const std::uint64_t replayEvents =
                    cli.getUint("events") != 0
                        ? cli.getUint("events")
                        : std::numeric_limits<std::uint64_t>::max();
                for (Algorithm algo : algos) {
                    // Each algorithm needs its own pass, so the
                    // stream is opened once per run.
                    std::ifstream run(cli.get("trace"),
                                      std::ios::binary);
                    if (!run)
                        fatal("cannot open " + cli.get("trace"));
                    TraceReplayer rp(prog, run);
                    DynOptSystem system(prog, opts.cache,
                                        opts.icache);
                    attachAlgorithm(system, algo, opts);
                    if (opts.verifyRegions)
                        system.enableVerifyOnSubmit();
                    system.armFaults(opts.faults);
                    // Replay through the batched path: identical
                    // results (see batch_dispatch_test), one virtual
                    // call per EventBatch instead of per block.
                    const std::uint64_t n =
                        rp.runBatched(replayEvents, system);
                    SimResult r = system.finish();
                    std::cout << algorithmName(algo) << ": " << n
                              << " events, hit "
                              << formatPercent(r.hitRate(), 2) << ", "
                              << r.regionCount << " regions, cover90 "
                              << r.coverSet90 << ", transitions "
                              << r.regionTransitions << '\n';
                }
                return 0;
            }

            // The live run over the loaded program.
            opts.maxEvents = programEvents;
            std::vector<SimResult> results;
            for (Algorithm algo : algos) {
                results.push_back(simulate(prog, algo, opts));
                results.back().workload = programPath;
            }
            if (csv) {
                printCsvHeader();
                for (const SimResult &r : results)
                    printCsvRow(r);
            } else {
                printTable(programPath, programEvents, results, opts);
            }
            return 0;
        }

        std::vector<const WorkloadInfo *> workloads;
        if (workload.empty() || workload == "all") {
            for (const WorkloadInfo &w : workloadSuite())
                workloads.push_back(&w);
        } else {
            const WorkloadInfo *w = findWorkload(workload);
            if (w == nullptr)
                fatal("unknown workload '" + workload + "'");
            workloads.push_back(w);
        }

        if (csv)
            printCsvHeader();

        // Fan the (workload × algorithm) grid out over the pool;
        // results come back in grid order, so printing below is
        // identical to the old serial per-workload loop.
        const SweepRunner runner(
            static_cast<std::size_t>(cli.getUint("jobs")));
        const std::vector<SweepCell> grid = SweepRunner::makeGrid(
            workloads, algos, opts, cli.getUint("build-seed"));
        const std::vector<SimResult> all = runner.run(grid);

        for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
            const WorkloadInfo *w = workloads[wi];
            const auto *first = all.data() + wi * algos.size();
            const std::vector<SimResult> results(
                first, first + algos.size());
            if (csv) {
                for (const SimResult &r : results)
                    printCsvRow(r);
                continue;
            }

            printTable(w->name, grid[wi * algos.size()].opts.maxEvents,
                       results, opts);
        }
    } catch (const FatalError &e) {
        std::cerr << "error: " << e.what() << '\n';
        return ExitUsageError;
    } catch (const analysis::VerifyError &e) {
        std::cerr << "verification failure: " << e.what() << '\n';
        return ExitVerifyFailure;
    } catch (const std::exception &e) {
        std::cerr << "runtime fault: " << e.what() << '\n';
        return ExitRuntimeFault;
    }
    return ExitOk;
}
