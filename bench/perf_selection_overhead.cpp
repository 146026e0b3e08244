/**
 * @file
 * Hand-rolled timing for the paper's overhead claims and the batched
 * dispatch path:
 *
 *  - Whole-system throughput (events/second) over the gzip and gcc
 *    workloads for NET, LEI, NET+comb and LEI+comb, measured twice
 *    per configuration: per-event virtual dispatch versus batched
 *    structure-of-arrays dispatch. The two runs must produce
 *    byte-identical result fingerprints — a mismatch is a hard
 *    failure (nonzero exit), so the speedup can never come from
 *    computing something different.
 *  - Section 3.1: LEI's per-taken-branch work is constant (one hash
 *    find, one buffer insert, one hash repoint).
 *  - Section 4.2.1: compact-trace encode/decode overhead.
 *  - Section 4.2.3: mark-rejoining-paths cost.
 *
 * Methodology: steady_clock only, warmup repetitions discarded,
 * median of N timed repetitions (see bench_util.hpp); the per-event
 * and batched legs of a configuration alternate. Results are
 * also written as JSON (--json PATH, default
 * BENCH_perf_selection_overhead.json) for CI trend tracking; --quick
 * shrinks events and repetitions for the perf-smoke ctest entry.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "selection/compact_trace.hpp"
#include "selection/history_buffer.hpp"
#include "selection/region_cfg.hpp"
#include "support/error.hpp"
#include "testing/differential.hpp"
#include "workloads/scenarios.hpp"

using namespace rsel;
using namespace rsel::bench;

namespace {

struct ThroughputRow
{
    std::string workload;
    std::string selector;
    double perEventEps = 0.0;
    double batchedEps = 0.0;
    bool identical = false;

    double speedup() const { return batchedEps / perEventEps; }
};

/** One workload × selector cell, timed under both dispatch styles. */
ThroughputRow
timeConfig(const WorkloadInfo &w, Algorithm algo, std::uint64_t events,
           int warmup, int reps)
{
    const Program prog = w.build(42);
    SimOptions opts;
    opts.maxEvents = events;
    opts.seed = 7;

    const auto runOnce = [&](Dispatch d) {
        SimOptions o = opts;
        o.dispatch = d;
        return simulate(prog, algo, o);
    };

    ThroughputRow row;
    row.workload = w.name;
    row.selector = algorithmName(algo);
    // Equivalence gate first, untimed: the batched run is only a
    // valid measurement if it is byte-identical to the per-event run.
    row.identical =
        testing::resultFingerprint(runOnce(Dispatch::PerEvent)) ==
        testing::resultFingerprint(runOnce(Dispatch::Batched));

    // The two legs alternate repetition by repetition, so a drift in
    // host speed moves both medians alike instead of the ratio.
    std::vector<double> perEventNs, batchedNs;
    for (int rep = -warmup; rep < reps; ++rep) {
        const std::uint64_t start = nowNanos();
        runOnce(Dispatch::PerEvent);
        const std::uint64_t mid = nowNanos();
        runOnce(Dispatch::Batched);
        const std::uint64_t end = nowNanos();
        if (rep >= 0) {
            perEventNs.push_back(static_cast<double>(mid - start));
            batchedNs.push_back(static_cast<double>(end - mid));
        }
    }
    row.perEventEps = static_cast<double>(events) * 1e9 /
                      medianOf(std::move(perEventNs));
    row.batchedEps = static_cast<double>(events) * 1e9 /
                     medianOf(std::move(batchedNs));
    return row;
}

/** HistoryBuffer insert + hash find, ns per operation. */
double
historyBufferNsPerOp(int warmup, int reps)
{
    constexpr std::uint64_t ops = 2'000'000;
    const double ns = medianTimeNanos(warmup, reps, [] {
        HistoryBuffer buf(500);
        Addr addr = 0x1000;
        std::uint64_t acc = 0;
        for (std::uint64_t i = 0; i < ops; ++i) {
            const Addr tgt = 0x1000 + (addr % 977) * 8;
            if (const auto seq = buf.find(tgt))
                acc += *seq;
            const auto seq = buf.insert({addr, tgt, false});
            buf.setHashLocation(tgt, seq);
            addr += 13;
        }
        // Fold the accumulator into observable state so the loop
        // cannot be optimized away.
        if (acc == 0x5eed5eed5eed5eedull)
            std::cerr << "";
    });
    return ns / static_cast<double>(ops);
}

/** Compact-trace encode ns/block over a 128-block path. */
double
compactTraceEncodeNs(int warmup, int reps)
{
    Program p = buildUnbiasedBranch(1, 0.5, 0.1);
    using Ids = UnbiasedBranchIds;
    std::vector<const BasicBlock *> path;
    const BlockId cycle[] = {Ids::a, Ids::c, Ids::d, Ids::f};
    for (int i = 0; i < 128; ++i)
        path.push_back(&p.block(cycle[i % 4]));
    constexpr int iters = 20'000;
    const double ns = medianTimeNanos(warmup, reps, [&] {
        std::size_t bytes = 0;
        for (int i = 0; i < iters; ++i)
            bytes += CompactTrace::encode(path).sizeBytes();
        if (bytes == 0)
            std::cerr << "";
    });
    return ns / (static_cast<double>(iters) * 128.0);
}

/** Compact-trace decode ns/block. */
double
compactTraceDecodeNs(int warmup, int reps)
{
    Program p = buildUnbiasedBranch(1, 0.5, 0.1);
    using Ids = UnbiasedBranchIds;
    const std::vector<const BasicBlock *> path = {
        &p.block(Ids::a), &p.block(Ids::c), &p.block(Ids::d),
        &p.block(Ids::f)};
    const CompactTrace ct = CompactTrace::encode(path);
    constexpr int iters = 200'000;
    const double ns = medianTimeNanos(warmup, reps, [&] {
        std::size_t n = 0;
        for (int i = 0; i < iters; ++i)
            n += ct.decode(p, p.block(Ids::a).startAddr()).size();
        if (n == 0)
            std::cerr << "";
    });
    return ns / (static_cast<double>(iters) * 4.0);
}

/** Mark-rejoining-paths microseconds per invocation (60 traces). */
double
markRejoiningUs(int warmup, int reps)
{
    Program p = buildUnbiasedBranch(1, 0.5, 0.1);
    using Ids = UnbiasedBranchIds;
    constexpr int iters = 2'000;
    const double ns = medianTimeNanos(warmup, reps, [&] {
        std::uint32_t n = 0;
        for (int i = 0; i < iters; ++i) {
            RegionCfg cfg(&p.block(Ids::a));
            for (int t = 0; t < 60; ++t) {
                if (t % 3 == 0) {
                    cfg.addTrace({&p.block(Ids::a), &p.block(Ids::b),
                                  &p.block(Ids::d), &p.block(Ids::f)});
                } else {
                    cfg.addTrace({&p.block(Ids::a), &p.block(Ids::c),
                                  &p.block(Ids::d), &p.block(Ids::f)});
                }
            }
            cfg.markFrequent(20);
            n += cfg.markRejoiningPaths();
        }
        if (n == 0xffffffffu)
            std::cerr << "";
    });
    return ns / (static_cast<double>(iters) * 1e3);
}

std::string
jsonEscapeless(const std::string &s)
{
    // Workload and selector names are [A-Za-z0-9_-]; nothing to
    // escape, but keep the seam explicit.
    return s;
}

void
writeJson(const std::string &path, std::uint64_t events, int reps,
          const std::vector<ThroughputRow> &rows, double hbNs,
          double encNs, double decNs, double mrUs)
{
    std::ostringstream os;
    os << "{\n"
       << "  \"bench\": \"perf_selection_overhead\",\n"
       << "  \"events_per_run\": " << events << ",\n"
       << "  \"timed_reps\": " << reps << ",\n"
       << "  \"timer\": \"steady_clock, median of reps after "
          "warmup; per-event and batched legs alternate\",\n"
       << "  \"throughput\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ThroughputRow &r = rows[i];
        os << "    {\"workload\": \"" << jsonEscapeless(r.workload)
           << "\", \"selector\": \"" << jsonEscapeless(r.selector)
           << "\", \"per_event_events_per_sec\": "
           << formatDouble(r.perEventEps, 0)
           << ", \"batched_events_per_sec\": "
           << formatDouble(r.batchedEps, 0)
           << ", \"batched_speedup\": "
           << formatDouble(r.speedup(), 2)
           << ", \"fingerprints_identical\": "
           << (r.identical ? "true" : "false") << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    std::vector<double> speedups, batched;
    for (const ThroughputRow &r : rows) {
        speedups.push_back(r.speedup());
        batched.push_back(r.batchedEps);
    }
    os << "  ],\n"
       << "  \"geomean_batched_speedup\": "
       << formatDouble(geomean(speedups), 2) << ",\n"
       << "  \"min_batched_events_per_sec\": "
       << formatDouble(minOf(batched), 0) << ",\n"
       << "  \"history_buffer_insert_find_ns\": "
       << formatDouble(hbNs, 2) << ",\n"
       << "  \"compact_trace_encode_ns_per_block\": "
       << formatDouble(encNs, 2) << ",\n"
       << "  \"compact_trace_decode_ns_per_block\": "
       << formatDouble(decNs, 2) << ",\n"
       << "  \"mark_rejoining_us_per_call\": "
       << formatDouble(mrUs, 2) << "\n"
       << "}\n";
    std::ofstream out(path);
    if (!out)
        fatal("cannot write " + path);
    out << os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli;
    cli.define("events", "200000", "dynamic block events per run");
    cli.define("reps", "9", "timed repetitions (median is reported)");
    cli.define("warmup", "2", "untimed warmup repetitions");
    cli.define("quick", "false",
               "smoke mode: fewer events and repetitions");
    cli.define("json", "BENCH_perf_selection_overhead.json",
               "output path for the JSON result record");
    try {
        cli.parse(argc, argv);
    } catch (const FatalError &e) {
        std::cerr << e.what() << '\n';
        return 2;
    }
    if (cli.helpRequested()) {
        std::cout
            << "Selection-overhead timing: per-event vs batched "
               "dispatch throughput,\nplus the constant-work "
               "microbenchmarks behind the paper's overhead "
               "claims.\n\n"
            << cli.usage(argv[0]);
        return 0;
    }

    std::uint64_t events = cli.getUint("events");
    int reps = static_cast<int>(cli.getUint("reps"));
    int warmup = static_cast<int>(cli.getUint("warmup"));
    if (cli.getBool("quick")) {
        events = 60'000;
        reps = 3;
        warmup = 1;
    }

    try {
        std::vector<ThroughputRow> rows;
        Table t("perf_selection_overhead: " + std::to_string(events) +
                    " events/run, median of " + std::to_string(reps) +
                    " reps",
                {"workload", "selector", "per-event ev/s",
                 "batched ev/s", "speedup", "identical"});
        for (const char *wname : {"gzip", "gcc"}) {
            const WorkloadInfo *w = findWorkload(wname);
            for (const Algorithm algo :
                 {Algorithm::Net, Algorithm::Lei,
                  Algorithm::NetCombined, Algorithm::LeiCombined}) {
                ThroughputRow row =
                    timeConfig(*w, algo, events, warmup, reps);
                t.addRow({row.workload, row.selector,
                          formatDouble(row.perEventEps / 1e6, 1) + "M",
                          formatDouble(row.batchedEps / 1e6, 1) + "M",
                          formatDouble(row.speedup(), 2),
                          row.identical ? "yes" : "NO"});
                rows.push_back(std::move(row));
            }
        }
        const double hbNs = historyBufferNsPerOp(warmup, reps);
        const double encNs = compactTraceEncodeNs(warmup, reps);
        const double decNs = compactTraceDecodeNs(warmup, reps);
        const double mrUs = markRejoiningUs(warmup, reps);

        printFigure(t,
                    "not a paper figure — infrastructure: batched "
                    "dispatch must win without changing any result");
        std::cout << "history buffer insert+find: "
                  << formatDouble(hbNs, 1) << " ns/op\n"
                  << "compact trace encode: " << formatDouble(encNs, 1)
                  << " ns/block, decode: " << formatDouble(decNs, 1)
                  << " ns/block\n"
                  << "mark rejoining paths (60 traces): "
                  << formatDouble(mrUs, 1) << " us\n";

        writeJson(cli.get("json"), events, reps, rows, hbNs, encNs,
                  decNs, mrUs);
        std::cout << "json: " << cli.get("json") << "\n";

        for (const ThroughputRow &r : rows) {
            if (!r.identical) {
                std::cerr << "FAIL: batched dispatch diverged for "
                          << r.workload << "/" << r.selector << "\n";
                return 1;
            }
        }
        std::cout << "equivalence ok: batched == per-event for all "
                  << rows.size() << " configurations\n";
    } catch (const FatalError &e) {
        std::cerr << "error: " << e.what() << '\n';
        return 2;
    }
    return 0;
}
