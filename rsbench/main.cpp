/**
 * @file
 * rsbench: the end-to-end and per-layer benchmark of rselect.
 *
 *   rsbench --goldens rsbench/goldens.txt --workload suite-live
 *   rsbench --goldens rsbench/goldens.txt --trace 1
 *   rsbench --record-goldens rsbench/goldens.txt
 *
 * run.py builds this binary and is the usual entry point; NOTES.md
 * describes the workloads and metrics. The last line of standard
 * output is one JSON object with the keys correct, attempted, failed
 * and metrics; the line before it records the run's provenance. Exit
 * codes follow the repository contract: 0 ok, 1 runtime fault, 2
 * usage error, 3 a fingerprint differs.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "micro.hpp"
#include "serve.hpp"
#include "suites.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/exit_codes.hpp"

using namespace rsel;
using namespace rsbench;

namespace {

constexpr Suite kSuites[] = {Suite::Live, Suite::Replay, Suite::Churn};

/** Everything a run needs besides the workload. */
struct Settings
{
    Seeds seeds;
    Scale scale = Scale::Full;
    double seconds = 15;
    Goldens goldens;
};

/** What a run reports. */
struct Outcome
{
    std::vector<Metric> metrics;
    Check check;
    std::size_t repetitions = 1;
    /** events_per_s of every repetition, in run order. */
    std::vector<double> repRates;
};

Suite
parseSuite(const std::string &workload)
{
    for (const Suite suite : kSuites)
        if (workload == suiteName(suite))
            return suite;
    fatal("unknown workload '" + workload +
          "' (try suite-live, suite-replay, suite-churn or serve-4096)");
}

/**
 * The end-to-end metrics BENCHMARK.json lists. The two rates are the
 * fastest repetition's: on a shared host the same repetition's speed
 * drifts by a quarter over tens of seconds with neighbours' cache
 * pressure, which moves a run's median with it, while the fastest
 * repetition stays close to the undisturbed speed. setup_s is the
 * median over the repetitions. Peak RSS is read here, before any
 * untimed check runs.
 */
void
addEndToEnd(Outcome &out, const std::vector<Rep> &reps)
{
    std::vector<double> eps, steady, setup;
    for (const Rep &r : reps) {
        const auto events = static_cast<double>(r.events);
        eps.push_back(events / r.wallS);
        steady.push_back(events / (r.wallS - r.setupS));
        setup.push_back(r.setupS);
    }
    const Rep &first = reps.front();
    out.repetitions = reps.size();
    out.repRates = eps;
    out.metrics = {
        {"events_per_s", quantile(eps, 1), "events/s"},
        {"steady_events_per_s", quantile(steady, 1), "events/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peakRssMb(), "MiB"},
        {"hit_rate",
         ratio(static_cast<double>(first.cachedInsts),
               static_cast<double>(first.totalInsts)),
         "ratio"}};
}

/** At the default seeds, serve-4096's fold against its golden. */
void
checkServeGolden(const Settings &s, const std::string &fold,
                 std::uint64_t tenants, Check &check)
{
    if (!s.seeds.isDefault())
        return;
    const Prints golden = s.goldens.get(s.scale, "serve");
    const auto it = golden.find("fold");
    check.expect(it != golden.end() && it->second == fold,
                 "serve-4096: the fold of the tenant fingerprints "
                 "differs from its golden",
                 tenants);
}

Outcome
runSuite(Suite suite, const Settings &s)
{
    Outcome out;
    std::vector<Rep> reps;
    Prints prints;
    const std::uint64_t start = nowNs();
    do {
        Prints repPrints;
        reps.push_back(runSuiteRep(suite, s.seeds, s.scale, repPrints));
        if (reps.size() == 1)
            prints = std::move(repPrints);
        else
            comparePrints(repPrints, prints, "repetition", out.check);
    } while (secondsSince(start) < s.seconds);
    addEndToEnd(out, reps);
    if (s.seeds.isDefault())
        comparePrints(prints,
                      s.goldens.get(s.scale, suiteGoldenSet(suite)),
                      std::string(suiteName(suite)) + " vs golden",
                      out.check);
    crossCheckSuite(suite, s.seeds, s.scale, prints, false, out.check);
    return out;
}

Outcome
runServe(const Settings &s)
{
    Outcome out;
    const service::ServiceConfig config = serveConfig(s.seeds, s.scale);
    const std::uint64_t tenants = config.tenants.size();
    std::vector<Rep> reps;
    ServeRep first;
    const std::uint64_t start = nowNs();
    do {
        ServeRep rep = runServeRep(config);
        reps.push_back(rep.rep);
        if (reps.size() == 1)
            first = std::move(rep);
        else
            out.check.expect(rep.fold == first.fold,
                             "serve-4096: a repetition's fold differs "
                             "from the first's",
                             tenants);
    } while (secondsSince(start) < s.seconds);
    addEndToEnd(out, reps);
    checkServeGolden(s, first.fold, tenants, out.check);
    // fromSeed picks the selector by seed mod 7 and the sample stride
    // is prime to 7, so the samples cover all seven selectors.
    crossCheckServe(config, first, 64, out.check);
    return out;
}

/**
 * The traced run: the per-layer ledger over all four workloads, each
 * measured once untraced and once traced.
 */
Outcome
runLedger(const Settings &s)
{
    Outcome out;
    std::vector<Metric> bookkeeping;
    std::vector<double> builds;
    std::vector<SuiteTrace> traces;
    Prints livePrints;
    for (const Suite suite : kSuites) {
        const std::string name = suiteName(suite);
        Prints refPrints;
        const Rep ref = runSuiteRep(suite, s.seeds, s.scale, refPrints);
        SuiteTrace trace = traceSuite(suite, s.seeds, s.scale);
        comparePrints(trace.prints, refPrints,
                      name + " traced vs untraced", out.check);
        if (s.seeds.isDefault())
            comparePrints(trace.prints,
                          s.goldens.get(s.scale, suiteGoldenSet(suite)),
                          name + " traced vs golden", out.check);
        bookkeeping.push_back(
            {"trace.overhead." + name,
             1 - ratio(trace.events / trace.wallS,
                       ref.events / ref.wallS),
             "share"});
        bookkeeping.push_back(
            {"trace.unattributed_share." + name,
             (trace.wallS - trace.attributedS()) / trace.wallS,
             "share"});
        builds.push_back(trace.build.seconds());
        if (suite == Suite::Live)
            livePrints = std::move(refPrints);
        traces.push_back(std::move(trace));
    }
    const SuiteTrace &live = traces[0];
    const SuiteTrace &replay = traces[1];
    const SuiteTrace &churn = traces[2];

    const Dispositions disp = countDispositions(s.seeds, s.scale);
    comparePrints(disp.prints, livePrints,
                  "suite-live per-event vs batched", out.check);
    const auto events = static_cast<double>(
        disp.interpreted + disp.trace + disp.multipath);

    const service::ServiceConfig config = serveConfig(s.seeds, s.scale);
    const std::uint64_t tenants = config.tenants.size();
    const ServeRep serveRef = runServeRep(config);
    const ServeTrace serve = traceServe(config);
    out.check.expect(serve.fold == serveRef.fold,
                     "serve-4096 traced vs untraced: the folds differ",
                     tenants);
    checkServeGolden(s, serve.fold, tenants, out.check);
    bookkeeping.push_back(
        {"trace.overhead.serve-4096",
         1 - ratio(serve.events / serve.wallS,
                   serveRef.rep.events / serveRef.rep.wallS),
         "share"});
    bookkeeping.push_back(
        {"trace.unattributed_share.serve-4096",
         (serve.wallS - serve.attributedS()) / serve.wallS, "share"});

    const MicroRows micro = measureMicroRows();
    const auto count = [](std::uint64_t n) {
        return static_cast<double>(n);
    };
    const auto nsPerEvent = [&](double seconds, std::uint64_t n) {
        return ratio(seconds * 1e9, count(n));
    };
    out.metrics = {
        {"workloads.build_s", median(builds), "s"},
        {"program.executor.ns_per_event",
         nsPerEvent(live.produce.seconds(), live.events), "ns"},
        {"program.replayer.ns_per_event",
         nsPerEvent(replay.produce.seconds(), replay.events), "ns"},
        {"program.record_s", replay.record.seconds(), "s"},
        {"program.trace_bytes_per_event",
         ratio(count(replay.traceBytes), count(replay.recordedEvents)),
         "B"},
        {"dynopt.ns_per_event.suite-live",
         nsPerEvent(live.dynoptSelfS(), live.events), "ns"},
        {"dynopt.ns_per_event.suite-replay",
         nsPerEvent(replay.dynoptSelfS(), replay.events), "ns"},
        {"dynopt.interpreted_share", ratio(count(disp.interpreted), events),
         "share"},
        {"dynopt.trace_share", ratio(count(disp.trace), events), "share"},
        {"dynopt.multipath_share", ratio(count(disp.multipath), events),
         "share"},
        {"selection.calls", count(churn.select.spans), "count"},
        {"selection.ns_per_call",
         ratio(count(churn.select.ns), count(churn.select.spans)), "ns"},
        {"selection.self_s", churn.select.seconds(), "s"},
        {"selection.regions_out", count(churn.regionsOut), "count"},
        {"selection.multipath_out", count(churn.multipathOut), "count"},
        {"selection.history_buffer.ns_per_op", micro.historyBufferNsPerOp,
         "ns"},
        {"selection.compact_trace.encode_ns_per_block",
         micro.encodeNsPerBlock, "ns"},
        {"selection.compact_trace.decode_ns_per_block",
         micro.decodeNsPerBlock, "ns"},
        {"selection.region_cfg.mark_rejoining_us", micro.markRejoiningUs,
         "us"},
        {"runtime.cache.inserts", count(churn.inserts), "count"},
        {"runtime.cache.drops", count(churn.drops), "count"},
        {"runtime.cache.regen_ratio",
         ratio(count(churn.regenerations), count(churn.inserts)), "ratio"},
        {"metrics.finalize_s", serve.finalize.seconds(), "s"},
        {"testing.fingerprint_s", serve.fingerprint.seconds(), "s"},
        {"service.tenant_build_s", serve.build.seconds(), "s"},
        {"service.teardown_s", serve.teardown.seconds(), "s"},
        {"service.slice_us_p50", quantile(serve.sliceUs, 0.5), "us"},
        {"service.slice_us_p99", quantile(serve.sliceUs, 0.99), "us"},
        {"service.slice_samples", count(serve.sliceUs.size()), "count"},
        {"service.arena.admissions", count(serveRef.arena.admissions),
         "count"},
        {"service.arena.releases", count(serveRef.arena.releases),
         "count"},
        {"service.arena.shard_contention",
         count(serveRef.arena.shardContention), "count"},
        {"service.arena.high_water_bytes",
         count(serveRef.arena.highWaterBytes), "B"},
        // The serial drive's slice time over what the untraced pool had
        // to spend: a low share means hand-off or idle workers.
        {"driver.pool.busy_share",
         ratio(serve.offer.seconds(),
               static_cast<double>(config.jobs) * serveRef.sliceS),
         "share"},
    };
    out.metrics.insert(out.metrics.end(), bookkeeping.begin(),
                       bookkeeping.end());
    return out;
}

/**
 * Check the default-seed fingerprints by independent legs, then write
 * them: batched == per-event for every live and churn cell, live ==
 * replay for every cell, and for serve-4096 both
 * verifyServiceDeterminism and a solo rerun of every tenant of the
 * recorded run.
 */
int
recordGoldens(const std::string &path)
{
    const Seeds seeds;
    Goldens goldens;
    Check check;
    for (const Scale scale : {Scale::Small, Scale::Full}) {
        Prints live, churn, replay;
        runSuiteRep(Suite::Live, seeds, scale, live);
        crossCheckSuite(Suite::Live, seeds, scale, live, true, check);
        runSuiteRep(Suite::Churn, seeds, scale, churn);
        crossCheckSuite(Suite::Churn, seeds, scale, churn, true, check);
        runSuiteRep(Suite::Replay, seeds, scale, replay);
        comparePrints(replay, live, "live == replay", check);
        const service::ServiceConfig config = serveConfig(seeds, scale);
        const ServeRep serve = runServeRep(config);
        crossCheckServe(config, serve, config.tenants.size(), check);
        const std::string error =
            service::verifyServiceDeterminism(config);
        check.expect(error.empty(), "serve-4096: " + error,
                     config.tenants.size());
        goldens.put(scale, "live", live);
        goldens.put(scale, "churn", churn);
        goldens.put(scale, "serve", {{"fold", serve.fold}});
    }
    std::printf("golden legs: %llu fingerprints compared, %llu differ\n",
                static_cast<unsigned long long>(check.attempted),
                static_cast<unsigned long long>(check.failed));
    if (check.failed != 0) {
        std::fprintf(stderr, "FAIL: %s; goldens not written\n",
                     check.firstFailure.c_str());
        return ExitVerifyFailure;
    }
    goldens.save(path);
    std::printf("wrote %s\n", path.c_str());
    return ExitOk;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return out + "\"";
}

/** Every digit of `v`; JSON has no NaN, so a non-finite value reads 0. */
std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

/** Host, compiler, build type and revision of a run, so results from
 *  different hosts or builds are never compared silently. */
std::string
provenance(const std::string &workload, const Settings &s,
           const std::string &commit, std::size_t repetitions)
{
    char host[256] = "unknown";
    if (gethostname(host, sizeof host - 1) != 0)
        std::snprintf(host, sizeof host, "unknown");
    std::ostringstream os;
    os << "{\"host\": " << jsonString(host)
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"compiler\": " << jsonString(RSBENCH_COMPILER)
       << ", \"build_type\": " << jsonString(RSBENCH_BUILD_TYPE)
       << ", \"commit\": " << jsonString(commit)
       << ", \"workload\": " << jsonString(workload)
       << ", \"scale\": " << jsonString(scaleName(s.scale))
       << ", \"seeds\": {\"build\": " << s.seeds.build
       << ", \"exec\": " << s.seeds.exec
       << ", \"tenant\": " << s.seeds.tenant << "}"
       << ", \"repetitions\": " << repetitions << "}";
    return os.str();
}

/** The human-readable table, then provenance, then the JSON line. */
void
report(const std::string &workload, const Outcome &out,
       const std::string &prov)
{
    std::printf("rsbench %s: %zu repetition(s)\n", workload.c_str(),
                out.repetitions);
    for (const Metric &m : out.metrics)
        std::printf("  %-44s %20.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  %-44s %20.6f %s\n", "mismatch_share",
                ratio(static_cast<double>(out.check.failed),
                      static_cast<double>(out.check.attempted)),
                "share");
    if (!out.repRates.empty()) {
        std::printf("events_per_s by repetition:");
        for (const double rate : out.repRates)
            std::printf(" %.4g", rate);
        std::printf("\n");
    }
    std::printf("fingerprints: %llu compared, %llu differ\n",
                static_cast<unsigned long long>(out.check.attempted),
                static_cast<unsigned long long>(out.check.failed));
    if (out.check.failed != 0)
        std::fprintf(stderr, "FAIL: %s\n", out.check.firstFailure.c_str());
    std::printf("provenance %s\n", prov.c_str());
    std::ostringstream json;
    json << "{\"correct\": " << (out.check.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << out.check.attempted
         << ", \"failed\": " << out.check.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        json << (i == 0 ? "" : ", ") << jsonString(m.name)
             << ": {\"value\": " << jsonNumber(m.value)
             << ", \"unit\": " << jsonString(m.unit) << "}";
    }
    json << "}}";
    std::printf("%s\n", json.str().c_str());
    std::fflush(stdout);
}

/**
 * --seed n shifts the executor seed by n and the tenant seeds by n
 * whole populations; 0 keeps the golden inputs. The twelve suite
 * programs stay the paper-suite builds (build seed 42), so another
 * seed changes the guest streams, not the programs. The per-seed
 * options override the result.
 */
Seeds
seedsFrom(const CliOptions &cli, Scale scale)
{
    const std::uint64_t n = cli.getUint("seed");
    Seeds seeds;
    seeds.exec += n;
    seeds.tenant += n * serveTenants(scale);
    if (!cli.get("build-seed").empty())
        seeds.build = cli.getUint("build-seed");
    if (!cli.get("exec-seed").empty())
        seeds.exec = cli.getUint("exec-seed");
    if (!cli.get("tenant-seed").empty())
        seeds.tenant = cli.getUint("tenant-seed");
    return seeds;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli;
    cli.define("workload", "suite-live",
               "suite-live | suite-replay | suite-churn | serve-4096");
    cli.define("seed", "0",
               "input seed: 0 = the golden inputs, n shifts the "
               "executor and tenant seeds by n");
    cli.define("build-seed", "", "override the program-synthesis seed");
    cli.define("exec-seed", "", "override the executor seed");
    cli.define("tenant-seed", "", "override the first tenant seed");
    cli.define("seconds", "15",
               "repeat the workload until this many seconds passed");
    cli.define("trace", "0",
               "1 = the traced per-layer ledger of all four workloads");
    cli.define("scale", "full", "full | small (the self-test's sizes)");
    cli.define("goldens", "",
               "golden fingerprints file (needed at the default seeds)");
    cli.define("record-goldens", "",
               "check the default-seed fingerprints by independent "
               "legs, then write them to this file");
    cli.define("commit", "unknown",
               "source revision for the provenance line");
    try {
        cli.parse(argc, argv);
        if (cli.helpRequested()) {
            std::cout << cli.usage(argv[0]);
            return ExitOk;
        }
        if (!cli.get("record-goldens").empty())
            return recordGoldens(cli.get("record-goldens"));

        Settings s;
        const std::string scale = cli.get("scale");
        if (scale != "full" && scale != "small")
            fatal("--scale must be full or small, got '" + scale + "'");
        s.scale = scale == "full" ? Scale::Full : Scale::Small;
        s.seeds = seedsFrom(cli, s.scale);
        s.seconds = cli.getDouble("seconds");
        const std::uint64_t trace = cli.getUint("trace");
        if (trace > 1)
            fatal("--trace must be 0 or 1");
        if (s.seeds.isDefault()) {
            if (cli.get("goldens").empty())
                fatal("the default seeds are checked against goldens: "
                      "pass --goldens FILE");
            s.goldens = Goldens::load(cli.get("goldens"));
        }
        const std::string workload = cli.get("workload");
        const bool serve = workload == "serve-4096";
        const Suite suite = serve ? Suite::Live : parseSuite(workload);

        const Outcome out = trace == 1 ? runLedger(s)
                            : serve    ? runServe(s)
                                       : runSuite(suite, s);
        const std::string name = trace == 1 ? "ledger" : workload;
        report(name, out,
               provenance(name, s, cli.get("commit"), out.repetitions));
        return out.check.failed == 0 ? ExitOk : ExitVerifyFailure;
    } catch (const FatalError &e) {
        std::cerr << "error: " << e.what() << '\n';
        return ExitUsageError;
    } catch (const std::exception &e) {
        std::cerr << "runtime fault: " << e.what() << '\n';
        return ExitRuntimeFault;
    }
}
