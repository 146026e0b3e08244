/**
 * @file
 * rselect-serve: the multi-tenant selection service CLI.
 *
 * Runs N guest streams (tenants) concurrently over one shared,
 * sharded, bounded code cache and reports throughput, the global
 * hit rate and per-tenant metrics. Tenants come from a spec file
 * (--spec-file, one TenantSpec line per tenant) or are derived
 * deterministically from seeds (--tenants N --seed-base S).
 *
 *     rselect-serve --tenants 16 --cache-kb 64 --jobs 8
 *     rselect-serve --spec-file tenants.txt --json out.json
 *     rselect-serve --tenants 8 --fault-fuzz --verify-solo
 *     rselect-serve --tenants 8 --chaos-seed 7 --verify-solo
 *     rselect-serve --tenants 16 --max-inflight 4 --slice-budget 32
 *
 * The service's load-bearing contract: every tenant's result is
 * byte-identical to a solo single-tenant run of the same spec and
 * quota-derived cache limits, at any --jobs count, for every
 * selector, including under fault plans. --verify-solo re-runs each
 * tenant solo and compares fingerprints (exit 3 on divergence);
 * --self-test mismatch sabotages the comparison to prove the oracle
 * can fail.
 *
 * Exit codes: 0 = clean, 1 = runtime fault, 2 = usage error,
 * 3 = verification failure.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "service/selection_service.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/exit_codes.hpp"
#include "testing/differential.hpp"

using namespace rsel;
using namespace rsel::service;

namespace {

std::vector<TenantSpec>
buildTenants(const CliOptions &cli)
{
    std::vector<TenantSpec> tenants;
    if (!cli.get("spec-file").empty()) {
        std::ifstream in(cli.get("spec-file"));
        if (!in)
            fatal("cannot open tenant spec file '" +
                  cli.get("spec-file") + "'");
        tenants = loadTenantSpecs(in);
    } else {
        const std::uint64_t count = cli.getUint("tenants");
        if (count == 0)
            fatal("--tenants must be at least 1");
        const std::uint64_t base = cli.getUint("seed-base");
        tenants.reserve(count);
        for (std::uint64_t i = 0; i < count; ++i)
            tenants.push_back(TenantSpec::fromSeed(base + i));
    }

    // Fault arming: one fixed plan for every tenant, or one derived
    // plan per tenant (seeded like the fuzz harness pairs seeds).
    if (!cli.get("fault-spec").empty()) {
        if (cli.getBool("fault-fuzz"))
            fatal("--fault-fuzz and --fault-spec are mutually "
                  "exclusive");
        const resilience::FaultPlan plan =
            resilience::FaultPlan::parse(cli.get("fault-spec"));
        for (TenantSpec &spec : tenants)
            spec.faults = plan;
    } else if (cli.getBool("fault-fuzz")) {
        const std::uint64_t base = cli.getUint("seed-base");
        for (std::size_t i = 0; i < tenants.size(); ++i)
            tenants[i].faults = resilience::FaultPlan::fromSeed(
                base + static_cast<std::uint64_t>(i));
    }
    return tenants;
}

ServiceConfig
buildConfig(const CliOptions &cli)
{
    ServiceConfig config;
    config.tenants = buildTenants(cli);
    config.jobs = static_cast<std::size_t>(cli.getUint("jobs"));
    config.cacheKb = cli.getUint("cache-kb");
    cacheBytesFromKb(config.cacheKb, "--cache-kb");
    config.shards = static_cast<std::size_t>(cli.getUint("shards"));
    if (config.shards == 0)
        fatal("--shards must be at least 1");
    if (cli.get("policy") == "fifo")
        config.policy = CacheLimits::Policy::Fifo;
    else if (cli.get("policy") == "flush")
        config.policy = CacheLimits::Policy::FullFlush;
    else
        fatal("--policy must be 'flush' or 'fifo'");
    config.sliceEvents = cli.getUint("slice");
    config.eventsOverride = cli.getUint("events");

    // Chaos arming: one fixed plan (--chaos-spec, parse errors are
    // usage errors) or a seed-derived one (--chaos-seed).
    if (!cli.get("chaos-spec").empty()) {
        if (cli.getUint("chaos-seed") != 0)
            fatal("--chaos-spec and --chaos-seed are mutually "
                  "exclusive");
        config.chaos = ChaosPlan::parse(cli.get("chaos-spec"));
    } else if (cli.getUint("chaos-seed") != 0) {
        config.chaos =
            ChaosPlan::fromSeed(cli.getUint("chaos-seed"));
    }

    config.overload.maxInflight =
        static_cast<std::size_t>(cli.getUint("max-inflight"));
    config.overload.sliceBudget = cli.getUint("slice-budget");
    return config;
}

/**
 * Oracle self-test: sabotage the solo leg of tenant 0 (different
 * executor seed) and demand the fingerprint comparison FAILS. A
 * comparison that cannot fail verifies nothing.
 */
int
runSelfTest(ServiceConfig config)
{
    const ServiceReport report = runService(config);
    TenantSpec sabotaged = config.tenants[0];
    sabotaged.program.execSeed += 1;
    const SimResult solo =
        soloTenantRun(sabotaged, tenantLimitsFor(config, sabotaged),
                      config.eventsOverride);
    if (report.tenants[0].fingerprint ==
        testing::resultFingerprint(solo)) {
        std::fprintf(stderr,
                     "self-test FAILED: sabotaged solo run still "
                     "matched the service fingerprint\n");
        return ExitRuntimeFault;
    }
    std::printf("self-test: sabotaged comparison diverged as "
                "expected\n");
    return ExitVerifyFailure;
}

/**
 * Chaos-oracle self-test: force a crash-everything plan, prove the
 * chaos oracle passes cleanly, then sabotage the restart oracle's
 * replay position by one event and demand divergence.
 */
int
runChaosSelfTest(ServiceConfig config)
{
    config.chaos = ChaosPlan::parse("c1,crash=1000,window=4");
    const std::string error = verifyServiceDeterminism(config);
    if (!error.empty()) {
        std::fprintf(stderr,
                     "self-test FAILED: chaos oracle did not pass "
                     "cleanly: %s\n",
                     error.c_str());
        return ExitRuntimeFault;
    }
    const ServiceReport report = runService(config);
    const TenantReport &tr = report.tenants[0];
    // One event past the true replay position: the fresh solo run
    // consumes one event fewer, so the fingerprints must differ.
    const TenantSpec &spec = config.tenants[0];
    const SimResult solo = soloTenantRun(
        spec, tenantLimitsFor(config, spec), config.eventsOverride,
        tr.chaos.restartFromEvent + 1);
    if (tr.fingerprint == testing::resultFingerprint(solo)) {
        std::fprintf(stderr,
                     "self-test FAILED: sabotaged replay position "
                     "still matched the service fingerprint\n");
        return ExitRuntimeFault;
    }
    std::printf("self-test: sabotaged chaos comparison diverged as "
                "expected\n");
    return ExitVerifyFailure;
}

void
printSummary(const ServiceConfig &config, const ServiceReport &report)
{
    std::printf("tenants: %zu, jobs: %zu, shards: %zu\n",
                report.tenants.size(), report.jobs,
                report.arena.shardCount);
    if (config.cacheKb > 0)
        std::printf("global cache: %llu KiB (quota %llu B/tenant)\n",
                    static_cast<unsigned long long>(config.cacheKb),
                    static_cast<unsigned long long>(
                        report.quotaBytes));
    else
        std::printf("global cache: unbounded (per-spec limits)\n");
    std::printf("events: %llu in %.3f s (%.0f events/s)\n",
                static_cast<unsigned long long>(report.totalEvents),
                report.seconds, report.eventsPerSec);
    std::printf("global hit rate: %.2f%%\n",
                report.globalHitRate * 100.0);
    std::printf("arena: high water %llu B, %llu admissions, "
                "%llu releases, %llu shard contentions\n",
                static_cast<unsigned long long>(
                    report.arena.highWaterBytes),
                static_cast<unsigned long long>(
                    report.arena.admissions),
                static_cast<unsigned long long>(
                    report.arena.releases),
                static_cast<unsigned long long>(
                    report.arena.shardContention));
    if (config.overload.healthEnabled(config.chaos.armed())) {
        std::printf("chaos: %llu aborts, %llu restarts, "
                    "%llu quarantines, %llu squeezes (%s)\n",
                    static_cast<unsigned long long>(
                        report.chaos.aborts),
                    static_cast<unsigned long long>(
                        report.chaos.restarts),
                    static_cast<unsigned long long>(
                        report.chaos.quarantines),
                    static_cast<unsigned long long>(
                        report.chaos.squeezes),
                    config.chaos.toString().c_str());
        std::printf("overload: %llu scheduled, %llu shed, "
                    "%llu completed, %llu blacklisted slices; "
                    "%llu degraded, %llu blacklisted tenants\n",
                    static_cast<unsigned long long>(
                        report.chaos.scheduledSlices),
                    static_cast<unsigned long long>(
                        report.chaos.shedSlices),
                    static_cast<unsigned long long>(
                        report.chaos.completedSlices),
                    static_cast<unsigned long long>(
                        report.chaos.blacklistedSlices),
                    static_cast<unsigned long long>(
                        report.chaos.degradedTenants),
                    static_cast<unsigned long long>(
                        report.chaos.blacklistedTenants));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli;
    cli.define("tenants", "4",
               "number of seed-derived tenants (ignored with "
               "--spec-file)");
    cli.define("seed-base", "1",
               "first seed of the derived tenant range");
    cli.define("spec-file", "",
               "tenant spec file: one TenantSpec line per tenant");
    cli.define("jobs", "0",
               "pool workers (0 = hardware concurrency, 1 = serial)");
    cli.define("cache-kb", "0",
               "global code-cache bound in KiB, partitioned "
               "equally across tenants (0 = unbounded)");
    cli.define("shards", "16", "arena shard count");
    cli.define("policy", "flush",
               "per-quota eviction policy: flush | fifo");
    cli.define("slice", "4096", "events per scheduling slice");
    cli.define("events", "0",
               "override every tenant's event budget (0 = per-spec)");
    cli.define("fault-spec", "",
               "arm one fixed fault plan on every tenant");
    cli.define("fault-fuzz", "false",
               "arm a per-tenant derived fault plan "
               "(FaultPlan::fromSeed)");
    cli.define("chaos-spec", "",
               "arm a fixed service-level chaos plan "
               "(\"c1,crash=300,quar=200,...\")");
    cli.define("chaos-seed", "0",
               "derive the chaos plan from a seed "
               "(ChaosPlan::fromSeed; 0 = off)");
    cli.define("max-inflight", "0",
               "bounded admission: tenants granted a slice per "
               "round (0 = unbounded)");
    cli.define("slice-budget", "0",
               "slices per tenant before degradation to "
               "interpretation (0 = no budget)");
    cli.define("json", "", "write the JSON report to this path");
    cli.define("verify-solo", "false",
               "re-run every tenant solo and compare fingerprints "
               "(exit 3 on divergence; chaos-aware when a chaos "
               "plan or overload knob is armed)");
    cli.define("self-test", "none",
               "oracle self-test: none | mismatch | chaos "
               "(sabotages a solo leg and expects exit 3)");

    try {
        cli.parse(argc, argv);
        if (cli.helpRequested()) {
            std::fputs(cli.usage(argv[0]).c_str(), stdout);
            return ExitOk;
        }
        const ServiceConfig config = buildConfig(cli);

        // A bare `--json` parses as the boolean "true", which would
        // silently become a report file named "true".
        if (cli.get("json") == "true")
            fatal("--json requires a path argument");

        if (cli.get("self-test") == "mismatch")
            return runSelfTest(config);
        if (cli.get("self-test") == "chaos")
            return runChaosSelfTest(config);
        if (cli.get("self-test") != "none")
            fatal("--self-test must be 'none', 'mismatch' or "
                  "'chaos'");

        if (cli.getBool("verify-solo")) {
            // Each tenant against the reference leg picked by what
            // actually touched it, plus the accounting identities.
            const std::string error = verifyServiceDeterminism(config);
            if (!error.empty()) {
                std::fprintf(stderr, "verify-solo FAILED: %s\n",
                             error.c_str());
                return ExitVerifyFailure;
            }
            std::printf("verify-solo: %zu tenants byte-identical "
                        "to their reference runs\n",
                        config.tenants.size());
        }

        const ServiceReport report = runService(config);
        printSummary(config, report);
        if (!cli.get("json").empty()) {
            std::ofstream out(cli.get("json"));
            if (!out)
                fatal("cannot write JSON report to '" +
                      cli.get("json") + "'");
            writeServiceReportJson(out, config, report);
            std::printf("json: %s\n", cli.get("json").c_str());
        }
        return ExitOk;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return ExitUsageError;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "runtime fault: %s\n", e.what());
        return ExitRuntimeFault;
    }
}
