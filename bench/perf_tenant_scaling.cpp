/**
 * @file
 * perf_tenant_scaling: throughput and hit rate of the multi-tenant
 * selection service as the tenant population grows.
 *
 * Measures sustained dynamic events/sec and the global hit rate at
 * 1, 16, 256 and 4096 tenants sharing one bounded sharded arena
 * (--quick shrinks the ladder and event counts for the perf-smoke
 * ctest entry). Per-tenant event budgets shrink as the population
 * grows so every rung does comparable total work.
 *
 * Methodology: the service times its own run with steady_clock; each
 * rung runs one untimed warmup repetition, then the median of
 * --reps timed repetitions is reported (see bench_util.hpp). A rung's
 * setup_s is the median of runService's wall time minus the time the
 * service reports for its own run: building, finishing and tearing
 * down the tenants. The record's peak_rss_mb is the process's
 * resident high-water mark after the ladder, which the largest rung
 * sets.
 *
 * Before any timing, the binary re-verifies the service's
 * determinism contract (every tenant fingerprint == its solo run,
 * with faults armed on half the tenants) and prints "determinism
 * ok" — a throughput number from a service that corrupts its
 * tenants would be meaningless.
 *
 * Results land in BENCH_perf_tenant_scaling.json (--json PATH) for
 * CI trend tracking.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "bench_util.hpp"
#include "service/selection_service.hpp"
#include "support/error.hpp"
#include "support/exit_codes.hpp"

using namespace rsel;
using namespace rsel::bench;
using namespace rsel::service;

namespace {

struct ScaleRow
{
    std::size_t tenants = 0;
    std::uint64_t eventsPerTenant = 0;
    std::uint64_t totalEvents = 0;
    double seconds = 0;
    double eventsPerSec = 0;
    double globalHitRate = 0;
    double setupSeconds = 0;
    std::uint64_t quotaBytes = 0;
    std::uint64_t arenaHighWater = 0;
    std::uint64_t shardContention = 0;
    std::size_t jobs = 0;
};

/** Resident-set high-water mark of this process, in MiB. */
double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

ServiceConfig
makeConfig(std::size_t tenants, std::uint64_t eventsPerTenant,
           std::uint64_t cacheKb, std::size_t jobs, bool faults)
{
    ServiceConfig config;
    config.tenants.reserve(tenants);
    for (std::size_t i = 0; i < tenants; ++i) {
        TenantSpec spec = TenantSpec::fromSeed(1 + i);
        // Arm derived fault plans on every other tenant so the
        // ladder (and the determinism gate) exercises recovery
        // under multi-tenancy, not just the happy path.
        if (faults && i % 2 == 1)
            spec.faults = resilience::FaultPlan::fromSeed(1 + i);
        config.tenants.push_back(spec);
    }
    config.jobs = jobs;
    config.cacheKb = cacheKb;
    config.eventsOverride = eventsPerTenant;
    return config;
}

ScaleRow
measureRung(std::size_t tenants, std::uint64_t eventsPerTenant,
            std::uint64_t cacheKb, std::size_t jobs, int reps)
{
    const ServiceConfig config =
        makeConfig(tenants, eventsPerTenant, cacheKb, jobs, true);
    ScaleRow row;
    row.tenants = tenants;
    row.eventsPerTenant = eventsPerTenant;

    runService(config); // warmup (cold allocator, lazy pool pages)
    std::vector<double> epsSamples;
    std::vector<double> secSamples;
    std::vector<double> setupSamples;
    for (int r = 0; r < reps; ++r) {
        const std::uint64_t start = nowNanos();
        const ServiceReport report = runService(config);
        const double wallSeconds =
            static_cast<double>(nowNanos() - start) * 1e-9;
        epsSamples.push_back(report.eventsPerSec);
        secSamples.push_back(report.seconds);
        setupSamples.push_back(wallSeconds - report.seconds);
        // The service's own figures: the quota it granted (at least
        // one byte, ShardedCodeCache::limitsFor) and the worker
        // count it resolved --jobs 0 to.
        row.quotaBytes = report.quotaBytes;
        row.jobs = report.jobs;
        row.totalEvents = report.totalEvents;
        row.globalHitRate = report.globalHitRate;
        row.arenaHighWater = report.arena.highWaterBytes;
        row.shardContention = report.arena.shardContention;
    }
    row.eventsPerSec = medianOf(epsSamples);
    row.seconds = medianOf(secSamples);
    row.setupSeconds = medianOf(setupSamples);
    return row;
}

void
writeJson(const std::string &path, std::uint64_t cacheKb, int reps,
          const std::vector<ScaleRow> &rows, double peakRss)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot write JSON to '" + path + "'");
    os << "{\n"
       << "  \"bench\": \"perf_tenant_scaling\",\n"
       << "  \"jobs\": " << rows.front().jobs << ",\n"
       << "  \"cache_kb\": " << cacheKb << ",\n"
       << "  \"timed_reps\": " << reps << ",\n"
       << "  \"timer\": \"steady_clock, median of reps after "
          "warmup\",\n"
       << "  \"peak_rss_mb\": " << peakRss << ",\n"
       << "  \"scaling\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ScaleRow &r = rows[i];
        os << "    {\"tenants\": " << r.tenants
           << ", \"events_per_tenant\": " << r.eventsPerTenant
           << ", \"total_events\": " << r.totalEvents
           << ", \"seconds\": " << r.seconds
           << ", \"setup_s\": " << r.setupSeconds
           << ", \"events_per_sec\": "
           << static_cast<std::uint64_t>(r.eventsPerSec)
           << ", \"global_hit_rate\": " << r.globalHitRate
           << ", \"quota_bytes\": " << r.quotaBytes
           << ", \"arena_high_water_bytes\": " << r.arenaHighWater
           << ", \"shard_contention\": " << r.shardContention
           << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli;
    cli.define("quick", "false",
               "smoke mode: smaller ladder and event counts");
    cli.define("jobs", "0",
               "pool workers (0 = hardware concurrency)");
    cli.define("cache-kb", "1024",
               "global arena bound in KiB, partitioned per tenant");
    cli.define("reps", "5", "timed repetitions (median is reported)");
    cli.define("json", "BENCH_perf_tenant_scaling.json",
               "output path for the JSON result record");
    try {
        cli.parse(argc, argv);
        if (cli.helpRequested()) {
            std::fputs(cli.usage(argv[0]).c_str(), stdout);
            return ExitOk;
        }
        const bool quick = cli.getBool("quick");
        const std::size_t jobs =
            static_cast<std::size_t>(cli.getUint("jobs"));
        const std::uint64_t cacheKb = cli.getUint("cache-kb");
        const int reps =
            quick ? 2 : static_cast<int>(cli.getInt("reps"));

        // Determinism gate first: fingerprints at a contended scale
        // (16 tenants, faults armed on half) must equal solo runs.
        {
            const std::string error = verifyServiceDeterminism(
                makeConfig(16, quick ? 2000 : 8000, cacheKb, jobs,
                           true));
            if (!error.empty()) {
                std::fprintf(stderr, "FAIL: %s\n", error.c_str());
                return ExitRuntimeFault;
            }
            std::printf("determinism ok: 16 tenants byte-identical "
                        "to solo runs\n");
        }

        // The ladder: total work per rung stays comparable by
        // shrinking the per-tenant budget as the population grows.
        struct Rung
        {
            std::size_t tenants;
            std::uint64_t events;
        };
        const std::vector<Rung> ladder =
            quick ? std::vector<Rung>{{1, 20000},
                                      {8, 4000},
                                      {64, 1000}}
                  : std::vector<Rung>{{1, 400000},
                                      {16, 50000},
                                      {256, 4000},
                                      {4096, 500}};

        std::vector<ScaleRow> rows;
        std::printf("%8s %12s %14s %10s %12s\n", "tenants",
                    "events/ten", "events/sec", "hit rate",
                    "contention");
        for (const Rung &rung : ladder) {
            const ScaleRow row = measureRung(
                rung.tenants, rung.events, cacheKb, jobs, reps);
            std::printf("%8zu %12llu %14.0f %9.2f%% %12llu\n",
                        row.tenants,
                        static_cast<unsigned long long>(
                            row.eventsPerTenant),
                        row.eventsPerSec,
                        row.globalHitRate * 100.0,
                        static_cast<unsigned long long>(
                            row.shardContention));
            rows.push_back(row);
        }

        writeJson(cli.get("json"), cacheKb, reps, rows, peakRssMb());
        std::printf("json: %s\n", cli.get("json").c_str());
        return ExitOk;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return ExitUsageError;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "runtime fault: %s\n", e.what());
        return ExitRuntimeFault;
    }
}
