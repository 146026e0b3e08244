/**
 * @file
 * table_service_degradation: graceful degradation of the
 * multi-tenant selection service under the service-level chaos
 * plan (robustness extension, not a paper figure).
 *
 * A chaos-intensity ladder — none / light / moderate / heavy —
 * arms progressively harsher crash-with-restart, shard-quarantine
 * and memory-squeeze plans plus tightening overload control
 * (bounded admission, slice budgets), at 16 and 256 tenants over
 * one bounded sharded arena. The table reports sustained events/s,
 * the global hit rate and the shed rate per rung: hit rate must
 * fall monotonically with intensity while every run completes and
 * every surviving tenant stays byte-identical to its reference leg.
 *
 * Methodology: the service times its own run with steady_clock;
 * each rung runs one untimed warmup repetition, then the median of
 * --reps timed repetitions is reported (see bench_util.hpp).
 *
 * Before any timing, the binary re-verifies the chaos oracle
 * (verifyServiceDeterminism on the moderate rung) and prints
 * "determinism ok" — a degradation curve from a service that
 * corrupts its tenants would be meaningless.
 *
 * Results land in BENCH_table_service_degradation.json (--json
 * PATH) for CI trend tracking.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "service/selection_service.hpp"
#include "support/error.hpp"
#include "support/exit_codes.hpp"

using namespace rsel;
using namespace rsel::bench;
using namespace rsel::service;

namespace {

/** One rung of the chaos-intensity ladder. */
struct ChaosLevel
{
    const char *name;
    /** Chaos plan (empty = disarmed). */
    const char *spec;
    /** Admission bound as a fraction of the population
     *  (numerator/denominator; 0/1 = unbounded). */
    std::size_t inflightNum;
    std::size_t inflightDen;
    /** Halve the per-tenant slice budget (degrade-to-interp). */
    bool budgeted;
};

const ChaosLevel kLevels[] = {
    {"none", "", 0, 1, false},
    {"light", "c1,crash=150,window=12", 0, 1, false},
    {"moderate",
     "c1,crash=300,quar=400,quarlen=4,sqdiv=2,sqat=2,sqlen=6,"
     "window=8",
     3, 4, false},
    {"heavy",
     "c1,crash=500,quar=700,quarlen=8,sqdiv=8,sqat=2,sqlen=12,"
     "window=4",
     1, 2, true},
};

struct DegradationRow
{
    std::string level;
    std::size_t tenants = 0;
    std::uint64_t eventsPerTenant = 0;
    std::uint64_t totalEvents = 0;
    double seconds = 0;
    double eventsPerSec = 0;
    double globalHitRate = 0;
    double shedRate = 0;
    std::uint64_t restarts = 0;
    std::uint64_t quarantines = 0;
    std::uint64_t squeezes = 0;
    std::uint64_t degradedTenants = 0;
    std::uint64_t blacklistedTenants = 0;
};

ServiceConfig
makeConfig(const ChaosLevel &level, std::size_t tenants,
           std::uint64_t eventsPerTenant, std::uint64_t cacheKb,
           std::size_t jobs)
{
    ServiceConfig config;
    config.tenants.reserve(tenants);
    for (std::size_t i = 0; i < tenants; ++i)
        config.tenants.push_back(TenantSpec::fromSeed(1 + i));
    config.jobs = jobs;
    config.cacheKb = cacheKb;
    config.eventsOverride = eventsPerTenant;
    config.sliceEvents = 1024;
    if (level.spec[0] != '\0')
        config.chaos = ChaosPlan::parse(level.spec);
    if (level.inflightNum != 0)
        config.overload.maxInflight =
            std::max<std::size_t>(
                1, tenants * level.inflightNum / level.inflightDen);
    if (level.budgeted) {
        // Half the slices a full run needs: the second half of
        // every long guest drains through pure interpretation.
        const std::uint64_t slices =
            eventsPerTenant / config.sliceEvents;
        config.overload.sliceBudget =
            std::max<std::uint64_t>(1, slices / 2);
    }
    return config;
}

DegradationRow
measureRung(const ChaosLevel &level, std::size_t tenants,
            std::uint64_t eventsPerTenant, std::uint64_t cacheKb,
            std::size_t jobs, int reps)
{
    const ServiceConfig config =
        makeConfig(level, tenants, eventsPerTenant, cacheKb, jobs);
    DegradationRow row;
    row.level = level.name;
    row.tenants = tenants;
    row.eventsPerTenant = eventsPerTenant;

    runService(config); // warmup (cold allocator, lazy pool pages)
    std::vector<double> epsSamples;
    std::vector<double> secSamples;
    for (int r = 0; r < reps; ++r) {
        const ServiceReport report = runService(config);
        epsSamples.push_back(report.eventsPerSec);
        secSamples.push_back(report.seconds);
        row.totalEvents = report.totalEvents;
        row.globalHitRate = report.globalHitRate;
        row.shedRate =
            report.chaos.scheduledSlices == 0
                ? 0.0
                : static_cast<double>(report.chaos.shedSlices) /
                      static_cast<double>(
                          report.chaos.scheduledSlices);
        row.restarts = report.chaos.restarts;
        row.quarantines = report.chaos.quarantines;
        row.squeezes = report.chaos.squeezes;
        row.degradedTenants = report.chaos.degradedTenants;
        row.blacklistedTenants = report.chaos.blacklistedTenants;
    }
    row.eventsPerSec = medianOf(epsSamples);
    row.seconds = medianOf(secSamples);
    return row;
}

void
writeJson(const std::string &path, std::size_t jobs,
          std::uint64_t cacheKb, int reps,
          const std::vector<DegradationRow> &rows)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot write JSON to '" + path + "'");
    os << "{\n"
       << "  \"bench\": \"table_service_degradation\",\n"
       << "  \"jobs\": " << jobs << ",\n"
       << "  \"cache_kb\": " << cacheKb << ",\n"
       << "  \"timed_reps\": " << reps << ",\n"
       << "  \"timer\": \"steady_clock, median of reps after "
          "warmup\",\n"
       << "  \"degradation\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const DegradationRow &r = rows[i];
        os << "    {\"level\": \"" << r.level << "\""
           << ", \"tenants\": " << r.tenants
           << ", \"events_per_tenant\": " << r.eventsPerTenant
           << ", \"total_events\": " << r.totalEvents
           << ", \"seconds\": " << r.seconds
           << ", \"events_per_sec\": "
           << static_cast<std::uint64_t>(r.eventsPerSec)
           << ", \"global_hit_rate\": " << r.globalHitRate
           << ", \"shed_rate\": " << r.shedRate
           << ", \"restarts\": " << r.restarts
           << ", \"quarantines\": " << r.quarantines
           << ", \"squeezes\": " << r.squeezes
           << ", \"degraded_tenants\": " << r.degradedTenants
           << ", \"blacklisted_tenants\": " << r.blacklistedTenants
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
               "smoke mode: one population, fewer events");
    cli.define("jobs", "0",
               "pool workers (0 = hardware concurrency)");
    cli.define("cache-kb", "256",
               "global arena bound in KiB, partitioned per tenant");
    cli.define("reps", "5", "timed repetitions (median is reported)");
    cli.define("json", "BENCH_table_service_degradation.json",
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

        // Chaos oracle first: the moderate rung at 16 tenants —
        // crashes, quarantines, squeezes and bounded admission all
        // armed — must stay byte-identical to its reference legs.
        {
            const std::string error = verifyServiceDeterminism(makeConfig(
                kLevels[2], 16, quick ? 4000 : 12000, cacheKb, jobs));
            if (!error.empty()) {
                std::fprintf(stderr, "FAIL: %s\n", error.c_str());
                return ExitRuntimeFault;
            }
            std::printf("determinism ok: 16 tenants byte-identical "
                        "to their chaos reference legs\n");
        }

        struct Population
        {
            std::size_t tenants;
            std::uint64_t events;
        };
        const std::vector<Population> populations =
            quick ? std::vector<Population>{{16, 4000}}
                  : std::vector<Population>{{16, 20000},
                                            {256, 2500}};

        std::vector<DegradationRow> rows;
        std::printf("%8s %8s %14s %10s %10s %9s %9s %9s\n", "level",
                    "tenants", "events/sec", "hit rate", "shed rate",
                    "restarts", "quarant.", "squeezes");
        for (const Population &pop : populations) {
            for (const ChaosLevel &level : kLevels) {
                const DegradationRow row =
                    measureRung(level, pop.tenants, pop.events,
                                cacheKb, jobs, reps);
                std::printf(
                    "%8s %8zu %14.0f %9.2f%% %9.2f%% %9llu %9llu "
                    "%9llu\n",
                    row.level.c_str(), row.tenants, row.eventsPerSec,
                    row.globalHitRate * 100.0, row.shedRate * 100.0,
                    static_cast<unsigned long long>(row.restarts),
                    static_cast<unsigned long long>(row.quarantines),
                    static_cast<unsigned long long>(row.squeezes));
                rows.push_back(row);
            }
        }

        writeJson(cli.get("json"), jobs, cacheKb, reps, rows);
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
