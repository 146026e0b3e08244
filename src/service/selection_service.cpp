#include "service/selection_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iomanip>
#include <limits>
#include <memory>
#include <ostream>
#include <sstream>

#include "driver/thread_pool.hpp"
#include "program/executor.hpp"
#include "service/overload.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "testing/differential.hpp"
#include "testing/random_program.hpp"

namespace rsel {
namespace service {

namespace {

/** FNV-1a of a fingerprint, so 4096-tenant JSON stays small while
 *  still diffing across runs. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
hex16(std::uint64_t v)
{
    std::ostringstream ss;
    ss << std::hex << std::setw(16) << std::setfill('0') << v;
    return ss.str();
}

const char *
policyName(CacheLimits::Policy policy)
{
    return policy == CacheLimits::Policy::Fifo ? "fifo" : "flush";
}

/** The arena geometry `config` asks for. */
ArenaConfig
arenaConfigFor(const ServiceConfig &config)
{
    ArenaConfig cfg;
    cfg.capacityBytes = cacheBytesFromKb(config.cacheKb, "cacheKb");
    cfg.shardCount = config.shards;
    cfg.policy = config.policy;
    return cfg;
}

std::uint64_t
sliceEventsFor(const ServiceConfig &config)
{
    return config.sliceEvents != 0 ? config.sliceEvents
                                   : defaultBatchSize;
}

std::size_t
workersFor(const ServiceConfig &config)
{
    return config.jobs != 0 ? config.jobs
                            : ThreadPool::hardwareWorkers();
}

/** The run's one pool, or none when it is serial. */
std::unique_ptr<ThreadPool>
poolFor(std::size_t workers)
{
    if (workers <= 1)
        return nullptr;
    return std::make_unique<ThreadPool>(workers);
}

} // namespace

CacheLimits
tenantLimitsFor(const ServiceConfig &config, const TenantSpec &spec)
{
    if (config.cacheKb > 0) {
        // Bounded service: the arena's quota partition, computed by
        // the one shared routine so this can never drift from what
        // runService hands its tenants.
        return ShardedCodeCache::limitsFor(arenaConfigFor(config),
                                           config.tenants.size());
    }
    // Unbounded service: each tenant honours its own spec's cache
    // bound, exactly as the differential oracle maps GenSpec to
    // SimOptions (policy and stub model at their defaults).
    CacheLimits limits;
    limits.capacityBytes =
        cacheBytesFromKb(spec.program.cacheKb, "spec field \"cachekb\"");
    return limits;
}

std::uint64_t
squeezedCapacityFor(const ServiceConfig &config,
                    const TenantSpec &spec, std::uint32_t factor)
{
    const CacheLimits base = tenantLimitsFor(config, spec);
    if (factor <= 1 || base.capacityBytes == 0)
        return base.capacityBytes; // no squeeze / unbounded: no-op
    if (config.cacheKb > 0) {
        // Bounded arena: the squeeze models `factor` times the
        // tenant population crowding in — computed through the one
        // shared partition routine, like everything quota-shaped.
        return ShardedCodeCache::limitsFor(
                   arenaConfigFor(config),
                   config.tenants.size() * factor)
            .capacityBytes;
    }
    // Unbounded arena, bounded tenant: shrink the tenant's own
    // bound. Never to zero — zero means "unbounded" to CodeCache.
    return std::max<std::uint64_t>(base.capacityBytes / factor, 1);
}

namespace {

/** One conductor per tenant, schedules and squeeze capacities
 *  derived the same way for the service and the solo chaos leg. */
std::unique_ptr<TenantConductor>
makeConductor(const ServiceConfig &config, std::size_t index,
              ShardedCodeCache &arena, std::uint64_t slice)
{
    const TenantSpec &spec = config.tenants[index];
    const ChaosSchedule schedule = config.chaos.scheduleFor(index);
    return std::make_unique<TenantConductor>(
        spec, tenantLimitsFor(config, spec),
        squeezedCapacityFor(config, spec,
                            schedule.squeeze ? schedule.squeezeFactor
                                             : 1),
        arena, slice, config.eventsOverride, schedule,
        config.overload);
}

} // namespace

ServiceReport
runService(const ServiceConfig &config)
{
    if (config.tenants.empty())
        fatal("the service needs at least one tenant");
    const std::size_t n = config.tenants.size();

    ShardedCodeCache arena(arenaConfigFor(config));
    const std::uint64_t slice = sliceEventsFor(config);
    const std::size_t workers = workersFor(config);
    // One pool for the whole run: every lifecycle step below costs
    // one tenant's own state, so each runs per tenant on the pool.
    const std::unique_ptr<ThreadPool> pool = poolFor(workers);

    // Tenants are built concurrently, so arena ids follow build
    // completion, not tenant order. Nothing depends on an id's
    // value: shards hash the entrance, quarantine shards come from
    // the schedule, and report rows are indexed by tenant. Warm
    // restarts register replacement ids mid-traffic too, under the
    // arena's one mutex like every other account change. Conductors
    // are declared after the arena so their destructors (which lift
    // any pending quarantine) run first.
    std::vector<std::unique_ptr<TenantConductor>> conductors(n);
    forEachIndex(pool.get(), n, [&](std::size_t i) {
        conductors[i] = makeConductor(config, i, arena, slice);
    });

    // Round-based: each round offers one slice to every pending
    // tenant, in tenant order. Bounded admission grants only the
    // first maxInflight of them and sheds the rest, starting one
    // tenant further each round: a deterministic round-robin,
    // because the pending set is itself a per-tenant deterministic
    // function of the slice clock. A conductor appears at most once
    // per round, so it never runs on two workers at once: that is
    // the conductor's single-owner capability (its mu_) the analyze
    // preset checks, and MutexSoleLock panics if two workers ever
    // offer one conductor at the same time.
    const std::size_t bound = config.overload.maxInflight;
    std::vector<std::size_t> grants;
    std::size_t cursor = 0;
    const auto start = std::chrono::steady_clock::now();
    for (;;) {
        grants.clear();
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t i = (cursor + k) % n;
            if (conductors[i]->done())
                continue;
            if (bound == 0 || grants.size() < bound)
                grants.push_back(i);
            else
                conductors[i]->recordAdmissionShed();
        }
        if (grants.empty())
            break;
        // The round barrier: forEachIndex returns once every granted
        // slice has run.
        forEachIndex(pool.get(), grants.size(), [&](std::size_t k) {
            conductors[grants[k]]->offer();
        });
        if (bound != 0)
            cursor = (cursor + 1) % n;
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;

    ServiceReport report;
    report.jobs = workers;
    report.quotaBytes = arena.tenantQuotaBytes(n);
    report.seconds = elapsed.count();
    // Finish and fingerprint each tenant into its own pre-sized row.
    // The arena stats are read here, before any teardown starts.
    report.tenants.resize(n);
    forEachIndex(pool.get(), n, [&](std::size_t i) {
        TenantConductor &conductor = *conductors[i];
        TenantReport &tr = report.tenants[i];
        tr.name = conductor.spec().name;
        tr.selector = algorithmName(conductor.spec().algo);
        tr.health = conductor.health();
        tr.chaos = conductor.counters();
        tr.aborted = tr.chaos.aborted;
        tr.cache = arena.tenantStats(conductor.tenantId());
        if (!tr.aborted) {
            tr.result = conductor.finish();
            tr.fingerprint = testing::resultFingerprint(tr.result);
        }
    });
    // Totals are summed in tenant order, whatever order the rows
    // were filled in.
    for (const TenantReport &tr : report.tenants) {
        if (!tr.aborted) {
            report.totalEvents += tr.result.events;
            report.totalInsts += tr.result.totalInsts;
            report.cachedInsts += tr.result.cachedInsts;
        }
        report.chaos.aborts += tr.aborted ? 1 : 0;
        report.chaos.restarts += tr.chaos.restarts;
        report.chaos.quarantines += tr.chaos.quarantinesTriggered;
        report.chaos.squeezes += tr.chaos.squeezesApplied;
        report.chaos.scheduledSlices += tr.chaos.scheduledSlices;
        report.chaos.shedSlices += tr.chaos.shedSlices;
        report.chaos.completedSlices += tr.chaos.completedSlices;
        report.chaos.blacklistedSlices +=
            tr.chaos.blacklistedSlices;
        if (tr.health != TenantHealth::Healthy)
            ++report.chaos.degradedTenants;
        if (tr.health == TenantHealth::Blacklisted)
            ++report.chaos.blacklistedTenants;
    }
    // Arena snapshot while every surviving tenant's residency is
    // still live; teardown below drains it to zero.
    report.arena = arena.stats();
    if (report.seconds > 0)
        report.eventsPerSec =
            static_cast<double>(report.totalEvents) / report.seconds;
    if (report.totalInsts > 0)
        report.globalHitRate =
            static_cast<double>(report.cachedInsts) /
            static_cast<double>(report.totalInsts);

    // Teardown sweeps only the tenant's own arena key range, so
    // tearing down and destroying every tenant is linear overall.
    forEachIndex(pool.get(), n, [&](std::size_t i) {
        conductors[i]->teardown();
        conductors[i].reset();
    });
    RSEL_ASSERT(arena.stats().liveBytes == 0,
                "tenant teardown left live bytes in the arena");
    return report;
}

SimResult
soloTenantRun(const TenantSpec &spec, CacheLimits limits,
              std::uint64_t eventsOverride,
              std::uint64_t skipEvents)
{
    // The reference leg the determinism contract compares against:
    // no arena, no listener, no slicing — one system, one batched
    // executor, the same spec and limits.
    const Program prog = testing::generateProgram(spec.program);
    DynOptSystem sys(prog, limits);
    attachAlgorithm(sys, spec.algo, tenantSimOptions(spec));
    sys.armFaults(spec.faults);
    Executor exec(prog, spec.program.execSeed);
    // Warm-restart oracle: skip the events the crashed incarnation
    // consumed, without the system ever seeing them.
    const std::uint64_t budget = fastForward(
        exec, skipEvents,
        eventsOverride != 0 ? eventsOverride : spec.program.events);
    exec.runBatched(budget, sys);
    SimResult result = sys.finish();
    result.workload = spec.name;
    return result;
}

std::uint64_t
fastForward(Executor &exec, std::uint64_t events, std::uint64_t budget)
{
    RSEL_ASSERT(events <= budget,
                "fast-forward beyond the event budget");
    // The batched equivalence proof makes the skip independent of
    // scratch-batch sizing.
    EventBatch scratch;
    std::uint64_t left = events;
    while (left != 0) {
        const std::uint64_t got = exec.fillBatch(
            scratch,
            static_cast<std::size_t>(std::min<std::uint64_t>(left, 4096)));
        RSEL_ASSERT(got != 0, "fast-forward beyond the guest's halt");
        left -= got;
    }
    return budget - events;
}

SimResult
soloTenantChaosRun(const ServiceConfig &config,
                   std::size_t tenantIndex)
{
    RSEL_ASSERT(tenantIndex < config.tenants.size(),
                "tenant index out of range");
    // A private arena with the service's geometry: quarantine and
    // physical accounting behave identically, and the conductor is
    // the very class the service runs — oracle and service share
    // one slice loop by construction.
    ShardedCodeCache arena(arenaConfigFor(config));
    std::unique_ptr<TenantConductor> conductor = makeConductor(
        config, tenantIndex, arena, sliceEventsFor(config));
    while (!conductor->done())
        conductor->offer();
    // The trajectory is deterministic: a tenant that survived the
    // service run (the only kind routed here) survives this replay
    // too, even if its schedule carries a never-reached abort.
    RSEL_ASSERT(!conductor->counters().aborted,
                "solo chaos leg of an aborted tenant");
    SimResult result = conductor->finish();
    conductor->teardown();
    return result;
}

namespace {

/** The oracle's verdict on tenant `i` of a finished service run:
 *  empty, or what failed first. */
std::string
checkTenant(const ServiceConfig &config, const ServiceReport &report,
            std::size_t i)
{
    const TenantSpec &spec = config.tenants[i];
    const TenantReport &tr = report.tenants[i];
    const ConductorCounters &cc = tr.chaos;

    if (cc.scheduledSlices !=
        cc.shedSlices + cc.completedSlices + cc.blacklistedSlices)
        return "tenant " + spec.name +
               ": slice accounting identity violated "
               "(scheduled != shed + completed + blacklisted)";
    const TenantCacheStats &cs = tr.cache;
    if (cs.admissions != cs.evictionReleases +
                             cs.invalidationReleases +
                             cs.flushReleases + cs.liveEntries)
        return "tenant " + spec.name +
               ": cache accounting identity violated "
               "(admissions != releases + live entries)";

    if (tr.aborted) {
        if (!config.chaos.scheduleFor(i).abort)
            return "tenant " + spec.name +
                   ": aborted without an abort in its chaos schedule";
        if (cs.liveBytes != 0 || cs.liveEntries != 0)
            return "tenant " + spec.name +
                   ": abort left physical residue in the arena";
        return "";
    }

    // The reference leg depends on what actually touched the tenant
    // semantically:
    //  - a crash discards everything before the restart, so the
    //    oracle is a fresh solo run from the replay position (chaos-
    //    and overload-free, like the restarted tenant);
    //  - an applied squeeze or overload degradation changes logical
    //    decisions, so the oracle is the conductor-driven solo chaos
    //    leg;
    //  - anything else (quarantine included — it is purely physical)
    //    must match the plain solo run: the isolation half of the
    //    contract, and all of it when no chaos is armed.
    std::string fpRef;
    const char *leg = "";
    if (cc.restarts != 0) {
        leg = "fresh solo run from the restart position";
        fpRef = testing::resultFingerprint(
            soloTenantRun(spec, tenantLimitsFor(config, spec),
                          config.eventsOverride, cc.restartFromEvent));
    } else if (cc.squeezesApplied != 0 ||
               tr.health == TenantHealth::Blacklisted ||
               cc.budgetExhausted) {
        leg = "conductor-driven solo chaos run";
        fpRef = testing::resultFingerprint(soloTenantChaosRun(config, i));
    } else {
        leg = "solo single-tenant run";
        fpRef = testing::resultFingerprint(soloTenantRun(
            spec, tenantLimitsFor(config, spec), config.eventsOverride));
    }
    if (tr.fingerprint != fpRef)
        return "tenant " + spec.name + " (" + algorithmName(spec.algo) +
               "): service fingerprint diverged from the " + leg;
    return "";
}

} // namespace

std::string
verifyServiceDeterminism(const ServiceConfig &config)
{
    try {
        const ServiceReport report = runService(config);

        // Global accounting identity first: cheap, and a violation
        // here localizes the bug to the arena, not a tenant.
        const ArenaStats &a = report.arena;
        if (a.admissions != a.releases + a.liveEntries)
            return "arena accounting identity violated: " +
                   std::to_string(a.admissions) +
                   " admissions != " + std::to_string(a.releases) +
                   " releases + " + std::to_string(a.liveEntries) +
                   " live entries";

        // The reference legs run on a pool of the service's own
        // size; each writes only its own verdict, and the first
        // failing tenant in tenant order is the one reported.
        const std::size_t n = config.tenants.size();
        std::vector<std::string> verdicts(n);
        const std::unique_ptr<ThreadPool> pool =
            poolFor(workersFor(config));
        forEachIndex(pool.get(), n, [&](std::size_t i) {
            verdicts[i] = checkTenant(config, report, i);
        });
        for (const std::string &verdict : verdicts)
            if (!verdict.empty())
                return verdict;
    } catch (const std::exception &e) {
        return std::string("service run failed: ") + e.what();
    }
    return "";
}

void
writeServiceReportJson(std::ostream &out, const ServiceConfig &config,
                       const ServiceReport &report)
{
    // Format in a private stream: every double prints with enough
    // digits to parse back exactly, and the caller's stream keeps
    // its own formatting state.
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    os << "{\n"
       << "  \"tool\": " << jsonStr("rselect-serve") << ",\n"
       << "  \"tenants\": " << report.tenants.size() << ",\n"
       << "  \"jobs\": " << report.jobs << ",\n"
       << "  \"cache_kb\": " << config.cacheKb << ",\n"
       << "  \"policy\": " << jsonStr(policyName(config.policy)) << ",\n"
       << "  \"shards\": " << report.arena.shardCount << ",\n"
       << "  \"slice_events\": " << config.sliceEvents << ",\n"
       << "  \"quota_bytes\": " << report.quotaBytes << ",\n"
       << "  \"seconds\": " << report.seconds << ",\n"
       << "  \"events_per_sec\": " << std::llround(report.eventsPerSec)
       << ",\n"
       << "  \"total_events\": " << report.totalEvents << ",\n"
       << "  \"global_hit_rate\": " << report.globalHitRate << ",\n"
       << "  \"arena\": {\"high_water_bytes\": "
       << report.arena.highWaterBytes
       << ", \"admissions\": " << report.arena.admissions
       << ", \"releases\": " << report.arena.releases
       << ", \"shard_contention\": " << report.arena.shardContention
       << ", \"live_entries\": " << report.arena.liveEntries
       << ", \"quarantines\": " << report.arena.quarantines
       << ", \"quarantined_admissions\": "
       << report.arena.quarantinedAdmissions << "},\n"
       << "  \"chaos\": {\"plan\": " << jsonStr(config.chaos.toString())
       << ", \"armed\": "
       << (config.chaos.armed() ? "true" : "false")
       << ", \"aborts\": " << report.chaos.aborts
       << ", \"restarts\": " << report.chaos.restarts
       << ", \"quarantines\": " << report.chaos.quarantines
       << ", \"squeezes\": " << report.chaos.squeezes << "},\n"
       << "  \"overload\": {\"max_inflight\": "
       << config.overload.maxInflight
       << ", \"slice_budget\": " << config.overload.sliceBudget
       << ", \"health_enabled\": "
       << (config.overload.healthEnabled(config.chaos.armed())
               ? "true"
               : "false")
       << ", \"scheduled_slices\": " << report.chaos.scheduledSlices
       << ", \"shed_slices\": " << report.chaos.shedSlices
       << ", \"completed_slices\": " << report.chaos.completedSlices
       << ", \"blacklisted_slices\": "
       << report.chaos.blacklistedSlices
       << ", \"degraded_tenants\": " << report.chaos.degradedTenants
       << ", \"blacklisted_tenants\": "
       << report.chaos.blacklistedTenants << "},\n"
       << "  \"tenant_reports\": [\n";
    for (std::size_t i = 0; i < report.tenants.size(); ++i) {
        const TenantReport &tr = report.tenants[i];
        os << "    {\"name\": " << jsonStr(tr.name)
           << ", \"selector\": " << jsonStr(tr.selector)
           << ", \"events\": " << tr.result.events
           << ", \"hit_rate\": " << tr.result.hitRate()
           << ", \"regions\": " << tr.result.regionCount
           << ", \"evictions\": " << tr.cache.evictionReleases
           << ", \"invalidations\": " << tr.cache.invalidationReleases
           << ", \"flushes\": " << tr.cache.flushReleases
           << ", \"fingerprint_fnv1a\": "
           << jsonStr(hex16(fnv1a(tr.fingerprint)))
           << ", \"health\": " << jsonStr(healthName(tr.health))
           << ", \"scheduled_slices\": " << tr.chaos.scheduledSlices
           << ", \"shed_slices\": " << tr.chaos.shedSlices
           << ", \"restarts\": " << tr.chaos.restarts
           << ", \"aborted\": " << (tr.aborted ? "true" : "false")
           << "}" << (i + 1 < report.tenants.size() ? "," : "")
           << "\n";
    }
    os << "  ]\n}\n";
    out << os.str();
}

} // namespace service
} // namespace rsel
