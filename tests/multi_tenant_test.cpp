/**
 * @file
 * Multi-tenant selection-service tests: the determinism contract
 * (every tenant's fingerprint byte-identical to a solo run at any
 * concurrency, shard count and scheduling), cross-tenant accounting
 * disjointness, per-tenant and global conservation, the
 * no-resurrection guarantee of tenant teardown, and the conductor's
 * single-owner contract.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "metrics/sim_result.hpp"
#include "service/selection_service.hpp"
#include "support/error.hpp"
#include "testing/differential.hpp"

namespace rsel {
namespace service {

/** The conductor's friend: reaches its single-owner mutex. */
struct TsaTestProbe
{
    static Mutex &
    ownerMutex(TenantConductor &conductor)
    {
        return conductor.mu_;
    }
};

namespace {

/** A seed-derived tenant set: selectors cycle through all seven. */
ServiceConfig
seedConfig(std::size_t tenants, std::uint64_t cacheKb,
           std::size_t jobs, std::uint64_t events = 3000)
{
    ServiceConfig config;
    config.tenants.reserve(tenants);
    for (std::size_t i = 0; i < tenants; ++i)
        config.tenants.push_back(TenantSpec::fromSeed(1 + i));
    config.cacheKb = cacheKb;
    config.jobs = jobs;
    config.eventsOverride = events;
    return config;
}

/** A conductor for `spec` alone in `arena`, chaos- and overload-free
 *  unless `schedule` says otherwise. */
TenantConductor
makeTenant(const TenantSpec &spec, CacheLimits limits,
           ShardedCodeCache &arena, std::uint64_t sliceEvents,
           std::uint64_t events, const ChaosSchedule &schedule = {})
{
    return TenantConductor(spec, limits, limits.capacityBytes, arena,
                           sliceEvents, events, schedule,
                           OverloadConfig{});
}

std::vector<std::string>
fingerprintsOf(const ServiceReport &report)
{
    std::vector<std::string> out;
    out.reserve(report.tenants.size());
    for (const TenantReport &tr : report.tenants)
        out.push_back(tr.fingerprint);
    return out;
}

// The load-bearing contract: at 1, 8 and 64 concurrent tenants,
// every tenant's result is byte-identical to a solo single-tenant
// run of the same spec and quota-derived limits.
TEST(MultiTenantTest, PerTenantDeterminismAtScale)
{
    for (const std::size_t tenants : {1u, 8u, 64u}) {
        const ServiceConfig config = seedConfig(tenants, 64, 0);
        EXPECT_EQ(verifyServiceDeterminism(config), "")
            << "at " << tenants << " tenants";
    }
}

// Solo equivalence must hold for every shipped selector, not just
// the ones a small seed range happens to draw.
TEST(MultiTenantTest, EverySelectorMatchesItsSoloRun)
{
    ServiceConfig config;
    for (std::size_t i = 0; i < std::size(allSelectors); ++i) {
        TenantSpec spec = TenantSpec::fromSeed(11);
        spec.name = "sel" + std::to_string(i);
        spec.algo = allSelectors[i];
        config.tenants.push_back(spec);
    }
    config.cacheKb = 32;
    config.eventsOverride = 4000;
    EXPECT_EQ(verifyServiceDeterminism(config), "");
}

// Worker count is pure scheduling: --jobs 1, 2 and 8 must yield
// identical per-tenant fingerprints and identical arena traffic. The
// pooled lifecycle builds, finishes and tears tenants down in any
// order, so the rows must still come back in tenant order, and each
// row's arena stats must have been read before its teardown.
TEST(MultiTenantTest, JobsParity)
{
    const ServiceConfig config = seedConfig(12, 48, 1);
    const ServiceReport serial = runService(config);
    for (const std::size_t jobs : {2u, 8u}) {
        const ServiceReport pooled =
            runService(seedConfig(12, 48, jobs));
        EXPECT_EQ(fingerprintsOf(serial), fingerprintsOf(pooled))
            << "jobs " << jobs;
        EXPECT_EQ(serial.arena.admissions, pooled.arena.admissions);
        EXPECT_EQ(serial.arena.releases, pooled.arena.releases);
        EXPECT_EQ(serial.arena.highWaterBytes,
                  pooled.arena.highWaterBytes);
        EXPECT_EQ(serial.totalEvents, pooled.totalEvents);
        ASSERT_EQ(serial.tenants.size(), pooled.tenants.size());
        for (std::size_t i = 0; i < serial.tenants.size(); ++i) {
            const TenantReport &a = serial.tenants[i];
            const TenantReport &b = pooled.tenants[i];
            EXPECT_EQ(b.name, config.tenants[i].name)
                << "jobs " << jobs;
            EXPECT_EQ(a.name, b.name);
            EXPECT_EQ(a.cache.admissions, b.cache.admissions) << a.name;
            EXPECT_EQ(a.cache.evictionReleases, b.cache.evictionReleases)
                << a.name;
            EXPECT_EQ(a.cache.invalidationReleases,
                      b.cache.invalidationReleases)
                << a.name;
            EXPECT_EQ(a.cache.flushReleases, b.cache.flushReleases)
                << a.name;
            EXPECT_EQ(a.cache.highWaterBytes, b.cache.highWaterBytes)
                << a.name;
            // Read before teardown: the residency is still there.
            EXPECT_EQ(b.cache.liveBytes, b.result.cacheLiveBytes)
                << a.name;
        }
    }
}

// The JSON report prints hit rates with enough digits to parse back
// exactly; events_per_sec's integer formatting must not leak into
// the fields after it.
TEST(MultiTenantTest, ReportJsonKeepsHitRatePrecision)
{
    const ServiceConfig config = seedConfig(4, 16, 1);
    const ServiceReport report = runService(config);
    ASSERT_GT(report.globalHitRate, 0.0);
    ASSERT_LT(report.globalHitRate, 1.0);
    std::ostringstream json;
    writeServiceReportJson(json, config, report);
    const std::string text = json.str();
    const auto valueAfter = [&text](const std::string &key) {
        const std::size_t at = text.find("\"" + key + "\": ");
        EXPECT_NE(at, std::string::npos) << key;
        return std::stod(text.substr(at + key.size() + 4));
    };
    EXPECT_NEAR(valueAfter("global_hit_rate"), report.globalHitRate,
                1e-9);
    EXPECT_NEAR(valueAfter("hit_rate"),
                report.tenants[0].result.hitRate(), 1e-9);
}

// A spec-file tenant name may hold any byte but '|': the report
// escapes it, so the document stays valid JSON.
TEST(MultiTenantTest, ReportJsonEscapesTenantNames)
{
    const std::string seeded = TenantSpec::fromSeed(1).toString();
    ServiceConfig config;
    config.tenants.push_back(TenantSpec::parse(
        "name=a\"b\\c\x01" + seeded.substr(seeded.find('|'))));
    config.jobs = 1;
    config.eventsOverride = 2000;
    std::ostringstream json;
    writeServiceReportJson(json, config, runService(config));
    EXPECT_NE(json.str().find("{\"name\": \"a\\\"b\\\\c\\u0001\", "),
              std::string::npos)
        << json.str();
}

// The shard count is a physical layout knob: 1, 4 and 64 shards
// must produce identical tenant results and identical accounting
// (only the contention counter may differ).
TEST(MultiTenantTest, ShardCountInvariance)
{
    std::vector<std::vector<std::string>> fingerprints;
    std::vector<ArenaStats> arenas;
    for (const std::size_t shards : {1u, 4u, 64u}) {
        ServiceConfig config = seedConfig(8, 48, 0);
        config.shards = shards;
        const ServiceReport report = runService(config);
        EXPECT_EQ(report.arena.shardCount, shards);
        fingerprints.push_back(fingerprintsOf(report));
        arenas.push_back(report.arena);
    }
    for (std::size_t i = 1; i < fingerprints.size(); ++i) {
        EXPECT_EQ(fingerprints[0], fingerprints[i]);
        EXPECT_EQ(arenas[0].admissions, arenas[i].admissions);
        EXPECT_EQ(arenas[0].releases, arenas[i].releases);
        EXPECT_EQ(arenas[0].highWaterBytes, arenas[i].highWaterBytes);
    }
}

// Physical accounting must mirror the logical caches exactly, with
// the three release kinds disjoint: capacity evictions and policy
// flushes sum to the logical eviction counter, invalidations match
// the recovery counter, and residual bytes match final occupancy.
TEST(MultiTenantTest, EvictionVsInvalidationDisjointAccounting)
{
    ServiceConfig config = seedConfig(8, 8, 0, 6000);
    // Arm invalidation-heavy fault plans on half the tenants so
    // both release kinds fire in the same run.
    for (std::size_t i = 0; i < config.tenants.size(); i += 2)
        config.tenants[i].faults =
            resilience::FaultPlan::parse("f1,inval=60,seed=5");
    const ServiceReport report = runService(config);

    std::uint64_t evictionsSeen = 0;
    std::uint64_t invalidationsSeen = 0;
    for (const TenantReport &tr : report.tenants) {
        EXPECT_EQ(tr.cache.evictionReleases + tr.cache.flushReleases,
                  tr.result.cacheEvictions)
            << tr.name;
        EXPECT_EQ(tr.cache.invalidationReleases,
                  tr.result.recovery.regionsInvalidated)
            << tr.name;
        EXPECT_EQ(tr.cache.liveBytes, tr.result.cacheLiveBytes)
            << tr.name;
        // Every admission leaves exactly once or is still live.
        EXPECT_GE(tr.cache.admissions,
                  tr.cache.evictionReleases +
                      tr.cache.invalidationReleases +
                      tr.cache.flushReleases)
            << tr.name;
        evictionsSeen += tr.cache.evictionReleases;
        invalidationsSeen += tr.cache.invalidationReleases;
    }
    // The run must actually exercise both kinds, or the
    // disjointness above is vacuous.
    EXPECT_GT(evictionsSeen + invalidationsSeen, 0u);
    EXPECT_GT(invalidationsSeen, 0u);
}

// The accounting witness: the disjoint-accounting identities must
// close under the stress trio's conditions: a single shard, a
// pooled scheduler, and invalidation-heavy fault plans, so every
// counter the arena's mutex guards is hammered from eight workers
// while being snapshotted. A lost update shows up here (and in the
// tsan preset, which runs this test) as a broken identity.
TEST(MultiTenantTest, DisjointAccountingUnderContention)
{
    ServiceConfig config = seedConfig(16, 1, 8, 4000);
    config.shards = 1;
    // inval is per 100k block events; the squeezed 64-byte quotas
    // leave the caches nearly empty, so most ticks find nothing to
    // invalidate — a high rate keeps the identities non-vacuous.
    for (std::size_t i = 0; i < config.tenants.size(); i += 2)
        config.tenants[i].faults =
            resilience::FaultPlan::parse("f1,inval=2500,seed=5");
    const ServiceReport report = runService(config);

    std::uint64_t admissions = 0, releases = 0, live = 0;
    std::uint64_t invalidationsSeen = 0;
    for (const TenantReport &tr : report.tenants) {
        EXPECT_EQ(tr.cache.evictionReleases + tr.cache.flushReleases,
                  tr.result.cacheEvictions)
            << tr.name;
        EXPECT_EQ(tr.cache.invalidationReleases,
                  tr.result.recovery.regionsInvalidated)
            << tr.name;
        EXPECT_EQ(tr.cache.liveBytes, tr.result.cacheLiveBytes)
            << tr.name;
        const std::uint64_t released =
            tr.cache.evictionReleases +
            tr.cache.invalidationReleases + tr.cache.flushReleases;
        // Every admission leaves exactly once or is still live —
        // and a tenant with no residual bytes has released all.
        EXPECT_GE(tr.cache.admissions, released) << tr.name;
        if (tr.cache.liveBytes == 0) {
            EXPECT_EQ(tr.cache.admissions, released) << tr.name;
        }
        admissions += tr.cache.admissions;
        releases += released;
        live += tr.cache.liveBytes;
        invalidationsSeen += tr.cache.invalidationReleases;
    }
    // Global identities: the arena's own counters (relaxed
    // throughout) fold to the per-tenant sums, and global occupancy
    // is exactly the tenants' residual live bytes.
    EXPECT_EQ(report.arena.admissions, admissions);
    EXPECT_EQ(report.arena.releases, releases);
    EXPECT_EQ(report.arena.liveBytes, live);
    EXPECT_EQ(report.arena.shardCount, 1u);
    // Both release kinds must fire, or the identities are vacuous.
    EXPECT_GT(invalidationsSeen, 0u);
    EXPECT_GT(releases, 0u);
}

// Per-tenant conservation (the oracle identity of each SimResult)
// and global conservation: counters summed across tenants equal the
// mergeResults() fold, including RecoveryStats.
TEST(MultiTenantTest, ConservationPerTenantAndGlobally)
{
    ServiceConfig config = seedConfig(6, 32, 0, 5000);
    for (std::size_t i = 1; i < config.tenants.size(); i += 2)
        config.tenants[i].faults =
            resilience::FaultPlan::fromSeed(40 + i);
    const ServiceReport report = runService(config);

    std::vector<SimResult> parts;
    std::uint64_t events = 0, totalInsts = 0, cachedInsts = 0;
    std::uint64_t faults = 0, invalidated = 0;
    for (const TenantReport &tr : report.tenants) {
        EXPECT_EQ(tr.result.conservationError(), "") << tr.name;
        parts.push_back(tr.result);
        events += tr.result.events;
        totalInsts += tr.result.totalInsts;
        cachedInsts += tr.result.cachedInsts;
        faults += tr.result.recovery.faultsInjected;
        invalidated += tr.result.recovery.regionsInvalidated;
    }
    const SimResult merged = mergeResults(parts);
    EXPECT_EQ(merged.events, events);
    EXPECT_EQ(merged.totalInsts, totalInsts);
    EXPECT_EQ(merged.cachedInsts, cachedInsts);
    EXPECT_EQ(merged.recovery.faultsInjected, faults);
    EXPECT_EQ(merged.recovery.regionsInvalidated, invalidated);
    // The service's own aggregates are the same fold.
    EXPECT_EQ(report.totalEvents, events);
    EXPECT_EQ(report.totalInsts, totalInsts);
    EXPECT_EQ(report.cachedInsts, cachedInsts);
}

// Teardown expresses through the disruption machinery and retires
// the tenant id for good: no physical entry survives, and the dead
// id can never admit again, so nothing can resurrect into a
// later tenant.
TEST(MultiTenantTest, TeardownNeverResurrects)
{
    ArenaConfig cfg;
    cfg.shardCount = 4;
    ShardedCodeCache arena(cfg);

    // Seed 1 reliably selects regions within this budget (seeds
    // whose selector thresholds never trip would make the test
    // vacuous).
    TenantSpec spec = TenantSpec::fromSeed(1);
    TenantId early = 0;
    std::string fpEarly;
    {
        TenantConductor tenant =
            makeTenant(spec, CacheLimits{}, arena, 512, 20000);
        early = tenant.tenantId();
        while (!tenant.done())
            tenant.offer();
        const SimResult result = tenant.finish();
        EXPECT_GT(result.regionCount, 0u);
        EXPECT_GT(arena.liveEntryCount(early), 0u);
        fpEarly = testing::resultFingerprint(result);
        tenant.teardown();
    }
    EXPECT_EQ(arena.liveEntryCount(early), 0u);
    EXPECT_EQ(arena.tenantStats(early).liveBytes, 0u);
    // A dead id is rejected loudly, not silently readmitted.
    EXPECT_THROW(arena.admit(early, 0x100, 10), PanicError);

    // Ids are never reused: a fresh tenant gets a fresh id and a
    // clean account even though it runs the same guest program.
    TenantConductor tenant =
        makeTenant(spec, CacheLimits{}, arena, 512, 20000);
    const TenantId fresh = tenant.tenantId();
    EXPECT_NE(fresh, early);
    while (!tenant.done())
        tenant.offer();
    EXPECT_EQ(arena.tenantStats(fresh).evictionReleases, 0u);
    const SimResult rerun = tenant.finish();
    // The rerun is a pure function of the spec: identical to the
    // torn-down tenant's run, untouched by the teardown history.
    EXPECT_EQ(testing::resultFingerprint(rerun), fpEarly);
    tenant.teardown();
    EXPECT_EQ(arena.stats().liveBytes, 0u);
}

// Each tenant's entries are one contiguous key range in a shard's
// ordered maps. Entrances at both ends of that range, next to the
// neighbouring tenant's first key, and a parked entry must all be
// found by the range sweep, and nothing of the neighbour may be.
TEST(MultiTenantTest, ArenaKeyRangeBoundary)
{
    ArenaConfig cfg;
    cfg.shardCount = 1;
    ShardedCodeCache arena(cfg);
    const TenantId t = arena.registerTenant();
    const TenantId next = arena.registerTenant();
    ASSERT_EQ(next, t + 1);
    const Addr top = (Addr{1} << 40) - 1;

    arena.admit(t, 0, 100);
    arena.admit(next, 0, 7);
    arena.quarantineShard(0);
    arena.admit(t, top, 200); // parked
    EXPECT_EQ(arena.stats().quarantinedAdmissions, 1u);
    EXPECT_EQ(arena.liveEntryCount(t), 2u);
    EXPECT_EQ(arena.liveEntryCount(next), 1u);

    EXPECT_EQ(arena.releaseAll(t), 300u);
    EXPECT_EQ(arena.liveEntryCount(t), 0u);
    EXPECT_EQ(arena.tenantStats(t).flushReleases, 2u);
    EXPECT_EQ(arena.tenantStats(t).liveBytes, 0u);
    EXPECT_EQ(arena.liveEntryCount(next), 1u);
    EXPECT_EQ(arena.tenantStats(next).liveBytes, 7u);

    arena.liftShardQuarantine(0);
    arena.release(next, 0, 7, CodeCache::DropReason::Evicted);
    EXPECT_EQ(arena.liveEntryCount(next), 0u);
    EXPECT_EQ(arena.tenantStats(next).evictionReleases, 1u);
    EXPECT_EQ(arena.stats().liveBytes, 0u);
    EXPECT_EQ(arena.stats().liveEntries, 0u);
}

// Aborting a tenant mid-flight (a scheduled chaos abort) must still
// tear down to zero residue even though the tenant never finished.
TEST(MultiTenantTest, AbortedTenantLeavesNoResidue)
{
    ArenaConfig cfg;
    cfg.capacityBytes = 8 * 1024;
    ShardedCodeCache arena(cfg);
    ChaosSchedule abortAtTwo;
    abortAtTwo.abort = true;
    abortAtTwo.abortSlice = 2;
    // Seed 4's guest runs past the budget, so the abort lands
    // mid-run.
    TenantConductor tenant =
        makeTenant(TenantSpec::fromSeed(4), arena.tenantLimits(1),
                   arena, 512, 100000, abortAtTwo);
    const TenantId id = tenant.tenantId();
    while (!tenant.done())
        tenant.offer();
    const ConductorCounters counters = tenant.counters();
    EXPECT_TRUE(counters.aborted);
    EXPECT_EQ(counters.completedSlices, 2u);
    EXPECT_EQ(counters.scheduledSlices, 2u);
    EXPECT_THROW(tenant.finish(), PanicError);
    tenant.teardown();
    EXPECT_EQ(arena.liveEntryCount(id), 0u);
    EXPECT_EQ(arena.stats().liveBytes, 0u);
    const TenantCacheStats cs = arena.tenantStats(id);
    EXPECT_EQ(cs.admissions, cs.evictionReleases +
                                 cs.invalidationReleases +
                                 cs.flushReleases);
}

// The single-owner contract: while one thread holds a conductor (the
// main thread, here through the probe), a second thread offering it
// panics instead of interleaving with the owner. The conductor is
// untouched by the refused offer and still runs to completion.
TEST(MultiTenantTest, SecondOwnerOfAConductorPanics)
{
    ShardedCodeCache arena(ArenaConfig{});
    TenantConductor tenant = makeTenant(TenantSpec::fromSeed(1),
                                        CacheLimits{}, arena, 512, 4000);
    Mutex &owner = TsaTestProbe::ownerMutex(tenant);
    owner.lock();
    bool panicked = false;
    std::thread second([&] {
        try {
            tenant.offer();
        } catch (const PanicError &) {
            panicked = true;
        }
    });
    second.join();
    owner.unlock();
    EXPECT_TRUE(panicked);
    EXPECT_EQ(tenant.counters().scheduledSlices, 0u);

    while (!tenant.done())
        tenant.offer();
    EXPECT_EQ(testing::resultFingerprint(tenant.finish()),
              testing::resultFingerprint(
                  soloTenantRun(TenantSpec::fromSeed(1), CacheLimits{},
                                4000)));
    tenant.teardown();
}

// The quota partition: equal shares, floored, at least one byte;
// unbounded arenas grant unbounded tenants.
TEST(MultiTenantTest, QuotaPartitioning)
{
    ArenaConfig bounded;
    bounded.capacityBytes = 64 * 1024;
    EXPECT_EQ(ShardedCodeCache::limitsFor(bounded, 16).capacityBytes,
              4096u);
    EXPECT_EQ(ShardedCodeCache::limitsFor(bounded, 3).capacityBytes,
              21845u);
    // More tenants than bytes: the floor is one byte, not zero
    // (zero would mean "unbounded" and break the global bound).
    ArenaConfig tiny;
    tiny.capacityBytes = 10;
    EXPECT_EQ(ShardedCodeCache::limitsFor(tiny, 100).capacityBytes,
              1u);
    ArenaConfig unbounded;
    EXPECT_EQ(
        ShardedCodeCache::limitsFor(unbounded, 16).capacityBytes,
        0u);
    // The policy and stub model ride along into tenant limits.
    bounded.policy = CacheLimits::Policy::Fifo;
    EXPECT_EQ(ShardedCodeCache::limitsFor(bounded, 2).policy,
              CacheLimits::Policy::Fifo);
}

// The TenantSpec codec round-trips, including nested fault plans,
// and the spec-file loader reports bad lines by number.
TEST(MultiTenantTest, TenantSpecCodecRoundTrip)
{
    TenantSpec spec = TenantSpec::fromSeed(9);
    spec.faults = resilience::FaultPlan::fromSeed(9);
    const TenantSpec reparsed = TenantSpec::parse(spec.toString());
    EXPECT_EQ(reparsed, spec);
    EXPECT_THROW(TenantSpec::parse("name=x"), FatalError);
    EXPECT_THROW(TenantSpec::parse("alg=BOGUS|spec=v1"), FatalError);

    std::istringstream good("# comment\n\n" + spec.toString() + "\n");
    EXPECT_EQ(loadTenantSpecs(good).size(), 1u);
    std::istringstream bad("# fine\nnot-a-spec\n");
    try {
        loadTenantSpecs(bad);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos);
    }
    std::istringstream empty("# nothing\n");
    EXPECT_THROW(loadTenantSpecs(empty), FatalError);
}

// ---------------------------------------------------------------
// Service-level chaos and overload (ISSUE 9).

/** A config with one chaos plan armed, which turns the health
 *  machine on. */
ServiceConfig
chaosConfig(std::size_t tenants, const std::string &plan,
            std::size_t jobs, std::uint64_t events = 20000)
{
    ServiceConfig config = seedConfig(tenants, 32, jobs, events);
    config.chaos = ChaosPlan::parse(plan);
    return config;
}

/**
 * Like seedConfig, but drawn only from seeds whose guests run well
 * past 20k events. Seed-derived guests can halt after a handful of
 * events (seed 3 halts at 4), and a halted tenant is legitimately
 * untouchable by chaos — tests asserting "every tenant got hit"
 * need guests that actually live long enough to be hit.
 */
ServiceConfig
longGuestConfig(std::size_t tenants, std::uint64_t cacheKb,
                std::size_t jobs, std::uint64_t events)
{
    static const std::uint64_t longSeeds[] = {1, 4, 7, 8, 9, 11,
                                              12, 13, 14, 15, 16};
    ServiceConfig config;
    config.tenants.reserve(tenants);
    for (std::size_t i = 0; i < tenants; ++i)
        config.tenants.push_back(TenantSpec::fromSeed(
            longSeeds[i % std::size(longSeeds)]));
    config.cacheKb = cacheKb;
    config.jobs = jobs;
    config.eventsOverride = events;
    return config;
}

// The chaos-plan codec round-trips, fromSeed is deterministic, and
// malformed plans are loud usage errors.
TEST(ServiceChaosTest, ChaosPlanCodecRoundTrip)
{
    const ChaosPlan derived = ChaosPlan::fromSeed(17);
    EXPECT_TRUE(derived.armed());
    EXPECT_EQ(ChaosPlan::parse(derived.toString()), derived);
    EXPECT_EQ(ChaosPlan::fromSeed(17), derived);
    EXPECT_NE(ChaosPlan::fromSeed(18), derived);

    const ChaosPlan fixed =
        ChaosPlan::parse("c1,crash=300,quar=200,seed=9");
    EXPECT_EQ(fixed.crashPermille, 300u);
    EXPECT_EQ(fixed.quarPermille, 200u);
    EXPECT_EQ(fixed.seed, 9u);
    EXPECT_TRUE(fixed.armed());
    EXPECT_FALSE(ChaosPlan{}.armed());

    EXPECT_THROW(ChaosPlan::parse("x9,crash=300"), FatalError);
    EXPECT_THROW(ChaosPlan::parse("c1,bogus=3"), FatalError);
    EXPECT_THROW(ChaosPlan::parse("c1,crash"), FatalError);
    EXPECT_THROW(ChaosPlan::parse("c1,crash=many"), FatalError);
    EXPECT_THROW(ChaosPlan::parse("c1,crash=-1"), FatalError);
    EXPECT_THROW(ChaosPlan::parse("c1,crash=+7"), FatalError);
    EXPECT_THROW(ChaosPlan::parse("c1,seed= 9"), FatalError);
}

// scheduleFor is a pure function of (plan, tenant index): the same
// plan yields the same per-tenant schedule on every call, abort and
// crash never coincide, and slice indices respect the window.
TEST(ServiceChaosTest, SchedulesAreDeterministicAndWellFormed)
{
    const ChaosPlan plan = ChaosPlan::parse(
        "c1,abort=300,crash=300,quar=400,sqdiv=4,window=12,seed=3");
    bool sawAbort = false, sawCrash = false, sawQuar = false;
    for (std::size_t i = 0; i < 64; ++i) {
        const ChaosSchedule a = plan.scheduleFor(i);
        const ChaosSchedule b = plan.scheduleFor(i);
        EXPECT_EQ(a.abort, b.abort);
        EXPECT_EQ(a.crashSlice, b.crashSlice);
        EXPECT_EQ(a.quarShardSalt, b.quarShardSalt);
        EXPECT_FALSE(a.abort && a.crash);
        EXPECT_TRUE(a.squeeze); // sqdiv applies to every tenant
        EXPECT_EQ(a.squeezeFactor, 4u);
        if (a.abort) {
            sawAbort = true;
            EXPECT_GE(a.abortSlice, 1u);
            EXPECT_LE(a.abortSlice, 12u);
        }
        if (a.crash)
            sawCrash = true;
        if (a.quarantine) {
            sawQuar = true;
            EXPECT_GE(a.quarSlice, 1u);
            EXPECT_LE(a.quarSlice, 12u);
        }
    }
    // At these permilles all three fates must occur across 64
    // tenants, or the fate die is broken.
    EXPECT_TRUE(sawAbort && sawCrash && sawQuar);
    // A disarmed plan schedules nothing.
    EXPECT_FALSE(ChaosPlan{}.scheduleFor(0).any());
}

// The jobs-parity half of the chaos contract: under every plan
// kind, serial and 8-worker runs produce byte-identical per-tenant
// fingerprints and identical chaos accounting.
TEST(ServiceChaosTest, JobsParityUnderEveryPlanKind)
{
    const char *plans[] = {
        "c1,abort=400,window=6",          // aborts only
        "c1,crash=500,window=6",          // crash + warm restart
        "c1,quar=600,quarlen=4,window=6", // shard quarantine
        "c1,sqdiv=4,sqat=2,sqlen=4",      // memory squeeze
        "c1,abort=200,crash=300,quar=400,sqdiv=3,window=8", // mixed
    };
    for (const char *plan : plans) {
        ServiceConfig serial = chaosConfig(10, plan, 1);
        ServiceConfig pooled = chaosConfig(10, plan, 8);
        const ServiceReport a = runService(serial);
        const ServiceReport b = runService(pooled);
        EXPECT_EQ(fingerprintsOf(a), fingerprintsOf(b)) << plan;
        EXPECT_EQ(a.chaos.aborts, b.chaos.aborts) << plan;
        EXPECT_EQ(a.chaos.restarts, b.chaos.restarts) << plan;
        EXPECT_EQ(a.chaos.squeezes, b.chaos.squeezes) << plan;
        EXPECT_EQ(a.chaos.quarantines, b.chaos.quarantines) << plan;
        EXPECT_EQ(a.totalEvents, b.totalEvents) << plan;
        EXPECT_EQ(a.arena.admissions, b.arena.admissions) << plan;
        // And the full chaos oracle holds at both worker counts.
        EXPECT_EQ(verifyServiceDeterminism(serial), "") << plan;
        EXPECT_EQ(verifyServiceDeterminism(pooled), "") << plan;
    }
}

// The warm-restart oracle, asserted directly: a crash-everything
// plan restarts every tenant once, and each restarted tenant's
// fingerprint equals a fresh solo run fast-forwarded to its replay
// position.
TEST(ServiceChaosTest, RestartMatchesFreshSoloFromReplayPosition)
{
    ServiceConfig config = longGuestConfig(6, 32, 0, 20000);
    config.chaos = ChaosPlan::parse("c1,crash=1000,window=3");
    // Small slices put the crash (at slice <= 3) well before any
    // guest's natural halt, so every tenant restarts mid-run.
    config.sliceEvents = 512;
    const ServiceReport report = runService(config);
    EXPECT_EQ(report.chaos.restarts, 6u);
    for (std::size_t i = 0; i < config.tenants.size(); ++i) {
        const TenantReport &tr = report.tenants[i];
        ASSERT_EQ(tr.chaos.restarts, 1u) << tr.name;
        EXPECT_GT(tr.chaos.restartFromEvent, 0u) << tr.name;
        const SimResult fresh = soloTenantRun(
            config.tenants[i],
            tenantLimitsFor(config, config.tenants[i]),
            config.eventsOverride, tr.chaos.restartFromEvent);
        EXPECT_EQ(tr.fingerprint,
                  testing::resultFingerprint(fresh))
            << tr.name;
        // The replay events never reach the restarted system: its
        // event count is the remainder of the budget (or less, if
        // the guest halts before the budget).
        EXPECT_LE(tr.result.events + tr.chaos.restartFromEvent,
                  config.eventsOverride)
            << tr.name;
        EXPECT_GT(tr.result.events, 0u) << tr.name;
    }
}

// The isolation half of the oracle: tenants the plan leaves alone
// must match the plain chaos-free solo run bit-for-bit even while
// neighbours abort, crash and quarantine shards around them.
TEST(ServiceChaosTest, UntouchedTenantsMatchChaosFreeSolo)
{
    ServiceConfig config =
        chaosConfig(12, "c1,abort=300,crash=300,quar=400,window=5",
                    8);
    const ServiceReport report = runService(config);
    // At these rates some tenants are hit and some are spared; both
    // populations must be non-empty for the assertions to bite.
    std::size_t untouched = 0, touched = 0;
    for (std::size_t i = 0; i < config.tenants.size(); ++i) {
        const TenantReport &tr = report.tenants[i];
        if (tr.aborted || tr.chaos.restarts != 0) {
            ++touched;
            continue;
        }
        ++untouched;
        const SimResult solo = soloTenantRun(
            config.tenants[i],
            tenantLimitsFor(config, config.tenants[i]),
            config.eventsOverride);
        EXPECT_EQ(tr.fingerprint, testing::resultFingerprint(solo))
            << tr.name;
    }
    EXPECT_GT(touched, 0u);
    EXPECT_GT(untouched, 0u);
}

// Aborted tenants leave zero residue, are flagged, and the global
// arena identity (admissions == releases + live entries) still
// closes around them.
TEST(ServiceChaosTest, AbortAccountingAndResidue)
{
    ServiceConfig config = longGuestConfig(8, 32, 0, 20000);
    config.chaos = ChaosPlan::parse("c1,abort=1000,window=3");
    config.sliceEvents = 512;
    const ServiceReport report = runService(config);
    EXPECT_EQ(report.chaos.aborts, 8u);
    for (const TenantReport &tr : report.tenants) {
        EXPECT_TRUE(tr.aborted) << tr.name;
        EXPECT_TRUE(tr.fingerprint.empty()) << tr.name;
        EXPECT_EQ(tr.cache.liveBytes, 0u) << tr.name;
        EXPECT_EQ(tr.cache.liveEntries, 0u) << tr.name;
        EXPECT_EQ(tr.cache.admissions,
                  tr.cache.evictionReleases +
                      tr.cache.invalidationReleases +
                      tr.cache.flushReleases)
            << tr.name;
    }
    EXPECT_EQ(report.arena.admissions,
              report.arena.releases + report.arena.liveEntries);
    EXPECT_EQ(report.totalEvents, 0u);
}

// The slice accounting identity under bounded admission and
// shedding: scheduled == shed + completed + blacklisted for every
// tenant, and the bounded scheduler is jobs-invariant.
TEST(ServiceChaosTest, BoundedAdmissionShedsDeterministically)
{
    for (const std::size_t jobs : {1u, 8u}) {
        ServiceConfig config = seedConfig(10, 32, jobs, 20000);
        config.overload.maxInflight = 3;
        const ServiceReport report = runService(config);
        std::uint64_t shed = 0;
        for (const TenantReport &tr : report.tenants) {
            EXPECT_EQ(tr.chaos.scheduledSlices,
                      tr.chaos.shedSlices +
                          tr.chaos.completedSlices +
                          tr.chaos.blacklistedSlices)
                << tr.name;
            shed += tr.chaos.shedSlices;
        }
        // With 10 pending tenants and 3 grants per round, the
        // denied majority must actually be shed.
        EXPECT_GT(shed, 0u);
        EXPECT_EQ(verifyServiceDeterminism(config), "");
    }
}

// A round offers each pending tenant one slice at most, and under a
// bound its start rotates. With one grant per round, two guests of
// `slices` slices each alternate: each is shed in every round the
// other runs, so the first sheds slices - 1 times, the second
// `slices` times.
TEST(ServiceChaosTest, BoundedRoundsOfferEachTenantOnce)
{
    constexpr std::uint64_t slices = 6;
    for (const std::size_t jobs : {1u, 8u}) {
        ServiceConfig config =
            longGuestConfig(2, 32, jobs, slices * 1024);
        config.sliceEvents = 1024;
        config.overload.maxInflight = 1;
        const ServiceReport report = runService(config);
        ASSERT_EQ(report.tenants.size(), 2u);
        for (const TenantReport &tr : report.tenants)
            EXPECT_EQ(tr.chaos.completedSlices, slices) << tr.name;
        EXPECT_EQ(report.tenants[0].chaos.shedSlices, slices - 1);
        EXPECT_EQ(report.tenants[1].chaos.shedSlices, slices);
    }
}

// Slice budgets force the terminal graceful state: the tenant is
// degraded to interpretation, drains its full event budget (no
// events are lost — transparency holds), ends BLACKLISTED, and the
// whole trajectory replays solo.
TEST(ServiceChaosTest, SliceBudgetDegradesToInterpretation)
{
    // 8000 events is safely under these guests' natural halts, so
    // a full drain must deliver exactly the budget.
    ServiceConfig config = longGuestConfig(4, 32, 0, 8000);
    config.sliceEvents = 1024;
    config.overload.sliceBudget = 4;
    const ServiceReport report = runService(config);
    for (const TenantReport &tr : report.tenants) {
        EXPECT_TRUE(tr.chaos.budgetExhausted) << tr.name;
        EXPECT_EQ(tr.health, TenantHealth::Blacklisted) << tr.name;
        EXPECT_GT(tr.chaos.blacklistedSlices, 0u) << tr.name;
        EXPECT_EQ(tr.result.events, 8000u) << tr.name;
    }
    EXPECT_EQ(report.chaos.blacklistedTenants, 4u);
    EXPECT_EQ(verifyServiceDeterminism(config), "");
}

// The health state machine, walked directly at the shipped
// thresholds (shed after 3 pressured slices, blacklist after 8):
// escalation ladder, one-level recovery, absorbing blacklist,
// restart reset.
TEST(ServiceChaosTest, HealthMachineTrajectory)
{
    TenantHealthMachine m;
    EXPECT_EQ(m.state(), TenantHealth::Healthy);
    EXPECT_EQ(m.observe(1), TenantHealth::Degraded);
    EXPECT_EQ(m.observe(3), TenantHealth::Degraded);
    EXPECT_EQ(m.observe(1), TenantHealth::Shed);
    // A clean slice steps down one level, not straight to healthy.
    EXPECT_EQ(m.observe(0), TenantHealth::Degraded);
    EXPECT_EQ(m.observe(0), TenantHealth::Healthy);
    // The streak restarts after recovery: eight pressured slices
    // walk all the way to the terminal state.
    for (int slice = 1; slice < 8; ++slice)
        EXPECT_EQ(m.observe(1), slice < 3 ? TenantHealth::Degraded
                                          : TenantHealth::Shed)
            << "pressured slice " << slice;
    EXPECT_EQ(m.observe(1), TenantHealth::Blacklisted);
    // Absorbing: clean slices do not resurrect a blacklisted
    // tenant.
    EXPECT_EQ(m.observe(0), TenantHealth::Blacklisted);
    // A restart clears the state and the streak.
    m.reset();
    EXPECT_EQ(m.state(), TenantHealth::Healthy);
    EXPECT_EQ(m.observe(1), TenantHealth::Degraded);
    EXPECT_STREQ(healthName(TenantHealth::Shed), "SHED");
}

// Shard quarantine at the arena level: admissions to a quarantined
// shard park (counted, invisible to residency sweeps only at lift),
// nest by depth, and merge back losslessly at the lift.
TEST(ServiceChaosTest, QuarantineParksAndLifts)
{
    ArenaConfig cfg;
    cfg.shardCount = 1; // everything lands on the one shard
    ShardedCodeCache arena(cfg);
    const TenantId id = arena.registerTenant();

    arena.quarantineShard(0);
    arena.quarantineShard(0); // nested: two lifts required
    arena.admit(id, 0x100, 64);
    arena.admit(id, 0x200, 32);
    EXPECT_EQ(arena.stats().quarantines, 2u);
    EXPECT_EQ(arena.stats().quarantinedAdmissions, 2u);
    // Parked entries still count toward residency and the
    // accounting identity — the quarantine is purely physical.
    EXPECT_EQ(arena.stats().liveBytes, 96u);
    EXPECT_EQ(arena.liveEntryCount(id), 2u);

    arena.liftShardQuarantine(0);
    // Still quarantined at depth 1: new admissions keep parking.
    arena.admit(id, 0x300, 16);
    EXPECT_EQ(arena.stats().quarantinedAdmissions, 3u);
    arena.liftShardQuarantine(0);

    // Fully lifted: releases find the merged entries, and the
    // identity closes to zero.
    arena.release(id, 0x100, 64, CodeCache::DropReason::Evicted);
    arena.release(id, 0x200, 32, CodeCache::DropReason::Flushed);
    arena.release(id, 0x300, 16, CodeCache::DropReason::Invalidated);
    EXPECT_EQ(arena.stats().liveBytes, 0u);
    EXPECT_EQ(arena.stats().admissions,
              arena.stats().releases + arena.stats().liveEntries);
    arena.releaseAll(id);
    arena.unregisterTenant(id);
}

// A release may arrive while the entry is still parked (a squeeze
// or invalidation during the quarantine window): it must find the
// parked entry, not panic.
TEST(ServiceChaosTest, ReleaseDuringQuarantineFindsParkedEntry)
{
    ArenaConfig cfg;
    cfg.shardCount = 1;
    ShardedCodeCache arena(cfg);
    const TenantId id = arena.registerTenant();
    arena.quarantineShard(0);
    arena.admit(id, 0x500, 40);
    arena.release(id, 0x500, 40, CodeCache::DropReason::Evicted);
    EXPECT_EQ(arena.stats().liveBytes, 0u);
    arena.liftShardQuarantine(0);
    EXPECT_EQ(arena.stats().admissions,
              arena.stats().releases + arena.stats().liveEntries);
    arena.unregisterTenant(id);
}

// The squeeze path end-to-end: squeezes fire, drive evictions
// through the existing limitsFor() partition, restore afterwards,
// and the whole trajectory replays through the solo chaos leg.
TEST(ServiceChaosTest, SqueezeDrivesEvictionsAndReplays)
{
    // A tight 2 KiB arena (341 B/tenant) squeezed 8x (42 B/tenant):
    // the squeezed quota is below a single region, so the window
    // must visibly evict.
    ServiceConfig config = longGuestConfig(6, 2, 0, 20000);
    config.chaos = ChaosPlan::parse("c1,sqdiv=8,sqat=1,sqlen=6");
    config.sliceEvents = 1024;
    const ServiceReport squeezed = runService(config);
    EXPECT_EQ(squeezed.chaos.squeezes, 6u);

    ServiceConfig plain = longGuestConfig(6, 2, 0, 20000);
    plain.sliceEvents = 1024;
    const ServiceReport baseline = runService(plain);
    std::uint64_t squeezedReleases = 0, baselineReleases = 0;
    for (std::size_t i = 0; i < 6; ++i) {
        squeezedReleases +=
            squeezed.tenants[i].cache.evictionReleases +
            squeezed.tenants[i].cache.flushReleases;
        baselineReleases +=
            baseline.tenants[i].cache.evictionReleases +
            baseline.tenants[i].cache.flushReleases;
    }
    // An 8x quota squeeze must actually evict more than the
    // unsqueezed baseline, or the fault injected nothing.
    EXPECT_GT(squeezedReleases, baselineReleases);
    EXPECT_EQ(verifyServiceDeterminism(config), "");
}

// squeezedCapacityFor: bounded arenas partition as if the tenant
// population were `factor` times larger; unbounded arenas shrink
// the tenant's own bound; fully unbounded tenants are a no-op.
TEST(ServiceChaosTest, SqueezedCapacityDerivation)
{
    ServiceConfig config = seedConfig(4, 64, 0);
    const TenantSpec &spec = config.tenants[0];
    const std::uint64_t quota =
        tenantLimitsFor(config, spec).capacityBytes;
    EXPECT_EQ(squeezedCapacityFor(config, spec, 1), quota);
    EXPECT_EQ(squeezedCapacityFor(config, spec, 4), quota / 4);

    ServiceConfig unbounded = seedConfig(4, 0, 0);
    TenantSpec own = unbounded.tenants[0];
    own.program.cacheKb = 8;
    EXPECT_EQ(squeezedCapacityFor(unbounded, own, 4), 2048u);
    own.program.cacheKb = 0; // fully unbounded: squeeze is a no-op
    EXPECT_EQ(squeezedCapacityFor(unbounded, own, 4), 0u);
}

} // namespace
} // namespace service
} // namespace rsel
