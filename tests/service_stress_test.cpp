/**
 * @file
 * Concurrency-hostile service tests, written for the tsan preset
 * (they run everywhere, but their purpose is to give the thread
 * sanitizer real cross-thread traffic to chew on): eight workers
 * contending on the arena's one mutex, tenant teardown and shard
 * quarantine concurrent with other tenants' in-flight batches, and
 * a 4096-tenant soak proving the arena's occupancy stays bounded
 * under quota partitioning.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include "service/selection_service.hpp"
#include "testing/differential.hpp"

namespace rsel {
namespace service {
namespace {

/** Largest single-region estimate in a finished result (the byte
 *  model CodeCache charges: code bytes + 10 per exit stub). */
std::uint64_t
maxRegionEstimate(const SimResult &result)
{
    std::uint64_t maxEst = 0;
    for (const RegionStats &r : result.regions)
        maxEst = std::max(maxEst,
                          r.byteSize +
                              static_cast<std::uint64_t>(
                                  r.exitStubs) *
                                  10);
    return maxEst;
}

/** Seeds whose guests run past 200000 events (the guests of seeds
 *  2, 3, 5, 6 and 10 halt within their first slice). */
constexpr std::uint64_t longSeeds[] = {1, 4, 7, 8, 9, 11, 12, 13};

/** `count` (at most 8) conductors of long-running guests, each with
 *  an equal share of `arena`, built before any traffic; tenant i
 *  follows `schedules[i]` where one is given, and is chaos- and
 *  overload-free otherwise. */
std::vector<std::unique_ptr<TenantConductor>>
makeTenants(ShardedCodeCache &arena, std::size_t count,
            std::uint64_t events,
            const std::vector<ChaosSchedule> &schedules = {})
{
    std::vector<std::unique_ptr<TenantConductor>> tenants;
    const CacheLimits limits = arena.tenantLimits(count);
    for (std::size_t i = 0; i < count; ++i)
        tenants.push_back(std::make_unique<TenantConductor>(
            TenantSpec::fromSeed(longSeeds[i]), limits,
            limits.capacityBytes, arena, 256, events,
            i < schedules.size() ? schedules[i] : ChaosSchedule{},
            OverloadConfig{}));
    return tenants;
}

/** Drive every tenant on its own thread (the per-conductor
 *  serialization the contract requires) and tear each down on its
 *  owner thread, concurrent with every other tenant's slices and
 *  teardowns. */
std::vector<std::thread>
driveEachOnItsOwnThread(
    const std::vector<std::unique_ptr<TenantConductor>> &tenants)
{
    std::vector<std::thread> drivers;
    drivers.reserve(tenants.size());
    for (const auto &tenant : tenants)
        drivers.emplace_back([&tenant] {
            while (!tenant->done())
                tenant->offer();
            tenant->teardown();
        });
    return drivers;
}

// Every admission and release of every tenant serializes on the
// arena's one mutex, here from eight workers. The shard count sets
// only how many quarantine pens there are, and this run quarantines
// nothing, so a one-shard arena's fingerprints must equal the
// 16-shard run's, and the determinism contract must hold under the
// contention.
TEST(ServiceStressTest, ShardContentionStress)
{
    auto makeConfig = [](std::size_t shards) {
        ServiceConfig config;
        for (std::size_t i = 0; i < 16; ++i)
            config.tenants.push_back(TenantSpec::fromSeed(1 + i));
        // 64-byte quotas: smaller than a typical live set (~200 B),
        // so every tenant churns through evictions constantly.
        config.cacheKb = 1;
        config.shards = shards;
        config.jobs = 8;
        config.eventsOverride = 4000;
        return config;
    };
    const ServiceReport squeezed = runService(makeConfig(1));
    const ServiceReport spread = runService(makeConfig(16));
    ASSERT_EQ(squeezed.tenants.size(), spread.tenants.size());
    for (std::size_t i = 0; i < squeezed.tenants.size(); ++i)
        EXPECT_EQ(squeezed.tenants[i].fingerprint,
                  spread.tenants[i].fingerprint)
            << squeezed.tenants[i].name;
    EXPECT_GT(squeezed.arena.releases, 0u);
    EXPECT_EQ(verifyServiceDeterminism(makeConfig(1)), "");
}

// Tenant teardown while other tenants' batches are in flight: each
// conductor is driven by its own thread; the odd tenants abort
// mid-run on a scheduled chaos abort and are torn down by their
// owners while even tenants keep admitting and releasing through the
// same arena. Nothing may leak or resurrect.
TEST(ServiceStressTest, ConcurrentTeardownDuringInflightBatches)
{
    ArenaConfig cfg;
    cfg.capacityBytes = 16 * 1024;
    cfg.shardCount = 2; // pens only; nothing is quarantined here
    ShardedCodeCache arena(cfg);

    constexpr std::size_t tenantCount = 8;
    // 200000 events are 782 slices of 256; the odd tenants abort at
    // different slices well inside that.
    std::vector<ChaosSchedule> schedules(tenantCount);
    for (std::size_t i = 1; i < tenantCount; i += 2) {
        schedules[i].abort = true;
        schedules[i].abortSlice = 40 * i;
    }
    const auto tenants =
        makeTenants(arena, tenantCount, 200000, schedules);
    for (std::thread &t : driveEachOnItsOwnThread(tenants))
        t.join();

    EXPECT_EQ(arena.stats().liveBytes, 0u);
    for (std::size_t i = 0; i < tenantCount; ++i) {
        const TenantId id = tenants[i]->tenantId();
        EXPECT_EQ(tenants[i]->counters().aborted, i % 2 == 1) << i;
        EXPECT_EQ(arena.liveEntryCount(id), 0u) << i;
        const TenantCacheStats cs = arena.tenantStats(id);
        EXPECT_EQ(cs.liveBytes, 0u) << i;
        EXPECT_EQ(cs.admissions, cs.evictionReleases +
                                     cs.invalidationReleases +
                                     cs.flushReleases)
            << i;
    }
    EXPECT_EQ(arena.stats().tenantsActive, 0u);
}

// 4096 tenants over one small bounded arena: the global occupancy
// bound Σ_t live_t ≤ Σ_t max(quota_t, largest single region_t)
// must hold at every instant — asserted via the high-water marks —
// and every tenant still finishes and tears down to zero.
TEST(ServiceStressTest, BoundedMemorySoak4096Tenants)
{
    constexpr std::size_t tenantCount = 4096;
    ServiceConfig config;
    config.tenants.reserve(tenantCount);
    for (std::size_t i = 0; i < tenantCount; ++i) {
        TenantSpec spec;
        spec.name = "soak" + std::to_string(i);
        spec.algo = allSelectors[i % std::size(allSelectors)];
        // Small fixed program shape, varied seeds: generation stays
        // cheap at this scale while streams still differ.
        spec.program.funcs = 2;
        spec.program.blocks = 4;
        spec.program.buildSeed = 1 + i;
        spec.program.execSeed = 1 + i;
        config.tenants.push_back(spec);
    }
    config.cacheKb = 64; // 16-byte quotas: one region at a time
    config.jobs = 8;
    config.eventsOverride = 64;
    const ServiceReport report = runService(config);

    ASSERT_EQ(report.tenants.size(), tenantCount);
    EXPECT_EQ(report.quotaBytes, 16u);
    std::uint64_t globalBound = 0;
    for (const TenantReport &tr : report.tenants) {
        const std::uint64_t maxEst = maxRegionEstimate(tr.result);
        const std::uint64_t tenantBound =
            std::max(report.quotaBytes, maxEst);
        EXPECT_LE(tr.cache.highWaterBytes, tenantBound) << tr.name;
        globalBound += tenantBound;
    }
    EXPECT_LE(report.arena.highWaterBytes, globalBound);
    EXPECT_GT(report.totalEvents, 0u);
    // The arena snapshot is taken before teardown: every tenant is
    // still registered and active at that point.
    EXPECT_EQ(report.arena.tenantsActive, tenantCount);
    EXPECT_EQ(report.arena.tenantsRegistered, tenantCount);
}

// Shard quarantine raced against live traffic: six tenants hammer a
// two-shard arena from their own threads while a chaos thread
// quarantines and lifts both shards in a tight loop. Admissions that
// land on a quarantined shard park in its pen; lifts merge them
// back — all concurrent with releases and evictions of the same
// tenants' entries. The tsan preset is the real audience; everywhere
// else this is a liveness and accounting check: nothing deadlocks,
// nothing leaks, and the admission identity closes after teardown.
TEST(ServiceStressTest, ConcurrentQuarantineDuringInflightAdmissions)
{
    ArenaConfig cfg;
    cfg.capacityBytes = 8 * 1024;
    cfg.shardCount = 2;
    ShardedCodeCache arena(cfg);

    constexpr std::size_t tenantCount = 6;
    const auto tenants = makeTenants(arena, tenantCount, 100000);
    std::vector<std::thread> drivers = driveEachOnItsOwnThread(tenants);
    // Balanced quarantine/lift cycles on both shards, concurrent
    // with every admission and release above. Each cycle nests to
    // depth one and lifts before the next, so the loop leaves both
    // shards live no matter where the drivers are.
    std::thread chaos([&arena] {
        for (int cycle = 0; cycle < 400; ++cycle) {
            const std::size_t shard =
                static_cast<std::size_t>(cycle) % 2;
            arena.quarantineShard(shard);
            std::this_thread::yield();
            arena.liftShardQuarantine(shard);
        }
    });
    chaos.join();
    for (std::thread &t : drivers)
        t.join();

    const ArenaStats stats = arena.stats();
    EXPECT_EQ(stats.liveBytes, 0u);
    EXPECT_EQ(stats.liveEntries, 0u);
    EXPECT_EQ(stats.quarantines, 400u);
    EXPECT_EQ(stats.admissions, stats.releases);
    for (std::size_t i = 0; i < tenantCount; ++i)
        EXPECT_EQ(
            arena.tenantStats(tenants[i]->tenantId()).liveBytes, 0u)
            << i;
}

// A full chaos service run at jobs 8 — crashes, quarantines, and
// squeezes all armed — exercised twice to pin the cross-thread
// trajectory, then put through the chaos oracle. Under tsan this is
// the end-to-end pass over every chaos code path (conductor,
// restart, parked admissions, squeeze through setCapacity) with
// real pool concurrency.
TEST(ServiceStressTest, ChaosServiceRunUnderStress)
{
    ServiceConfig config;
    for (std::size_t i = 0; i < 8; ++i)
        config.tenants.push_back(TenantSpec::fromSeed(1 + i));
    config.cacheKb = 16;
    config.shards = 2;
    config.jobs = 8;
    config.eventsOverride = 8000;
    config.sliceEvents = 512;
    config.chaos = ChaosPlan::parse(
        "c1,crash=400,quar=500,quarlen=4,sqdiv=4,sqat=2,sqlen=6,"
        "window=6");

    const ServiceReport first = runService(config);
    const ServiceReport second = runService(config);
    ASSERT_EQ(first.tenants.size(), second.tenants.size());
    for (std::size_t i = 0; i < first.tenants.size(); ++i)
        EXPECT_EQ(first.tenants[i].fingerprint,
                  second.tenants[i].fingerprint)
            << first.tenants[i].name;
    EXPECT_GT(first.chaos.restarts + first.chaos.quarantines +
                  first.chaos.squeezes,
              0u);
    EXPECT_EQ(verifyServiceDeterminism(config), "");
}

} // namespace
} // namespace service
} // namespace rsel
