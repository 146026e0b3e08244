/**
 * @file
 * The multi-tenant selection service: N concurrent guest streams
 * (tenants) multiplexed over one shared, bounded, sharded code
 * cache by the PR-1 ThreadPool, driven through the PR-6 batched
 * event path.
 *
 * The load-bearing contract: each tenant's SimResult fingerprint is
 * byte-identical to a solo single-tenant run of the same spec and
 * quota-derived limits, at any concurrency, for every selector,
 * including under fault plans. soloTenantRun() is the reference
 * leg; verifyServiceDeterminism() is the oracle the test battery
 * and `rselect-fuzz --tenants` drive.
 */

#ifndef RSEL_SERVICE_SELECTION_SERVICE_HPP
#define RSEL_SERVICE_SELECTION_SERVICE_HPP

#include <iosfwd>
#include <string>
#include <vector>

#include "service/chaos.hpp"
#include "service/overload.hpp"
#include "service/sharded_cache.hpp"
#include "service/tenant_spec.hpp"

namespace rsel {
namespace service {

/** Configuration of one service run. */
struct ServiceConfig
{
    /** The tenant set (>= 1 tenant). */
    std::vector<TenantSpec> tenants;
    /** Pool workers: 0 = hardware concurrency, 1 = serial. */
    std::size_t jobs = 0;
    /**
     * Global code-cache bound in KiB, partitioned into equal
     * per-tenant quotas; 0 = unbounded arena, in which case each
     * tenant honours its own spec's cacheKb (the differential
     * oracle's mapping).
     */
    std::uint64_t cacheKb = 0;
    /** Arena shard count. */
    std::size_t shards = 16;
    /** Eviction policy applied within each tenant's quota. */
    CacheLimits::Policy policy = CacheLimits::Policy::FullFlush;
    /** Events per scheduling slice (bounds tenant latency skew). */
    std::uint64_t sliceEvents = 4096;
    /** Non-zero overrides every tenant's event budget. */
    std::uint64_t eventsOverride = 0;
    /** Service-level fault plan (default: disarmed). */
    ChaosPlan chaos;
    /** Overload controller (default: off). */
    OverloadConfig overload;
};

/** One tenant's outcome. */
struct TenantReport
{
    std::string name;
    std::string selector;
    SimResult result;
    /** testing::resultFingerprint of the result — the determinism
     *  contract's unit of comparison. Empty for aborted tenants. */
    std::string fingerprint;
    /** Physical-arena accounting at finish time (before teardown;
     *  for crashed tenants, under the post-restart arena id). */
    TenantCacheStats cache;
    /** Final health per the overload controller. */
    TenantHealth health = TenantHealth::Healthy;
    /** Chaos/overload accounting (scheduled == shed + completed +
     *  blacklisted is the per-tenant slice identity). */
    ConductorCounters chaos;
    /** True if the chaos plan aborted the tenant: result and
     *  fingerprint are empty, only accounting is meaningful. */
    bool aborted = false;
};

/** Run-level chaos/overload roll-up (sums of TenantReport.chaos). */
struct ServiceChaosTotals
{
    std::uint64_t aborts = 0;
    std::uint64_t restarts = 0;
    std::uint64_t quarantines = 0;
    std::uint64_t squeezes = 0;
    std::uint64_t scheduledSlices = 0;
    std::uint64_t shedSlices = 0;
    std::uint64_t completedSlices = 0;
    std::uint64_t blacklistedSlices = 0;
    /** Tenants whose final health is not HEALTHY. */
    std::uint64_t degradedTenants = 0;
    /** Tenants that ended BLACKLISTED (incl. budget exhaustion). */
    std::uint64_t blacklistedTenants = 0;
};

/** Outcome of one service run. */
struct ServiceReport
{
    std::vector<TenantReport> tenants;
    /** Arena accounting after all tenants finished, before
     *  teardown (liveBytes = Σ per-tenant residency). */
    ArenaStats arena;
    /** Per-tenant quota in effect (0 = unbounded / per-spec). */
    std::uint64_t quotaBytes = 0;
    std::size_t jobs = 0;
    double seconds = 0;
    /** Sustained dynamic events per second across the whole run. */
    double eventsPerSec = 0;
    /** Global hit rate: Σ cached insts / Σ total insts (surviving
     *  tenants only). */
    double globalHitRate = 0;
    std::uint64_t totalEvents = 0;
    std::uint64_t totalInsts = 0;
    std::uint64_t cachedInsts = 0;
    /** Chaos/overload roll-up (all zero on a chaos-free run). */
    ServiceChaosTotals chaos;
};

/**
 * The logical-cache limits tenant `spec` runs with under `config`:
 * the arena quota partition when the service is bounded, the spec's
 * own cacheKb otherwise. The solo reference leg must use the same
 * limits — that IS the determinism contract's definition of "the
 * corresponding solo run".
 */
CacheLimits tenantLimitsFor(const ServiceConfig &config,
                            const TenantSpec &spec);

/**
 * Run the whole tenant set to completion and report. One worker
 * pool serves the whole run: tenants are built on it, run over it
 * in rounds of one slice per pending tenant, then finished into
 * their own report rows and torn down on it. Per-tenant results are
 * independent of worker count and interleaving by construction, and
 * the rows and totals come out in tenant order. A throwing tenant
 * fail-fasts the run (ThreadPool's first-exception contract).
 * @throws FatalError on an empty tenant set.
 */
ServiceReport runService(const ServiceConfig &config);

/**
 * The solo reference leg: run one tenant alone — no arena, plain
 * DynOptSystem + batched Executor — under `limits`. The service's
 * per-tenant results must match this byte-for-byte. `skipEvents`
 * fast-forwards the guest stream before the system sees any event —
 * the warm-restart oracle's "fresh solo run from the same
 * position" (the skipped events still count against the budget).
 */
SimResult soloTenantRun(const TenantSpec &spec, CacheLimits limits,
                        std::uint64_t eventsOverride = 0,
                        std::uint64_t skipEvents = 0);

/**
 * Warm-restart fast-forward: advance `exec` past its first `events`
 * events without delivering them to any system. Asserts that the
 * skip fits in `budget` and ends before the guest halts.
 * @return the event budget left after the skip.
 */
std::uint64_t fastForward(Executor &exec, std::uint64_t events,
                          std::uint64_t budget);

/**
 * The logical-cache capacity in effect while `config.chaos`'s
 * memory-pressure squeeze is active for tenant `spec`: the quota a
 * population `factor` times larger would get (computed through the
 * same limitsFor() partition), or the spec's own bound divided by
 * `factor` when the arena is unbounded. 0 (fully unbounded tenant)
 * makes the squeeze a no-op.
 */
std::uint64_t squeezedCapacityFor(const ServiceConfig &config,
                                  const TenantSpec &spec,
                                  std::uint32_t factor);

/**
 * The chaos-aware solo reference leg: drive tenant `tenantIndex` of
 * `config` through its own TenantConductor — same schedule, same
 * overload machine, same slice size — against a private arena.
 * Reproduces squeezes and health-driven degradation exactly; used
 * by verifyServiceDeterminism for tenants the chaos plan or overload
 * controller semantically touched. @pre the tenant survives its
 * schedule (a scheduled abort it never reaches is fine).
 */
SimResult soloTenantChaosRun(const ServiceConfig &config,
                             std::size_t tenantIndex);

/**
 * The service oracle (rselect-serve --verify-solo, rselect-fuzz
 * --tenants, with or without chaos). Runs `config` through the
 * service once, then checks per tenant, on a pool of `config.jobs`
 * workers:
 *  - aborted tenants: the schedule must call for the abort, and the
 *    tenant must leave zero physical residue;
 *  - crashed tenants: the post-restart fingerprint must equal a
 *    fresh solo run fast-forwarded to the replay position;
 *  - tenants semantically touched by a squeeze or by overload
 *    degradation: fingerprint must equal the conductor-driven solo
 *    chaos leg (soloTenantChaosRun);
 *  - every other tenant, so every tenant of a chaos-free config:
 *    fingerprint must equal the plain solo run (soloTenantRun) —
 *    the determinism and isolation half of the oracle.
 * Plus the accounting identities: per tenant and globally,
 * admissions == releases + liveEntries, and scheduled == shed +
 * completed + blacklisted.
 * @return empty on success, else a description of the first
 * failure in tenant order (never throws; failures from any layer
 * are captured).
 */
std::string verifyServiceDeterminism(const ServiceConfig &config);

/**
 * Write the report as JSON (rselect-serve --json): run-level
 * aggregates plus one compact record per tenant (fingerprints are
 * folded to an FNV-1a hash so 4096-tenant reports stay small).
 */
void writeServiceReportJson(std::ostream &out,
                            const ServiceConfig &config,
                            const ServiceReport &report);

} // namespace service
} // namespace rsel

#endif // RSEL_SERVICE_SELECTION_SERVICE_HPP
