/**
 * @file
 * One tenant of the selection service and the overload controller
 * that judges it: per-tenant health tracking, bounded admission,
 * slice budgets, and the TenantConductor that owns one tenant and
 * drives it through both the overload machine and its
 * ChaosSchedule.
 *
 * Health state machine (see docs/RESILIENCE.md for the diagram):
 *
 *     HEALTHY ──pressure──► DEGRADED ──streak──► SHED ──► BLACKLISTED
 *        ▲                      │                  │       (terminal)
 *        └──────clean slice─────┘◄───clean slice───┘
 *
 * "Pressure" is the tenant's own recovery-signal delta per slice
 * (translation failures, backoff/blacklist suppressions, retries —
 * the counters RecoveryStats already maintains), so the machine is
 * a pure function of the tenant's stream: deterministic at any
 * worker count, reproducible by the solo reference leg. SHED defers
 * a deterministic fraction of the tenant's slices (round-robin by
 * its own offer clock — no events are ever dropped, transparency
 * holds); BLACKLISTED is terminal and degrades the tenant to pure
 * interpretation, after which it drains its remaining budget
 * interpreted. A slice budget (deadline analogue) forces the same
 * terminal state when a tenant exceeds its allotted slices.
 *
 * The conductor is the single implementation of the chaos+overload
 * slice loop: runService drives one per tenant, and the solo
 * reference leg (soloTenantChaosRun) drives the same class against
 * a private arena — so the oracle and the service cannot drift.
 */

#ifndef RSEL_SERVICE_OVERLOAD_HPP
#define RSEL_SERVICE_OVERLOAD_HPP

#include <cstdint>
#include <optional>

#include "dynopt/dynopt_system.hpp"
#include "service/chaos.hpp"
#include "service/sharded_cache.hpp"
#include "service/tenant_spec.hpp"
#include "support/sync.hpp"

namespace rsel {
namespace service {

/** Per-tenant health as seen by the overload controller. */
enum class TenantHealth : std::uint8_t {
    Healthy,
    Degraded,
    Shed,
    Blacklisted,
};

/** Stable uppercase name ("HEALTHY", ... — JSON/report form). */
const char *healthName(TenantHealth health);

/** Recovery-signal delta per slice that counts as pressure. */
constexpr std::uint32_t kDegradePressure = 1;
/** Consecutive pressured slices before DEGRADED becomes SHED. */
constexpr std::uint32_t kShedAfter = 3;
/** Consecutive pressured slices before BLACKLISTED. */
constexpr std::uint32_t kBlacklistAfter = 8;
/** In SHED, every kShedStride-th offer runs, the rest are shed. */
constexpr std::uint32_t kShedStride = 2;

/** Knobs of the overload controller. Default-constructed = off. */
struct OverloadConfig
{
    /** Max tenants granted a slice per scheduling round (bounded
     *  admission); 0 = unbounded (every pending tenant runs). */
    std::size_t maxInflight = 0;
    /** Slices a tenant may consume before it is degraded to
     *  interpretation (deadline analogue); 0 = no budget. */
    std::uint64_t sliceBudget = 0;

    /**
     * True if the health state machine runs: whenever chaos or an
     * overload bound is in play. A plain service run keeps the
     * chaos-free contract (and its oracles) untouched.
     */
    bool
    healthEnabled(bool chaosArmed) const
    {
        return chaosArmed || maxInflight != 0 || sliceBudget != 0;
    }
};

/**
 * The per-tenant health state machine. Pure: its state is a
 * function of the pressure-delta sequence fed to observe(), nothing
 * else, which is what lets the solo reference leg replay it.
 */
class TenantHealthMachine
{
  public:
    /**
     * Feed one completed slice's recovery-signal delta; returns the
     * new state. A pressured slice escalates (per the streak
     * thresholds); a clean slice clears the streak and steps the
     * state down one level. BLACKLISTED is absorbing.
     */
    TenantHealth observe(std::uint64_t pressureDelta);

    /** Force the terminal state (slice-budget exhaustion). */
    void
    blacklist()
    {
        state_ = TenantHealth::Blacklisted;
    }

    /** Warm restart: the restarted tenant starts with a clean bill
     *  of health. */
    void
    reset()
    {
        state_ = TenantHealth::Healthy;
        streak_ = 0;
    }

    TenantHealth state() const { return state_; }

  private:
    TenantHealth state_ = TenantHealth::Healthy;
    std::uint32_t streak_ = 0;
};

/** The conductor's per-tenant accounting (the report's chaos and
 *  overload counters; `scheduled == shed + completed + blacklisted`
 *  is the slice-accounting identity the fuzz oracle checks). */
struct ConductorCounters
{
    /** Offers while pending (granted or shed). */
    std::uint64_t scheduledSlices = 0;
    /** Offers deferred: SHED-stride plus admission-bound sheds. */
    std::uint64_t shedSlices = 0;
    /** Slices run while not degraded. */
    std::uint64_t completedSlices = 0;
    /** Slices run in the degraded (interpret-only) drain. */
    std::uint64_t blacklistedSlices = 0;
    std::uint64_t restarts = 0;
    /** Replay position of the (single) warm restart. */
    std::uint64_t restartFromEvent = 0;
    std::uint64_t quarantinesTriggered = 0;
    std::uint64_t squeezesApplied = 0;
    bool aborted = false;
    bool budgetExhausted = false;
};

/**
 * ONE tenant of the service: its guest program, an Executor and a
 * DynOptSystem, driven in bounded slices so a small worker pool can
 * multiplex thousands of tenants, together with the tenant's
 * ChaosSchedule and overload state. All chaos triggers key off the
 * tenant's own run-slice clock (`slicesRun_`), so the whole
 * trajectory — faults, health transitions, sheds — is a pure
 * function of (spec, limits, schedule, overload config), identical
 * at any worker count and reproducible solo.
 *
 * The conductor bridges the tenant's *logical* cache (its
 * DynOptSystem's CodeCache, whose behaviour is a pure function of
 * the spec and the quota-derived limits) and the *physical*
 * ShardedCodeCache: as the cache's Listener it mirrors every
 * structural mutation into the arena under the tenant's id.
 *
 * Threading: one thread owns a conductor at a time (the scheduler
 * offers it at most once per round); distinct conductors run
 * concurrently and meet only inside the arena. That contract is the
 * capability `mu_`: every mutable field is `RSEL_GUARDED_BY(mu_)`,
 * and offer, recordAdmissionShed, finish and teardown take it with
 * `MutexSoleLock`, which *panics* on contention, because a second
 * concurrent owner is a scheduler bug, not a queueing situation.
 * `mu_` is held across the logical-cache mutations that re-enter
 * the arena, so it sits strictly before the arena's `mu_`
 * (docs/ANALYSIS.md).
 */
class TenantConductor : public CodeCache::Listener
{
  public:
    /**
     * Generates the tenant's program, registers the tenant with the
     * arena and builds its system and executor.
     * @param limits  quota-derived logical-cache limits (must come
     *        from the arena's partition so the global bound holds).
     * @param squeezedCapacityBytes logical-cache capacity while the
     *        memory-pressure squeeze is active (computed by the
     *        service through the limitsFor() partition; 0 =
     *        unbounded, making the squeeze a no-op).
     * @param arena   shared physical cache; must outlive the
     *        conductor.
     * @param sliceEvents events per slice (non-zero).
     * @param eventsOverride non-zero replaces the spec's own event
     *        budget.
     */
    TenantConductor(const TenantSpec &spec, CacheLimits limits,
                    std::uint64_t squeezedCapacityBytes,
                    ShardedCodeCache &arena,
                    std::uint64_t sliceEvents,
                    std::uint64_t eventsOverride,
                    const ChaosSchedule &schedule,
                    const OverloadConfig &overload);

    /** Lifts any still-pending quarantine and, if teardown() never
     *  ran, drops the tenant's arena residue and retires its id. */
    ~TenantConductor() override;

    TenantConductor(const TenantConductor &) = delete;
    TenantConductor &operator=(const TenantConductor &) = delete;

    /**
     * One scheduling opportunity: fire due chaos triggers, then
     * either shed (SHED stride) or run one slice and feed the
     * health machine. The scheduler keeps offering until done().
     */
    void offer() RSEL_EXCLUDES(mu_);

    /**
     * The bounded-admission scheduler denied this round's offer:
     * account it as scheduled-and-shed without touching the slice
     * clock (chaos triggers stay keyed to run slices, so the solo
     * leg — which has no admission bound — replays identically).
     */
    void recordAdmissionShed() RSEL_EXCLUDES(mu_);

    /** True once the tenant spent its budget, its guest halted, or
     *  it was aborted. */
    bool done() const RSEL_EXCLUDES(mu_);

    /**
     * Close the run and return its metrics (workload field set to
     * the tenant name). @pre done() && !aborted. The result is
     * byte-identical to the matching solo run — the service's
     * determinism contract.
     */
    SimResult finish() RSEL_EXCLUDES(mu_);

    /**
     * Tear the tenant down: lift any pending quarantine, flush the
     * logical cache through the disruption machinery (the listener
     * mirrors the drops out of the arena), and retire the arena id
     * for good. Idempotent; works on finished and aborted tenants
     * alike.
     */
    void teardown() RSEL_EXCLUDES(mu_);

    /** Current health (reports; BLACKLISTED once degraded). */
    TenantHealth health() const RSEL_EXCLUDES(mu_);

    ConductorCounters counters() const RSEL_EXCLUDES(mu_);

    /** The current arena id (the restarted id after a crash; the
     *  retired id after an abort). */
    TenantId tenantId() const RSEL_EXCLUDES(mu_);

    const TenantSpec &spec() const { return spec_; }

    // CodeCache::Listener — the logical->physical mirror. Fired from
    // inside sys_, which only the holder of mu_ drives.
    void onRegionInserted(const Region &region, std::uint64_t bytes)
        RSEL_REQUIRES(mu_) override;
    void onRegionDropped(const Region &region, std::uint64_t bytes,
                         CodeCache::DropReason reason)
        RSEL_REQUIRES(mu_) override;

  private:
    friend struct TsaTestProbe; // tests and negative-compile battery

    /** A cold system over prog_, mirrored into the arena. */
    void buildSystem() RSEL_REQUIRES(mu_);
    /** Run up to sliceEvents_ further events through the system. */
    void runSlice() RSEL_REQUIRES(mu_);
    void applyChaosPreSlice() RSEL_REQUIRES(mu_);
    void restartTenant() RSEL_REQUIRES(mu_);
    void abortTenant() RSEL_REQUIRES(mu_);
    /** Flush the system and retire the current arena id. Idempotent
     *  until a restart registers a new id. */
    void retire() RSEL_REQUIRES(mu_);
    void liftQuarantineIfPending() RSEL_REQUIRES(mu_);
    /** Sum of the recovery counters the health machine listens
     *  to. */
    std::uint64_t pressureSignals() const RSEL_REQUIRES(mu_);

    const TenantSpec spec_;
    const CacheLimits limits_;
    const std::uint64_t squeezedCapacityBytes_;
    ShardedCodeCache &arena_;
    const std::uint64_t sliceEvents_;
    /** Events the tenant runs: the override, or the spec's own. */
    const std::uint64_t budget_;
    const ChaosSchedule schedule_;
    const OverloadConfig overload_;
    /** Generated once; a warm restart reuses it. */
    const Program prog_;

    /**
     * The single-owner capability. Uncontended in a correct
     * service; MutexSoleLock turns contention into a panic. mutable
     * so the const readers can take it.
     */
    mutable Mutex mu_;
    TenantId id_ RSEL_GUARDED_BY(mu_);
    /** Rebuilt in place by a warm restart. */
    std::optional<DynOptSystem> sys_ RSEL_GUARDED_BY(mu_);
    Executor exec_ RSEL_GUARDED_BY(mu_);
    /** Events left in the budget. */
    std::uint64_t remaining_ RSEL_GUARDED_BY(mu_);
    TenantHealthMachine machine_ RSEL_GUARDED_BY(mu_);
    ConductorCounters counters_ RSEL_GUARDED_BY(mu_);

    /** Run slices so far — the chaos/budget clock. */
    std::uint64_t slicesRun_ RSEL_GUARDED_BY(mu_) = 0;
    /** Offers seen while in SHED (the stride clock). */
    std::uint64_t shedTick_ RSEL_GUARDED_BY(mu_) = 0;
    std::uint64_t lastSignals_ RSEL_GUARDED_BY(mu_) = 0;
    std::uint64_t quarLiftAt_ RSEL_GUARDED_BY(mu_) = 0;
    std::size_t quarShard_ RSEL_GUARDED_BY(mu_) = 0;
    /** No slice runs again: budget spent, guest halted, or
     *  aborted. */
    bool done_ RSEL_GUARDED_BY(mu_) = false;
    /** The current arena id is retired. */
    bool tornDown_ RSEL_GUARDED_BY(mu_) = false;
    bool degraded_ RSEL_GUARDED_BY(mu_) = false;
    /** The restarted tenant runs chaos- and overload-free: its
     *  oracle is a plain fresh solo run from the replay position. */
    bool postRestart_ RSEL_GUARDED_BY(mu_) = false;
    bool squeezeOn_ RSEL_GUARDED_BY(mu_) = false;
    bool squeezeDone_ RSEL_GUARDED_BY(mu_) = false;
    bool quarActive_ RSEL_GUARDED_BY(mu_) = false;
};

} // namespace service
} // namespace rsel

#endif // RSEL_SERVICE_OVERLOAD_HPP
