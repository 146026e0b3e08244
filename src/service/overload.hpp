/**
 * @file
 * The service overload controller: per-tenant health tracking,
 * bounded admission, slice budgets — and the TenantConductor that
 * drives one tenant through both the overload machine and its
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
#include <memory>

#include "service/chaos.hpp"
#include "service/tenant_session.hpp"

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

    /** Warm restart: the replacement session starts with a clean
     *  bill of health. */
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
 * Drives ONE tenant through its ChaosSchedule and the overload
 * controller, slice by slice. All chaos triggers key off the
 * tenant's own run-slice clock (`slicesRun`), so the whole
 * trajectory — faults, health transitions, sheds — is a pure
 * function of (spec, limits, schedule, overload config), identical
 * at any worker count and reproducible solo.
 *
 * Threading: like TenantSession, a conductor has one owner at a
 * time; the scheduler offers it at most once per round.
 */
class TenantConductor
{
  public:
    /**
     * Registers the tenant with the arena and builds its session.
     * @param squeezedCapacityBytes logical-cache capacity while the
     *        memory-pressure squeeze is active (computed by the
     *        service through the limitsFor() partition; 0 =
     *        unbounded, making the squeeze a no-op).
     */
    TenantConductor(const TenantSpec &spec, CacheLimits limits,
                    std::uint64_t squeezedCapacityBytes,
                    ShardedCodeCache &arena,
                    std::uint64_t sliceEvents,
                    std::uint64_t eventsOverride,
                    const ChaosSchedule &schedule,
                    const OverloadConfig &overload);

    /** Lifts any still-pending quarantine; the session tears itself
     *  down via its own destructor if teardown() never ran. */
    ~TenantConductor();

    TenantConductor(const TenantConductor &) = delete;
    TenantConductor &operator=(const TenantConductor &) = delete;

    /**
     * One scheduling opportunity: fire due chaos triggers, then
     * either shed (SHED stride) or run one slice and feed the
     * health machine. The scheduler keeps offering until done().
     */
    void offer();

    /**
     * The bounded-admission scheduler denied this round's offer:
     * account it as scheduled-and-shed without touching the slice
     * clock (chaos triggers stay keyed to run slices, so the solo
     * leg — which has no admission bound — replays identically).
     */
    void recordAdmissionShed();

    /** True once the tenant completed, was aborted, or stopped. */
    bool done() const;

    /** Close the run. @pre done() && !aborted. */
    SimResult finish();

    /** Tear down session and any chaos residue. Idempotent. */
    void teardown();

    /** Current health (reports; BLACKLISTED once degraded). */
    TenantHealth health() const;

    const ConductorCounters &counters() const { return counters_; }

    /** The arena id of the *current* session (the restarted id
     *  after a crash; the retired id after an abort). */
    TenantId tenantId() const { return id_; }

    const TenantSpec &spec() const { return spec_; }

  private:
    void applyChaosPreSlice();
    void restartTenant();
    void abortTenant();
    void liftQuarantineIfPending();
    /** Sum of the recovery counters the health machine listens
     *  to. */
    std::uint64_t pressureSignals() const;

    TenantSpec spec_;
    CacheLimits limits_;
    std::uint64_t squeezedCapacityBytes_;
    ShardedCodeCache &arena_;
    std::uint64_t sliceEvents_;
    std::uint64_t eventsOverride_;
    ChaosSchedule schedule_;
    OverloadConfig overload_;

    TenantId id_ = 0;
    std::unique_ptr<TenantSession> session_;
    TenantHealthMachine machine_;
    ConductorCounters counters_;

    /** Run slices so far — the chaos/budget clock. */
    std::uint64_t slicesRun_ = 0;
    /** Offers seen while in SHED (the stride clock). */
    std::uint64_t shedTick_ = 0;
    std::uint64_t lastSignals_ = 0;
    bool degraded_ = false;
    bool crashed_ = false;
    /** The replacement session runs chaos- and overload-free: its
     *  oracle is a plain fresh solo run from the replay position. */
    bool postRestart_ = false;
    bool squeezeOn_ = false;
    bool squeezeDone_ = false;
    bool quarFired_ = false;
    bool quarActive_ = false;
    std::size_t quarShard_ = 0;
    std::uint64_t quarLiftAt_ = 0;
};

} // namespace service
} // namespace rsel

#endif // RSEL_SERVICE_OVERLOAD_HPP
