/**
 * @file
 * The service chaos plan: a compact, seeded description of every
 * service-level failure a multi-tenant run will face.
 *
 * A ChaosPlan is to the service layer what a FaultPlan is to a
 * single DynOptSystem: the *entire* input of the failure model. Its
 * faults fire at fixed per-tenant slice indices — never from wall
 * clock, thread identity or scheduling order — so a chaos run is a
 * pure function of (tenant specs, plan) and `--jobs 1` and
 * `--jobs 8` are byte-identical. The one-line codec
 * ("c1,abort=120,crash=250,...") rides the shared plan codec
 * (resilience/plan_codec.hpp) and travels on rselect-serve
 * --chaos-spec and rselect-fuzz reproducer lines.
 *
 * Fault kinds (see docs/RESILIENCE.md, "Service chaos & overload"):
 *  - tenant abort: the tenant is torn down mid-run and produces no
 *    result; its physical residue must drain to zero.
 *  - tenant crash + warm restart: teardown through the flush
 *    machinery, then a cold system over the same program, with the
 *    guest fast-forwarded to the replay position. Oracle: the
 *    restarted tenant's fingerprint equals a fresh solo run from
 *    that position.
 *  - shard quarantine: one arena shard parks admissions for K
 *    slices. Purely physical — logical results cannot change.
 *  - memory-pressure squeeze: every tenant's logical cache capacity
 *    is temporarily divided by `squeezeDiv`, driving mass eviction
 *    through the same limitsFor() partition the service already
 *    uses; capacity is restored after `squeezeSlices` slices.
 */

#ifndef RSEL_SERVICE_CHAOS_HPP
#define RSEL_SERVICE_CHAOS_HPP

#include <cstdint>
#include <string>

namespace rsel {
namespace service {

/**
 * What the plan resolved to for ONE tenant: which faults fire and at
 * which of the tenant's own slice indices. Produced by
 * ChaosPlan::scheduleFor as a pure function of (plan seed, tenant
 * index) — nothing about jobs, shards or neighbours enters.
 */
struct ChaosSchedule
{
    /** Tear the tenant down at `abortSlice`; no result. */
    bool abort = false;
    std::uint64_t abortSlice = 0;

    /** Crash at `crashSlice`, then warm-restart from the replay
     *  position. Mutually exclusive with abort by construction. */
    bool crash = false;
    std::uint64_t crashSlice = 0;

    /** Quarantine shard (quarShardSalt % shardCount) for
     *  `quarSlices` of this tenant's slices starting at
     *  `quarSlice`. */
    bool quarantine = false;
    std::uint64_t quarSlice = 0;
    std::uint64_t quarSlices = 0;
    std::uint64_t quarShardSalt = 0;

    /** Divide the logical cache capacity by `squeezeFactor` for
     *  `squeezeSlices` slices starting at `squeezeSlice`. */
    bool squeeze = false;
    std::uint64_t squeezeSlice = 0;
    std::uint64_t squeezeSlices = 0;
    std::uint32_t squeezeFactor = 1;

    /** True if the plan this schedule came from is armed, even when
     *  no fault lands on this tenant. */
    bool planArmed = false;

    /** True if any fault touches this tenant. */
    bool
    any() const
    {
        return abort || crash || quarantine || squeeze;
    }
};

/**
 * Knobs of the deterministic service chaos injector. Per-tenant
 * fault odds are expressed in permille (0..1000) so small rates
 * round-trip exactly; slice positions/windows count the tenant's
 * own slice indices.
 */
struct ChaosPlan
{
    /** ‰ of tenants aborted mid-run (no result produced). */
    std::uint32_t abortPermille = 0;
    /** ‰ of tenants crashed and warm-restarted. */
    std::uint32_t crashPermille = 0;
    /** ‰ of tenants that trigger a shard quarantine. */
    std::uint32_t quarPermille = 0;
    /** Quarantine duration in triggering-tenant slices. */
    std::uint32_t quarSlices = 8;
    /** Capacity divisor of the global squeeze (0/1 = no squeeze). */
    std::uint32_t squeezeDiv = 0;
    /** Slice index at which the squeeze lands (every tenant). */
    std::uint32_t squeezeSlice = 4;
    /** Squeeze duration in slices. */
    std::uint32_t squeezeSlices = 8;
    /** Abort/crash/quarantine triggers land in slices
     *  [1, windowSlices]. */
    std::uint32_t windowSlices = 16;
    /** Chaos seed (independent of program/fault seeds). */
    std::uint64_t seed = 1;

    /** True if any service fault can ever fire. */
    bool
    armed() const
    {
        return abortPermille != 0 || crashPermille != 0 ||
               quarPermille != 0 || squeezeDiv > 1;
    }

    /** Clamp every knob into its legal range. */
    void clamp();

    /** Compact one-line text form ("c1,abort=120,crash=250,..."). */
    std::string toString() const;

    /**
     * Parse the text form produced by toString().
     * @throws FatalError on malformed input.
     */
    static ChaosPlan parse(const std::string &text);

    /**
     * Derive a randomized, always-armed plan from a fuzz seed (the
     * seed-to-chaos-space mapping of --chaos-fuzz).
     */
    static ChaosPlan fromSeed(std::uint64_t seed);

    /**
     * Resolve the plan for one tenant. Pure: depends only on the
     * plan's knobs/seed and `tenantIndex` (the tenant's position in
     * the service config), so every jobs/shard count — and the solo
     * reference leg — sees the identical schedule.
     */
    ChaosSchedule scheduleFor(std::size_t tenantIndex) const;

    bool operator==(const ChaosPlan &other) const;
    bool operator!=(const ChaosPlan &other) const
    {
        return !(*this == other);
    }
};

} // namespace service
} // namespace rsel

#endif // RSEL_SERVICE_CHAOS_HPP
