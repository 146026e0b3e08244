/**
 * @file
 * The sharded, bounded, concurrent code cache shared by every
 * tenant of the selection service.
 *
 * Architecture (see docs/SERVICE.md): each tenant keeps its own
 * *logical* CodeCache — region ids, counters and eviction decisions
 * stay a pure function of that tenant's event stream and its
 * quota-derived CacheLimits, which is what makes per-tenant
 * SimResult fingerprints byte-identical to solo runs at any
 * concurrency. This class is the *physical* substrate underneath:
 * every logical insert / evict / invalidate / flush is mirrored
 * here (via CodeCache::Listener) into one entry map keyed by
 * tenant and entrance address, with per-tenant and global byte
 * accounting.
 *
 * The global eviction policy is quota partitioning: a global
 * capacity C over N tenants grants each tenant C/N bytes, and the
 * configured policy (FullFlush or Fifo) is applied *within* each
 * tenant's quota by its logical cache. The arena never chooses
 * cross-tenant victims — doing so would make one tenant's hit rate
 * depend on its neighbours' schedules and break the determinism
 * contract — so its job is admission bookkeeping, isolation
 * enforcement (a tenant must be registered and alive to admit, and
 * two tenants can never alias one physical entry), and the global
 * occupancy bound Σ_t live_t ≤ C (+ the same single-oversized-
 * region overshoot CodeCache itself permits per tenant).
 *
 * Shards are the unit a chaos quarantine takes out of service. An
 * entrance's shard is a hash of its address *only* — deliberately
 * not of its tenant — so one quarantine parks admissions of every
 * tenant whose guest program uses that address range (all
 * generated programs share one).
 *
 * Concurrency contract (checked by the `analyze` preset, see
 * docs/ANALYSIS.md for the full capability map): one mutex, `mu_`,
 * guards every field but the configuration and the contention
 * counter. The arena calls nothing while holding it, so it is last
 * in every lock order: admit/release run from a tenant's
 * logical-cache mutation with the tenant's conductor lock held.
 */

#ifndef RSEL_SERVICE_SHARDED_CACHE_HPP
#define RSEL_SERVICE_SHARDED_CACHE_HPP

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "runtime/code_cache.hpp"
#include "support/sync.hpp"

namespace rsel {
namespace service {

/** Dense id of one registered tenant. */
using TenantId = std::uint32_t;

/** Configuration of the shared arena. */
struct ArenaConfig
{
    /** Global capacity in estimated bytes; 0 = unbounded. */
    std::uint64_t capacityBytes = 0;
    /** Number of shards (clamped to >= 1). */
    std::size_t shardCount = 16;
    /** Eviction policy applied within each tenant's quota. */
    CacheLimits::Policy policy = CacheLimits::Policy::FullFlush;
};

/** Per-tenant accounting snapshot (disjoint by release kind). */
struct TenantCacheStats
{
    std::uint64_t liveBytes = 0;      ///< current physical residency
    std::uint64_t highWaterBytes = 0; ///< peak physical residency
    std::uint64_t admissions = 0;     ///< regions admitted
    std::uint64_t evictionReleases = 0;
    std::uint64_t invalidationReleases = 0;
    std::uint64_t flushReleases = 0;
    /** Entries currently resident, closing the O(1) accounting
     *  identity admissions == Σ releases + liveEntries. */
    std::uint64_t liveEntries = 0;
};

/** Global accounting snapshot. */
struct ArenaStats
{
    std::uint64_t liveBytes = 0;
    std::uint64_t highWaterBytes = 0;
    std::uint64_t admissions = 0;
    std::uint64_t releases = 0;
    /** Acquisitions of the arena's mutex that found it held: the
     *  cross-tenant contention the arena meets. */
    std::uint64_t shardContention = 0;
    /** Entries currently resident (admissions == releases +
     *  liveEntries is the global accounting identity). */
    std::uint64_t liveEntries = 0;
    /** quarantineShard() calls (chaos plan triggers). */
    std::uint64_t quarantines = 0;
    /** Admissions that arrived at a quarantined shard and were
     *  parked until the lift. */
    std::uint64_t quarantinedAdmissions = 0;
    std::size_t shardCount = 0;
    std::size_t tenantsRegistered = 0;
    std::size_t tenantsActive = 0;
};

/**
 * The shared physical code cache. All methods are thread-safe; a
 * single tenant's calls must be serialized by its conductor (they
 * are — a conductor runs one slice at a time, and its single-owner
 * capability enforces it), but different tenants call concurrently
 * from any pool worker.
 */
class ShardedCodeCache
{
  public:
    explicit ShardedCodeCache(ArenaConfig cfg);

    ShardedCodeCache(const ShardedCodeCache &) = delete;
    ShardedCodeCache &operator=(const ShardedCodeCache &) = delete;

    /**
     * Register a tenant and return its fresh dense id. Ids are
     * never reused: a torn-down tenant's id stays dead forever,
     * which is one half of the no-resurrection guarantee (the
     * other half is that releaseAll() empties its entries). Safe to
     * call concurrently with admit()/release() traffic — warm
     * tenant restart registers a fresh id while neighbours are
     * mid-slice.
     */
    TenantId registerTenant() RSEL_EXCLUDES(mu_);

    /**
     * Per-tenant quota under the global policy: capacityBytes / N
     * (0 = unbounded when the arena is unbounded). @pre N >= 1.
     */
    std::uint64_t tenantQuotaBytes(std::size_t tenantCount) const;

    /** The CacheLimits a tenant's logical cache must run with so
     *  the quota partition holds (the policy rides along). */
    CacheLimits tenantLimits(std::size_t tenantCount) const
    {
        return limitsFor(cfg_, tenantCount);
    }

    /** tenantLimits() without an arena: the one place the quota
     *  partition is computed, shared with the solo reference leg so
     *  service and solo limits cannot drift apart. */
    static CacheLimits limitsFor(const ArenaConfig &cfg,
                                 std::size_t tenantCount);

    /**
     * Admit one region of `bytes` estimated bytes entering at
     * `entry`. @pre the tenant is registered and active, and holds
     * no live entry at `entry` (its logical cache guarantees both).
     * Callable from under a tenant's logical-cache mutation (the
     * Listener mirror).
     */
    void admit(TenantId tenant, Addr entry, std::uint64_t bytes)
        RSEL_EXCLUDES(mu_);

    /**
     * Release the entry admitted at `entry`. The byte figure must
     * match the admission (CodeCache reports the same estimate on
     * both sides, so listener-driven mirrors always do). Same
     * re-entrancy contract as admit().
     */
    void release(TenantId tenant, Addr entry, std::uint64_t bytes,
                 CodeCache::DropReason reason) RSEL_EXCLUDES(mu_);

    /**
     * Drop every live and parked entry of `tenant` (teardown sweep),
     * then deactivate the id: further admissions from it are
     * rejected loudly, so a dead tenant's regions can never
     * resurrect. The sweep scans the maps themselves, but only the
     * tenant's own key range in each: O(shards · log entries + the
     * tenant's entries), independent of how many other tenants are
     * resident. @return bytes released.
     */
    std::uint64_t releaseAll(TenantId tenant) RSEL_EXCLUDES(mu_);

    /**
     * Final teardown check: @pre releaseAll() ran (or the tenant
     * emptied its cache through the flush machinery) — a tenant
     * with residual live bytes is a service bug and panics.
     */
    void unregisterTenant(TenantId tenant) RSEL_EXCLUDES(mu_);

    /**
     * Quarantine one shard (chaos fault): until the matching lift,
     * admissions hashing to it are *parked* — accounted as admitted
     * (the logical cache has already committed to the region; the
     * mirror must not diverge) but held in the shard's pen,
     * modelling an arena segment taken out of service. Purely
     * physical: no logical result can change. Nests; each
     * quarantine needs one lift. @pre shard < shardCount.
     */
    void quarantineShard(std::size_t shard) RSEL_EXCLUDES(mu_);

    /**
     * Lift one quarantine of `shard`; when the last nested
     * quarantine lifts, parked entries merge back into the live
     * map. @pre the shard is quarantined.
     */
    void liftShardQuarantine(std::size_t shard) RSEL_EXCLUDES(mu_);

    /** Shard index serving `entry` (test probe). */
    std::size_t
    shardOf(Addr entry) const
    {
        // splitmix64-style finalizer: entrance addresses are
        // sequential and small, so raw modulo would put every
        // tenant of a program family in shard 0.
        std::uint64_t h = entry;
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
        return static_cast<std::size_t>(h % cfg_.shardCount);
    }

    /** Accounting snapshot of one tenant. */
    TenantCacheStats tenantStats(TenantId tenant) const
        RSEL_EXCLUDES(mu_);

    /** Global accounting snapshot. */
    ArenaStats stats() const RSEL_EXCLUDES(mu_);

    /** Live and parked physical entries of one tenant (test probe):
     *  counts the tenant's key range in the entry map and in each
     *  pen, O(shards · log entries + the tenant's entries). */
    std::size_t liveEntryCount(TenantId tenant) const
        RSEL_EXCLUDES(mu_);

    /** The configured arena parameters. */
    const ArenaConfig &config() const { return cfg_; }

  private:
    friend struct TsaTestProbe; // negative-compile battery only

    /** Map of tenant-qualified keys (see keyOf) to entry bytes.
     *  Ordered, so each tenant's entries form one contiguous key
     *  range. */
    using EntryMap = std::map<std::uint64_t, std::uint64_t>;

    /** One shard's quarantine pen. */
    struct Pen
    {
        /** Admissions parked while the shard is quarantined; merged
         *  into the entry map when the last quarantine lifts. */
        EntryMap parked;
        /** Nested quarantine count; admissions park while > 0. */
        std::uint32_t depth = 0;
    };

    /** Per-tenant account. */
    struct Account
    {
        TenantCacheStats stats;
        /** False once torn down: admissions are then rejected. */
        bool active = true;
    };

    /** Tenant ids stay below 2^20, so keyOf never overflows. */
    static constexpr std::size_t kMaxTenants = std::size_t{1} << 20;

    /**
     * Tenant-qualified map key: two tenants' guest programs live
     * in the same synthetic address range, so the physical map
     * must never let one tenant's entry satisfy (or collide with)
     * another's. Entrance addresses in generated programs stay
     * well below 2^40; the assert in admit() enforces it. With the
     * tenant in the high bits, tenant t's keys are exactly the
     * ordered run that starts at keyOf(t, 0).
     */
    static std::uint64_t
    keyOf(TenantId tenant, Addr entry)
    {
        return (static_cast<std::uint64_t>(tenant) << 40) | entry;
    }

    /** The tenant a key belongs to: keyOf's high bits. */
    static TenantId
    tenantOf(std::uint64_t key)
    {
        return static_cast<TenantId>(key >> 40);
    }

    /** The account of a registered tenant; panics on an unknown
     *  id. */
    Account &account(TenantId tenant) RSEL_REQUIRES(mu_);

    ArenaConfig cfg_;
    mutable Mutex mu_;
    /** Live entries of every tenant. */
    EntryMap entries_ RSEL_GUARDED_BY(mu_);
    /** One quarantine pen per shard. */
    std::vector<Pen> pens_ RSEL_GUARDED_BY(mu_);
    /** Indexed by TenantId; a deque, so registering never copies
     *  the established accounts while the lock is held. */
    std::deque<Account> accounts_ RSEL_GUARDED_BY(mu_);
    /** The global counters; stats() adds the contention, shard and
     *  tenant figures. */
    ArenaStats totals_ RSEL_GUARDED_BY(mu_);
    /** role: counter (relaxed) — bumped by MutexLock's contention
     *  probe before it waits, so it lives outside `mu_`. */
    mutable std::atomic<std::uint64_t> contention_{0};
};

} // namespace service
} // namespace rsel

#endif // RSEL_SERVICE_SHARDED_CACHE_HPP
