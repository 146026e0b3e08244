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
 * here (via CodeCache::Listener), keyed by entrance address into a
 * fixed set of shards, each guarded by its own mutex, with
 * per-tenant and global byte accounting.
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
 * Shards are keyed by entrance-address *hash only* — deliberately
 * not by tenant — so tenants whose guest programs share an address
 * range (all generated programs do) genuinely contend on the same
 * shard mutexes. The tsan stress battery hammers exactly that.
 *
 * Concurrency contract (checked by the `analyze` preset, see
 * docs/ANALYSIS.md for the full capability map):
 *
 *  - `registry_` guards the account table's *growth*
 *    (registerTenant); established accounts are then read lock-free
 *    through the `accountCount_` publication count.
 *  - `Shard::mu` guards that shard's entry map, and nothing else.
 *  - Lock hierarchy: `registry_` ≺ `shard.mu`, encoded with
 *    `RSEL_ACQUIRED_AFTER` on every shard mutex — acquiring the
 *    registry while holding a shard is a compile error under the
 *    analyze gate (the inversion TSan could only hope to trip).
 *    Methods on the admit/release path additionally carry
 *    `RSEL_EXCLUDES(registry_)`: they are callable from under a
 *    tenant's logical-cache mutation (the CodeCache::Listener
 *    mirror), so they must never wait on the registry.
 *  - All cross-shard accounting is atomic with a declared role tag
 *    (see support/sync.hpp's atomics discipline).
 */

#ifndef RSEL_SERVICE_SHARDED_CACHE_HPP
#define RSEL_SERVICE_SHARDED_CACHE_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>

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
    /** Bytes charged per exit stub (the CodeCache byte model). */
    std::uint64_t stubBytes = 10;
};

/** Why a physical entry was released (mirrors CodeCache drops). */
enum class ReleaseReason : std::uint8_t {
    Eviction,     ///< capacity eviction in the tenant's logical cache
    Invalidation, ///< self-modifying-code invalidation
    Flush,        ///< tenant-local flush (policy storm or teardown)
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
    /** Admissions/releases that found their shard mutex held — the
     *  cross-tenant contention the sharding exists to dilute. */
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
 * single tenant's calls must be serialized by its session (they
 * are — a session runs one slice at a time, and TenantSession's
 * session capability enforces it), but different tenants call
 * concurrently from any pool worker.
 */
class ShardedCodeCache
{
  public:
    explicit ShardedCodeCache(ArenaConfig cfg);
    ~ShardedCodeCache();

    ShardedCodeCache(const ShardedCodeCache &) = delete;
    ShardedCodeCache &operator=(const ShardedCodeCache &) = delete;

    /**
     * Register a tenant and return its fresh dense id. Ids are
     * never reused: a torn-down tenant's id stays dead forever,
     * which is one half of the no-resurrection guarantee (the
     * other half is that releaseAll() empties its shard entries).
     *
     * Safe to call concurrently with admit()/release() traffic —
     * warm tenant restart registers a fresh id while neighbours are
     * mid-slice. The account table is a fixed array of
     * atomically-published chunk pointers: established accounts
     * never move, chunks are allocated under `registry_` and read
     * lock-free through the accountCount_ publication protocol.
     */
    TenantId registerTenant() RSEL_EXCLUDES(registry_);

    /**
     * Per-tenant quota under the global policy: capacityBytes / N
     * (0 = unbounded when the arena is unbounded). @pre N >= 1.
     */
    std::uint64_t tenantQuotaBytes(std::size_t tenantCount) const;

    /** The CacheLimits a tenant's logical cache must run with so
     *  the quota partition holds (policy and stub model ride
     *  along). */
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
     * Listener mirror), hence must never touch the registry.
     */
    void admit(TenantId tenant, Addr entry, std::uint64_t bytes)
        RSEL_EXCLUDES(registry_);

    /**
     * Release the entry admitted at `entry`. The byte figure must
     * match the admission (CodeCache reports the same estimate on
     * both sides, so listener-driven mirrors always do). Same
     * re-entrancy contract as admit().
     */
    void release(TenantId tenant, Addr entry, std::uint64_t bytes,
                 ReleaseReason reason) RSEL_EXCLUDES(registry_);

    /**
     * Drop every live and parked entry of `tenant` (teardown sweep),
     * then deactivate the id: further admissions from it are
     * rejected loudly, so a dead tenant's regions can never
     * resurrect. The sweep scans the shard maps themselves, but only
     * the tenant's own key range in each: O(shards · log entries +
     * the tenant's entries), independent of how many other tenants
     * are resident. @return bytes released.
     */
    std::uint64_t releaseAll(TenantId tenant) RSEL_EXCLUDES(registry_);

    /**
     * Final teardown check: @pre releaseAll() ran (or the tenant
     * emptied its cache through the flush machinery) — a tenant
     * with residual live bytes is a service bug and panics.
     */
    void unregisterTenant(TenantId tenant);

    /**
     * Quarantine one shard (chaos fault): until the matching lift,
     * admissions hashing to it are *parked* — accounted as admitted
     * (the logical cache has already committed to the region; the
     * mirror must not diverge) but held in a side pen, modelling an
     * arena segment taken out of service. Purely physical: no
     * logical result can change. Nests; each quarantine needs one
     * lift. @pre shard < shardCount.
     */
    void quarantineShard(std::size_t shard) RSEL_EXCLUDES(registry_);

    /**
     * Lift one quarantine of `shard`; when the last nested
     * quarantine lifts, parked entries merge back into the live
     * map. @pre the shard is quarantined.
     */
    void liftShardQuarantine(std::size_t shard)
        RSEL_EXCLUDES(registry_);

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
        return static_cast<std::size_t>(h % shards_.size());
    }

    /** Accounting snapshot of one tenant. */
    TenantCacheStats tenantStats(TenantId tenant) const;

    /** Global accounting snapshot. */
    ArenaStats stats() const;

    /** Live and parked physical entries of one tenant (test probe):
     *  counts the tenant's key range in each shard, O(shards · log
     *  entries + the tenant's entries). */
    std::size_t liveEntryCount(TenantId tenant) const;

    /** The configured arena parameters. */
    const ArenaConfig &config() const { return cfg_; }

    /**
     * Lock-order probes for the negative-compile battery and the
     * service_stress_test shim (tests/negative_compile/): the two
     * capabilities of shard `shard` in their declared order. The
     * first IS `registry_` (each shard re-names the registry lock so
     * the `RSEL_ACQUIRED_AFTER` relation is expressible per shard);
     * acquiring them through these probes in the inverted order is
     * exactly the registry-vs-shard deadlock, and the analyze gate
     * rejects it at compile time.
     */
    Mutex &
    shardOrderFirst(std::size_t shard) const
        RSEL_RETURN_CAPABILITY(shards_[shard].registry)
    {
        return shards_[shard].registry;
    }

    /** The shard's own mutex (second in the declared order). */
    Mutex &
    shardOrderSecond(std::size_t shard) const
        RSEL_RETURN_CAPABILITY(shards_[shard].mu)
    {
        return shards_[shard].mu;
    }

  private:
    friend struct TsaTestProbe; // negative-compile battery only

    /** One shard: a mutex plus the (tenant, entry) -> bytes map.
     *  The maps are ordered by keyOf, so each tenant's entries form
     *  one contiguous key range. */
    struct Shard
    {
        explicit Shard(Mutex &registryLock) : registry(registryLock) {}

        /**
         * The owning arena's `registry_`, re-named into shard scope
         * so the lock order `registry_` ≺ `mu` is expressible as an
         * attribute on `mu` (TSA resolves `acquired_after` against
         * members of the same object).
         */
        Mutex &registry;
        mutable Mutex mu RSEL_ACQUIRED_AFTER(registry);
        /** Key = tenant-qualified entrance address (see keyOf). */
        std::map<std::uint64_t, std::uint64_t> entries
            RSEL_GUARDED_BY(mu);
        /** Admissions parked while the shard is quarantined; merged
         *  back into `entries` when the last quarantine lifts. */
        std::map<std::uint64_t, std::uint64_t> parked
            RSEL_GUARDED_BY(mu);
        /** Nested quarantine count; admissions park while > 0. */
        std::uint32_t quarantineDepth RSEL_GUARDED_BY(mu) = 0;
    };

    /** Per-tenant account; atomics because a tenant's entries span
     *  shards and snapshots race with other tenants' traffic. Role
     *  tags per the support/sync.hpp atomics discipline. */
    struct Account
    {
        /** role: gauge (relaxed) — mirrors the shard maps, whose
         *  consistency the shard mutexes already provide. */
        std::atomic<std::uint64_t> liveBytes{0};
        /** role: high-water (relaxed CAS). */
        std::atomic<std::uint64_t> highWaterBytes{0};
        /** role: counter (relaxed). */
        std::atomic<std::uint64_t> admissions{0};
        /** role: counter (relaxed). */
        std::atomic<std::uint64_t> evictionReleases{0};
        /** role: counter (relaxed). */
        std::atomic<std::uint64_t> invalidationReleases{0};
        /** role: counter (relaxed). */
        std::atomic<std::uint64_t> flushReleases{0};
        /** role: gauge (relaxed) — resident entry count, the O(1)
         *  side of admissions == Σ releases + liveEntries. */
        std::atomic<std::uint64_t> liveEntries{0};
        /** role: flag (release/acquire) — deactivation publishes the
         *  teardown sweep that preceded it. */
        std::atomic<bool> active{true};
    };

    /** Accounts live in fixed-size chunks so established elements
     *  never move while the table grows mid-traffic. */
    static constexpr std::size_t kAccountsPerChunk = 256;
    static constexpr std::size_t kMaxAccountChunks = 4096;

    struct AccountChunk
    {
        Account slots[kAccountsPerChunk];
    };

    /**
     * Tenant-qualified map key: two tenants' guest programs live
     * in the same synthetic address range, so the physical map
     * must never let one tenant's entry satisfy (or collide with)
     * another's. Entrance addresses in generated programs stay
     * well below 2^40; the assert in admit() enforces it. With the
     * tenant in the high bits, tenant t's keys are exactly the
     * ordered run that starts at keyOf(t, 0); ids stay below 2^20
     * (the account table's size), so the shift never overflows.
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

    /**
     * Look up an established account without the registry lock.
     * Sound by the accountCount_ publication protocol: the bound
     * check loads accountCount_ with acquire, which synchronizes
     * with registerTenant's release store made after the element's
     * chunk was constructed; the chunk pointer itself is loaded
     * with acquire for readers that raced past a fresher count.
     */
    Account &account(TenantId tenant);
    const Account &account(TenantId tenant) const;

    /** Raise the high-water mark to at least `value`. */
    static void raiseHighWater(std::atomic<std::uint64_t> &mark,
                               std::uint64_t value);

    ArenaConfig cfg_;
    /** Serializes registerTenant calls with each other and guards
     *  the account table's growth. First in the lock hierarchy:
     *  declared before shards_ so each Shard can bind it. */
    mutable Mutex registry_;
    /** Deque: Shard is immovable (mutex + reference member). */
    std::deque<Shard> shards_;
    /**
     * Fixed table of atomically-published chunk pointers: accounts
     * never move, and registerTenant can grow the table while other
     * tenants' admit/release traffic reads it lock-free (warm
     * restart registers ids mid-run). Chunks are allocated under
     * registry_, published with release, read with acquire, and
     * owned until destruction (role: publication pointer).
     */
    std::array<std::atomic<AccountChunk *>, kMaxAccountChunks>
        chunks_{};
    /** role: publication count (release/acquire) — publishes the
     *  construction of accounts [0..n) to lock-free readers. */
    std::atomic<std::size_t> accountCount_{0};
    /** role: gauge (relaxed). */
    std::atomic<std::uint64_t> liveBytes_{0};
    /** role: high-water (relaxed CAS). */
    std::atomic<std::uint64_t> highWaterBytes_{0};
    /** role: counter (relaxed). */
    std::atomic<std::uint64_t> admissions_{0};
    /** role: counter (relaxed). */
    std::atomic<std::uint64_t> releases_{0};
    /** role: gauge (relaxed). */
    std::atomic<std::uint64_t> liveEntries_{0};
    /** role: counter (relaxed). */
    std::atomic<std::uint64_t> quarantines_{0};
    /** role: counter (relaxed). */
    std::atomic<std::uint64_t> quarantinedAdmissions_{0};
    /** role: counter (relaxed). */
    mutable std::atomic<std::uint64_t> contention_{0};
};

} // namespace service
} // namespace rsel

#endif // RSEL_SERVICE_SHARDED_CACHE_HPP
