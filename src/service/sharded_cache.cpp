#include "service/sharded_cache.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace rsel {
namespace service {

ShardedCodeCache::ShardedCodeCache(ArenaConfig cfg) : cfg_(cfg)
{
    const std::size_t count = std::max<std::size_t>(cfg.shardCount, 1);
    // Deque, not vector: Shard is immovable (mutex + the registry
    // reference that names the lock order), so the container must
    // construct in place and never relocate.
    for (std::size_t i = 0; i < count; ++i)
        shards_.emplace_back(registry_);
    cfg_.shardCount = shards_.size();
}

ShardedCodeCache::~ShardedCodeCache()
{
    for (std::atomic<AccountChunk *> &chunk : chunks_)
        delete chunk.load(std::memory_order_relaxed);
}

TenantId
ShardedCodeCache::registerTenant()
{
    MutexLock lock(registry_);
    const std::size_t id =
        accountCount_.load(std::memory_order_relaxed);
    RSEL_ASSERT(id < kAccountsPerChunk * kMaxAccountChunks,
                "tenant id space exhausted");
    const std::size_t chunk = id / kAccountsPerChunk;
    if (chunks_[chunk].load(std::memory_order_relaxed) == nullptr) {
        // Publish the chunk before the count that makes any of its
        // slots reachable; concurrent readers load the pointer with
        // acquire in account().
        chunks_[chunk].store(new AccountChunk,
                             std::memory_order_release);
    }
    // Publish only after the Account is fully constructed: readers
    // go through accountCount_ (acquire) instead of the registry
    // lock, so the per-admission path never serializes on it —
    // which is what lets warm restart register fresh ids while
    // neighbours' admit/release traffic is in flight.
    accountCount_.store(id + 1, std::memory_order_release);
    return static_cast<TenantId>(id);
}

std::uint64_t
ShardedCodeCache::tenantQuotaBytes(std::size_t tenantCount) const
{
    return limitsFor(cfg_, tenantCount).capacityBytes;
}

CacheLimits
ShardedCodeCache::limitsFor(const ArenaConfig &cfg,
                            std::size_t tenantCount)
{
    RSEL_ASSERT(tenantCount >= 1, "quota of an empty tenant set");
    CacheLimits limits;
    // Equal shares, floored; at least one byte so a bounded arena
    // stays bounded (a 1-byte quota means "one region at a time",
    // the same single-oversized-region semantics CodeCache has).
    // An unbounded arena (capacity 0) grants unbounded tenants.
    if (cfg.capacityBytes != 0)
        limits.capacityBytes = std::max<std::uint64_t>(
            cfg.capacityBytes / tenantCount, 1);
    limits.policy = cfg.policy;
    limits.stubBytes = cfg.stubBytes;
    return limits;
}

ShardedCodeCache::Account &
ShardedCodeCache::account(TenantId tenant)
{
    RSEL_ASSERT(tenant <
                    accountCount_.load(std::memory_order_acquire),
                "unregistered tenant id");
    AccountChunk *chunk = chunks_[tenant / kAccountsPerChunk].load(
        std::memory_order_acquire);
    return chunk->slots[tenant % kAccountsPerChunk];
}

const ShardedCodeCache::Account &
ShardedCodeCache::account(TenantId tenant) const
{
    RSEL_ASSERT(tenant <
                    accountCount_.load(std::memory_order_acquire),
                "unregistered tenant id");
    const AccountChunk *chunk =
        chunks_[tenant / kAccountsPerChunk].load(
            std::memory_order_acquire);
    return chunk->slots[tenant % kAccountsPerChunk];
}

void
ShardedCodeCache::raiseHighWater(std::atomic<std::uint64_t> &mark,
                                 std::uint64_t value)
{
    std::uint64_t seen = mark.load(std::memory_order_relaxed);
    while (seen < value &&
           !mark.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
}

void
ShardedCodeCache::admit(TenantId tenant, Addr entry,
                        std::uint64_t bytes)
{
    RSEL_ASSERT(entry < (1ULL << 40),
                "entrance address exceeds the tenant-key range");
    Account &acct = account(tenant);
    RSEL_ASSERT(acct.active.load(std::memory_order_acquire),
                "admission from a torn-down tenant");
    Shard &shard = shards_[shardOf(entry)];
    bool parked = false;
    {
        MutexLock lock(shard.mu, contention_);
        const std::uint64_t key = keyOf(tenant, entry);
        RSEL_ASSERT(shard.parked.count(key) == 0,
                    "tenant admitted a second region at a parked "
                    "entrance");
        if (shard.quarantineDepth != 0) {
            // Quarantined shard: the logical cache has already
            // committed to the region, so the mirror must record
            // the admission — but it is parked out of the live map
            // until the lift.
            parked = true;
            shard.parked.emplace(key, bytes);
        } else {
            const bool inserted =
                shard.entries.emplace(key, bytes).second;
            RSEL_ASSERT(inserted,
                        "tenant admitted a second region at a live "
                        "entrance");
        }
    }
    if (parked)
        quarantinedAdmissions_.fetch_add(1,
                                         std::memory_order_relaxed);
    acct.liveEntries.fetch_add(1, std::memory_order_relaxed);
    liveEntries_.fetch_add(1, std::memory_order_relaxed);
    acct.admissions.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t tenantLive =
        acct.liveBytes.fetch_add(bytes, std::memory_order_relaxed) +
        bytes;
    raiseHighWater(acct.highWaterBytes, tenantLive);
    admissions_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t globalLive =
        liveBytes_.fetch_add(bytes, std::memory_order_relaxed) +
        bytes;
    raiseHighWater(highWaterBytes_, globalLive);
}

void
ShardedCodeCache::release(TenantId tenant, Addr entry,
                          std::uint64_t bytes, ReleaseReason reason)
{
    Account &acct = account(tenant);
    Shard &shard = shards_[shardOf(entry)];
    {
        MutexLock lock(shard.mu, contention_);
        const std::uint64_t key = keyOf(tenant, entry);
        auto it = shard.entries.find(key);
        if (it == shard.entries.end()) {
            // An entry admitted during a quarantine window can be
            // dropped by its logical cache before the lift.
            it = shard.parked.find(key);
            RSEL_ASSERT(it != shard.parked.end(),
                        "releasing an entry the arena never "
                        "admitted");
            RSEL_ASSERT(it->second == bytes,
                        "release byte figure disagrees with "
                        "admission");
            shard.parked.erase(it);
        } else {
            RSEL_ASSERT(it->second == bytes,
                        "release byte figure disagrees with "
                        "admission");
            shard.entries.erase(it);
        }
    }
    acct.liveEntries.fetch_sub(1, std::memory_order_relaxed);
    liveEntries_.fetch_sub(1, std::memory_order_relaxed);
    switch (reason) {
      case ReleaseReason::Eviction:
        acct.evictionReleases.fetch_add(1,
                                        std::memory_order_relaxed);
        break;
      case ReleaseReason::Invalidation:
        acct.invalidationReleases.fetch_add(
            1, std::memory_order_relaxed);
        break;
      case ReleaseReason::Flush:
        acct.flushReleases.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    acct.liveBytes.fetch_sub(bytes, std::memory_order_relaxed);
    releases_.fetch_add(1, std::memory_order_relaxed);
    liveBytes_.fetch_sub(bytes, std::memory_order_relaxed);
}

std::uint64_t
ShardedCodeCache::releaseAll(TenantId tenant)
{
    Account &acct = account(tenant);
    // Deactivate first: a racing admission from a buggy concurrent
    // use of the same session would be rejected rather than leak.
    acct.active.store(false, std::memory_order_release);
    std::uint64_t released = 0;
    std::uint64_t count = 0;
    for (Shard &shard : shards_) {
        MutexLock lock(shard.mu, contention_);
        // Sweep the live map and the quarantine pen alike: a
        // torn-down tenant leaves no residue anywhere. Only the
        // tenant's own key range is visited.
        for (auto *map : {&shard.entries, &shard.parked}) {
            auto it = map->lower_bound(keyOf(tenant, 0));
            while (it != map->end() && tenantOf(it->first) == tenant) {
                released += it->second;
                ++count;
                it = map->erase(it);
            }
        }
    }
    acct.flushReleases.fetch_add(count, std::memory_order_relaxed);
    acct.liveBytes.fetch_sub(released, std::memory_order_relaxed);
    acct.liveEntries.fetch_sub(count, std::memory_order_relaxed);
    releases_.fetch_add(count, std::memory_order_relaxed);
    liveBytes_.fetch_sub(released, std::memory_order_relaxed);
    liveEntries_.fetch_sub(count, std::memory_order_relaxed);
    return released;
}

void
ShardedCodeCache::unregisterTenant(TenantId tenant)
{
    Account &acct = account(tenant);
    // Relaxed is enough (gauge role): the zero being asserted was
    // produced either on this thread (teardown calls releaseAll
    // first) or before the teardown task was handed to this worker,
    // and the pool's queue transfer is the happens-before edge.
    RSEL_ASSERT(acct.liveBytes.load(std::memory_order_relaxed) == 0,
                "unregistering a tenant with live physical bytes");
    acct.active.store(false, std::memory_order_release);
}

void
ShardedCodeCache::quarantineShard(std::size_t shard)
{
    RSEL_ASSERT(shard < shards_.size(),
                "quarantine of a shard the arena does not have");
    Shard &s = shards_[shard];
    {
        MutexLock lock(s.mu, contention_);
        ++s.quarantineDepth;
    }
    quarantines_.fetch_add(1, std::memory_order_relaxed);
}

void
ShardedCodeCache::liftShardQuarantine(std::size_t shard)
{
    RSEL_ASSERT(shard < shards_.size(),
                "lift of a shard the arena does not have");
    Shard &s = shards_[shard];
    MutexLock lock(s.mu, contention_);
    RSEL_ASSERT(s.quarantineDepth != 0,
                "lifting a shard that is not quarantined");
    if (--s.quarantineDepth != 0)
        return;
    // Last lift: the pen's survivors rejoin the live map. merge()
    // leaves a colliding key behind in the pen.
    s.entries.merge(s.parked);
    RSEL_ASSERT(s.parked.empty(),
                "parked entry collides with a live entry at "
                "quarantine lift");
}

TenantCacheStats
ShardedCodeCache::tenantStats(TenantId tenant) const
{
    const Account &acct = account(tenant);
    TenantCacheStats out;
    out.liveBytes = acct.liveBytes.load(std::memory_order_relaxed);
    out.highWaterBytes =
        acct.highWaterBytes.load(std::memory_order_relaxed);
    out.admissions =
        acct.admissions.load(std::memory_order_relaxed);
    out.evictionReleases =
        acct.evictionReleases.load(std::memory_order_relaxed);
    out.invalidationReleases =
        acct.invalidationReleases.load(std::memory_order_relaxed);
    out.flushReleases =
        acct.flushReleases.load(std::memory_order_relaxed);
    out.liveEntries =
        acct.liveEntries.load(std::memory_order_relaxed);
    return out;
}

ArenaStats
ShardedCodeCache::stats() const
{
    ArenaStats out;
    out.liveBytes = liveBytes_.load(std::memory_order_relaxed);
    out.highWaterBytes =
        highWaterBytes_.load(std::memory_order_relaxed);
    out.admissions = admissions_.load(std::memory_order_relaxed);
    out.releases = releases_.load(std::memory_order_relaxed);
    out.shardContention =
        contention_.load(std::memory_order_relaxed);
    out.liveEntries = liveEntries_.load(std::memory_order_relaxed);
    out.quarantines = quarantines_.load(std::memory_order_relaxed);
    out.quarantinedAdmissions =
        quarantinedAdmissions_.load(std::memory_order_relaxed);
    out.shardCount = shards_.size();
    const std::size_t count =
        accountCount_.load(std::memory_order_acquire);
    out.tenantsRegistered = count;
    // Route the element reads through account(): it owns the
    // publication-protocol escape hatch for lock-free access to
    // accounts_ (the acquire above covers construction of [0..n)).
    for (std::size_t i = 0; i < count; ++i)
        if (account(static_cast<TenantId>(i))
                .active.load(std::memory_order_relaxed))
            ++out.tenantsActive;
    return out;
}

std::size_t
ShardedCodeCache::liveEntryCount(TenantId tenant) const
{
    std::size_t count = 0;
    for (const Shard &shard : shards_) {
        MutexLock lock(shard.mu, contention_);
        for (const auto *map : {&shard.entries, &shard.parked})
            for (auto it = map->lower_bound(keyOf(tenant, 0));
                 it != map->end() && tenantOf(it->first) == tenant; ++it)
                ++count;
    }
    return count;
}

} // namespace service
} // namespace rsel
