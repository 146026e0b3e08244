#include "service/sharded_cache.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace rsel {
namespace service {

ShardedCodeCache::ShardedCodeCache(ArenaConfig cfg) : cfg_(cfg)
{
    cfg_.shardCount = std::max<std::size_t>(cfg.shardCount, 1);
    pens_.resize(cfg_.shardCount);
}

TenantId
ShardedCodeCache::registerTenant()
{
    MutexLock lock(mu_, contention_);
    const std::size_t id = accounts_.size();
    RSEL_ASSERT(id < kMaxTenants, "tenant id space exhausted");
    accounts_.emplace_back();
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
    return limits;
}

ShardedCodeCache::Account &
ShardedCodeCache::account(TenantId tenant)
{
    RSEL_ASSERT(tenant < accounts_.size(), "unregistered tenant id");
    return accounts_[tenant];
}

void
ShardedCodeCache::admit(TenantId tenant, Addr entry,
                        std::uint64_t bytes)
{
    RSEL_ASSERT(entry < (1ULL << 40),
                "entrance address exceeds the tenant-key range");
    const std::uint64_t key = keyOf(tenant, entry);
    MutexLock lock(mu_, contention_);
    Account &acct = account(tenant);
    RSEL_ASSERT(acct.active, "admission from a torn-down tenant");
    Pen &pen = pens_[shardOf(entry)];
    RSEL_ASSERT(pen.parked.count(key) == 0,
                "tenant admitted a second region at a parked "
                "entrance");
    if (pen.depth != 0) {
        // Quarantined shard: the logical cache has already
        // committed to the region, so the mirror must record the
        // admission — but it is parked out of the live map until
        // the lift.
        pen.parked.emplace(key, bytes);
        ++totals_.quarantinedAdmissions;
    } else {
        const bool inserted = entries_.emplace(key, bytes).second;
        RSEL_ASSERT(inserted,
                    "tenant admitted a second region at a live "
                    "entrance");
    }
    TenantCacheStats &mine = acct.stats;
    ++mine.admissions;
    ++mine.liveEntries;
    mine.liveBytes += bytes;
    mine.highWaterBytes = std::max(mine.highWaterBytes, mine.liveBytes);
    ++totals_.admissions;
    ++totals_.liveEntries;
    totals_.liveBytes += bytes;
    totals_.highWaterBytes =
        std::max(totals_.highWaterBytes, totals_.liveBytes);
}

void
ShardedCodeCache::release(TenantId tenant, Addr entry,
                          std::uint64_t bytes,
                          CodeCache::DropReason reason)
{
    const std::uint64_t key = keyOf(tenant, entry);
    MutexLock lock(mu_, contention_);
    TenantCacheStats &mine = account(tenant).stats;
    EntryMap *map = &entries_;
    auto it = entries_.find(key);
    if (it == entries_.end()) {
        // An entry admitted during a quarantine window can be
        // dropped by its logical cache before the lift.
        map = &pens_[shardOf(entry)].parked;
        it = map->find(key);
        RSEL_ASSERT(it != map->end(),
                    "releasing an entry the arena never admitted");
    }
    RSEL_ASSERT(it->second == bytes,
                "release byte figure disagrees with admission");
    map->erase(it);
    switch (reason) {
      case CodeCache::DropReason::Evicted:
        ++mine.evictionReleases;
        break;
      case CodeCache::DropReason::Invalidated:
        ++mine.invalidationReleases;
        break;
      case CodeCache::DropReason::Flushed:
        ++mine.flushReleases;
        break;
    }
    --mine.liveEntries;
    mine.liveBytes -= bytes;
    ++totals_.releases;
    --totals_.liveEntries;
    totals_.liveBytes -= bytes;
}

std::uint64_t
ShardedCodeCache::releaseAll(TenantId tenant)
{
    MutexLock lock(mu_, contention_);
    Account &acct = account(tenant);
    acct.active = false;
    std::uint64_t released = 0;
    std::uint64_t count = 0;
    // Sweep the live map and every quarantine pen alike: a
    // torn-down tenant leaves no residue anywhere. Only the
    // tenant's own key range is visited.
    auto sweep = [&](EntryMap &map) {
        auto it = map.lower_bound(keyOf(tenant, 0));
        while (it != map.end() && tenantOf(it->first) == tenant) {
            released += it->second;
            ++count;
            it = map.erase(it);
        }
    };
    sweep(entries_);
    for (Pen &pen : pens_)
        sweep(pen.parked);
    acct.stats.flushReleases += count;
    acct.stats.liveBytes -= released;
    acct.stats.liveEntries -= count;
    totals_.releases += count;
    totals_.liveBytes -= released;
    totals_.liveEntries -= count;
    return released;
}

void
ShardedCodeCache::unregisterTenant(TenantId tenant)
{
    MutexLock lock(mu_, contention_);
    Account &acct = account(tenant);
    RSEL_ASSERT(acct.stats.liveBytes == 0,
                "unregistering a tenant with live physical bytes");
    acct.active = false;
}

void
ShardedCodeCache::quarantineShard(std::size_t shard)
{
    RSEL_ASSERT(shard < cfg_.shardCount,
                "quarantine of a shard the arena does not have");
    MutexLock lock(mu_, contention_);
    ++pens_[shard].depth;
    ++totals_.quarantines;
}

void
ShardedCodeCache::liftShardQuarantine(std::size_t shard)
{
    RSEL_ASSERT(shard < cfg_.shardCount,
                "lift of a shard the arena does not have");
    MutexLock lock(mu_, contention_);
    Pen &pen = pens_[shard];
    RSEL_ASSERT(pen.depth != 0,
                "lifting a shard that is not quarantined");
    if (--pen.depth != 0)
        return;
    // Last lift: the pen's survivors rejoin the live map. merge()
    // leaves a colliding key behind in the pen.
    entries_.merge(pen.parked);
    RSEL_ASSERT(pen.parked.empty(),
                "parked entry collides with a live entry at "
                "quarantine lift");
}

TenantCacheStats
ShardedCodeCache::tenantStats(TenantId tenant) const
{
    MutexLock lock(mu_, contention_);
    RSEL_ASSERT(tenant < accounts_.size(), "unregistered tenant id");
    return accounts_[tenant].stats;
}

ArenaStats
ShardedCodeCache::stats() const
{
    MutexLock lock(mu_, contention_);
    ArenaStats out = totals_;
    out.shardContention = contention_.load(std::memory_order_relaxed);
    out.shardCount = cfg_.shardCount;
    out.tenantsRegistered = accounts_.size();
    out.tenantsActive = static_cast<std::size_t>(
        std::count_if(accounts_.begin(), accounts_.end(),
                      [](const Account &a) { return a.active; }));
    return out;
}

std::size_t
ShardedCodeCache::liveEntryCount(TenantId tenant) const
{
    MutexLock lock(mu_, contention_);
    std::size_t count = 0;
    auto countRange = [&](const EntryMap &map) {
        for (auto it = map.lower_bound(keyOf(tenant, 0));
             it != map.end() && tenantOf(it->first) == tenant; ++it)
            ++count;
    };
    countRange(entries_);
    for (const Pen &pen : pens_)
        countRange(pen.parked);
    return count;
}

} // namespace service
} // namespace rsel
