#include "runtime/code_cache.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace rsel {

std::uint64_t
cacheBytesFromKb(std::uint64_t kb, const std::string &name)
{
    if (kb > maxCacheKb)
        fatal(name + " must be at most " + std::to_string(maxCacheKb) +
              " KiB, got " + std::to_string(kb));
    return kb * 1024;
}

CodeCache::CodeCache(CacheLimits limits, std::size_t blockCount)
    : limits_(limits), blockCount_(blockCount)
{}

CodeCache::EntryState &
CodeCache::entryState(BlockId block)
{
    if (block >= entries_.size())
        entries_.resize(std::max<std::size_t>(blockCount_, block + 1));
    return entries_[block];
}

void
CodeCache::removeLive(RegionId id, DropReason reason)
{
    RSEL_ASSERT(isLive(id), "removing a non-live region");
    const Region &r = regions_[id];
    const std::uint64_t bytes = estimateOf(r);
    live_[id] = 0;
    --liveCount_;
    liveBlocks_ -= r.blocks().size();
    entries_[r.entryBlock().id()].live = nullptr;
    liveBytes_ -= bytes;
    if (listener_ != nullptr) {
        // The re-entrancy sentinel brackets the callback; the
        // mutating entry points assert it is clear.
        notifying_ = true;
        listener_->onRegionDropped(r, bytes, reason);
        notifying_ = false;
    }
}

void
CodeCache::evict(RegionId id)
{
    removeLive(id, flushing_ ? DropReason::Flushed
                             : DropReason::Evicted);
    ++evictions_;
    // The entry's stale translation is gone with it: a later
    // re-insert is a plain regeneration, not a re-translation.
    entries_[regions_[id].entryBlock().id()].invalidated = false;
}

bool
CodeCache::invalidate(RegionId id)
{
    RSEL_ASSERT(!notifying_,
                "listener re-entered invalidate() mid-mutation");
    if (!isLive(id))
        return false; // already evicted or invalidated: no-op
    removeLive(id, DropReason::Invalidated);
    ++invalidations_;
    entries_[regions_[id].entryBlock().id()].invalidated = true;
    return true;
}

std::size_t
CodeCache::invalidateBlock(BlockId block)
{
    RSEL_ASSERT(!notifying_,
                "listener re-entered invalidateBlock() mid-mutation");
    // Ascending region id, the determinism order.
    std::size_t dropped = 0;
    for (RegionId id = oldest_; id < regions_.size(); ++id)
        if (live_[id] != 0 && regions_[id].containsBlock(block)) {
            invalidate(id);
            ++dropped;
        }
    return dropped;
}

void
CodeCache::flushAll()
{
    RSEL_ASSERT(!notifying_,
                "listener re-entered flushAll() mid-mutation");
    if (liveCount_ == 0)
        return;
    ++flushes_;
    flushing_ = true;
    for (; oldest_ < regions_.size(); ++oldest_)
        if (live_[oldest_] != 0)
            evict(oldest_);
    flushing_ = false;
}

void
CodeCache::setCapacity(std::uint64_t capacityBytes)
{
    RSEL_ASSERT(!notifying_,
                "listener re-entered setCapacity() mid-mutation");
    limits_.capacityBytes = capacityBytes;
    if (capacityBytes == 0 || liveBytes_ <= capacityBytes)
        return;
    // Over the new bound: make room now, exactly as an insert would
    // (policy storm or oldest-first evictions, selector-silent).
    makeRoom(0);
}

void
CodeCache::makeRoom(std::uint64_t incomingBytes)
{
    if (limits_.capacityBytes == 0)
        return; // unbounded
    if (liveBytes_ + incomingBytes <= limits_.capacityBytes)
        return;

    if (limits_.policy == CacheLimits::Policy::FullFlush) {
        // Dynamo's preemptive flush: everything goes at once.
        flushAll();
        return;
    }

    // FIFO: evict oldest live regions until the insert fits (or the
    // cache is empty — a region larger than the capacity is allowed
    // to live alone).
    while (liveBytes_ + incomingBytes > limits_.capacityBytes &&
           oldest_ < regions_.size()) {
        const RegionId victim = oldest_++;
        if (live_[victim] != 0)
            evict(victim);
    }
}

RegionId
CodeCache::insert(Region region)
{
    RSEL_ASSERT(!notifying_,
                "listener re-entered insert() mid-mutation");
    RSEL_ASSERT(region.id() == regions_.size(),
                "region id must come from nextRegionId()");
    RSEL_ASSERT(lookupEntry(region.entryBlock().id()) == nullptr,
                "a live region already exists at this entry address");

    makeRoom(estimateOf(region));

    const RegionId id = region.id();
    totalInsts_ += region.instCount();
    totalBytes_ += region.byteSize();
    totalStubs_ += region.exitStubCount();
    liveBytes_ += estimateOf(region);
    EntryState &entry = entryState(region.entryBlock().id());
    if (entry.everCached)
        ++regenerations_; // this entry was cached and evicted before
    entry.everCached = true;
    if (entry.invalidated)
        ++retranslations_; // re-translating self-modified code
    entry.invalidated = false;
    live_.push_back(1);
    ++liveCount_;
    liveBlocks_ += region.blocks().size();
    entry.live = &regions_.emplace_back(std::move(region));
    if (listener_ != nullptr) {
        notifying_ = true;
        listener_->onRegionInserted(regions_.back(),
                                    estimateOf(regions_.back()));
        notifying_ = false;
    }
    return id;
}

} // namespace rsel
