/**
 * @file
 * The software code cache: regions indexed by entry address.
 *
 * Unbounded by default, per the paper's methodology (Section 2.3).
 * A capacity limit with an eviction policy can be configured to
 * study the effect the paper defers to future work: bounded caches
 * must evict and later *regenerate* hot regions, and algorithms
 * that cache less code regenerate less. Keeps the running totals
 * the metrics layer needs: instructions and bytes copied (code
 * expansion), exit stubs created, and eviction/regeneration counts.
 */

#ifndef RSEL_RUNTIME_CODE_CACHE_HPP
#define RSEL_RUNTIME_CODE_CACHE_HPP

#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "runtime/region.hpp"

namespace rsel {

/** Bytes charged per exit stub in the estimated size of a region
 *  (paper Section 4.3.4; DynamoRIO's conservative figure). */
constexpr std::uint64_t kExitStubBytes = 10;

/** Capacity and eviction configuration of a CodeCache. */
struct CacheLimits
{
    /** How to make room when the capacity is exceeded. */
    enum class Policy : std::uint8_t {
        /**
         * Dynamo's preemptive flush: empty the whole cache. Cheap
         * to implement in a real system (no unlinking bookkeeping)
         * and surprisingly effective at phase changes.
         */
        FullFlush,
        /** Evict the oldest live region until the insert fits. */
        Fifo,
    };

    /** Capacity in estimated bytes; 0 = unbounded (the default). */
    std::uint64_t capacityBytes = 0;
    /** Eviction policy for bounded caches. */
    Policy policy = Policy::FullFlush;
};

/** Largest KiB count whose byte size fits a 64-bit capacity. */
constexpr std::uint64_t maxCacheKb =
    std::numeric_limits<std::uint64_t>::max() / 1024;

/**
 * `kb` KiB as a byte capacity: the one conversion every KiB-sized
 * cache setting (CLI flags, service configs, spec fields) goes
 * through, so a huge value is an error instead of a wrapped bound.
 * @param name the setting `kb` came from, for the error.
 * @throws FatalError naming it when kb exceeds maxCacheKb.
 */
std::uint64_t cacheBytesFromKb(std::uint64_t kb, const std::string &name);

/** A code cache of single-entry regions, optionally bounded. */
class CodeCache
{
  public:
    /** Why a live region left the lookup structures. */
    enum class DropReason : std::uint8_t {
        Evicted,     ///< capacity-pressure eviction (FIFO policy)
        Invalidated, ///< invalidate()/invalidateBlock()
        Flushed,     ///< part of a flushAll() (policy or explicit)
    };

    /**
     * Observer of structural cache mutations. The multi-tenant
     * service layers a shared physical arena under many logical
     * caches by mirroring these notifications; they fire only on
     * the rare structural events (insert / evict / invalidate /
     * flush), never on the per-event lookup path, so an attached
     * listener costs the hot loop nothing.
     *
     * Re-entrancy contract: a callback runs *inside* a cache
     * mutation, with the cache's internal structures mid-update.
     * It must not call back into any mutating CodeCache method on
     * the same cache (insert / invalidate / invalidateBlock /
     * flushAll) — the cache asserts against it at runtime. It MAY
     * call into other locked subsystems; that is exactly what the
     * service's mirror does, which is why the arena methods it
     * reaches (`ShardedCodeCache::admit`/`release`) are annotated
     * `RSEL_EXCLUDES(mu_)`: a listener fires with the tenant's
     * conductor lock held, so anything it calls must be lower
     * in the lock hierarchy than the locks already held (see
     * docs/ANALYSIS.md).
     */
    class Listener
    {
      public:
        virtual ~Listener() = default;

        /**
         * A region became live. `bytes` is its estimated footprint
         * under the configured byte model (code bytes + stub
         * charge) — the same figure a later onRegionDropped for the
         * region reports, so listener-side accounting closes.
         */
        virtual void onRegionInserted(const Region &region,
                                      std::uint64_t bytes) = 0;

        /** A live region was dropped from the lookup structures. */
        virtual void onRegionDropped(const Region &region,
                                     std::uint64_t bytes,
                                     DropReason reason) = 0;
    };

    /**
     * Attach (or detach, with nullptr) the structural-mutation
     * observer. The listener must outlive the cache or be detached
     * first. At most one listener is supported.
     */
    void setListener(Listener *listener) { listener_ = listener; }

    /**
     * @param limits     capacity/eviction config; default unbounded.
     * @param blockCount blocks in the program whose regions the
     *        cache holds: sizes the per-block table at the first
     *        insert (0 = grow it as entries appear).
     */
    explicit CodeCache(CacheLimits limits = {},
                       std::size_t blockCount = 0);
    /**
     * Insert a region built by a selector. The region id must have
     * been obtained from nextRegionId(). No live region may already
     * exist at the same entry address. In a bounded cache the insert
     * first makes room per the eviction policy; the new region is
     * always live afterwards, even if it alone exceeds the capacity.
     * All regions of a cache belong to one program.
     * @return the region's id.
     */
    RegionId insert(Region region);

    /** Id the next inserted region will get. */
    RegionId nextRegionId() const
    {
        return static_cast<RegionId>(regions_.size());
    }

    /**
     * The live region whose entry block is exactly `block`, or
     * nullptr. This is the "HASH-LOOKUP(code cache, tgt)" of the
     * paper's pseudocode — a region's entry address is its entry
     * block's start address — served from a dense block-id-indexed
     * table of region pointers, so the hot dispatch loop pays one
     * bounds check and one load. Evicted regions do not hit.
     */
    const Region *
    lookupEntry(BlockId block) const
    {
        return block < entries_.size() ? entries_[block].live : nullptr;
    }

    /**
     * A region by id — including evicted ones, whose objects stay
     * alive so in-flight execution and post-run statistics keep
     * working. Check isLive() to distinguish.
     */
    const Region &region(RegionId id) const { return regions_.at(id); }

    /** True if the region has not been evicted. */
    bool isLive(RegionId id) const
    {
        return id < live_.size() && live_[id] != 0;
    }

    /**
     * All regions, in selection order. Stored in a deque so that
     * references and pointers to regions stay valid across inserts
     * (selectors and the driver hold them across cache growth).
     */
    const std::deque<Region> &regions() const { return regions_; }

    /** Number of regions selected. */
    std::size_t regionCount() const { return regions_.size(); }

    /** Total guest instructions copied into the cache (expansion). */
    std::uint64_t totalInstsCopied() const { return totalInsts_; }

    /** Total guest code bytes copied into the cache. */
    std::uint64_t totalBytesCopied() const { return totalBytes_; }

    /** Total exit stubs across all regions. */
    std::uint64_t totalExitStubs() const { return totalStubs_; }

    /**
     * Estimated cache size in bytes using the paper's model
     * (Section 4.3.4): copied instruction bytes plus kExitStubBytes
     * per exit stub. For a bounded cache this still reports the
     * cumulative copied footprint (the optimizer's work); see
     * liveBytes() for occupancy.
     */
    std::uint64_t estimatedSizeBytes() const
    {
        return totalBytes_ + totalStubs_ * kExitStubBytes;
    }

    /** Current occupancy in estimated bytes (live regions only). */
    std::uint64_t liveBytes() const { return liveBytes_; }

    /** Number of live regions. */
    std::size_t liveRegionCount() const { return liveCount_; }

    /** Member blocks over all live regions. */
    std::size_t liveBlockCount() const { return liveBlocks_; }

    /**
     * Invalidate one live region (self-modifying-code model): the
     * region stops hitting lookupEntry() and its entry may be
     * re-cached.
     * The Region object stays alive for in-flight execution, exactly
     * as with eviction. A non-live id (already evicted or already
     * invalidated) is a no-op so eviction races with invalidation
     * resolve safely. @return true if a live region was dropped.
     */
    bool invalidate(RegionId id);

    /**
     * Invalidate every live region containing `block` — the unit of
     * a self-modifying-code event: a store into a block's bytes
     * makes every translation that copied them stale. Victims are
     * processed in ascending region-id order (determinism).
     * @return the number of live regions dropped.
     */
    std::size_t invalidateBlock(BlockId block);

    /**
     * Evict every live region (a capacity-pressure flush storm, or
     * an explicit Dynamo-style preemptive flush). Counts one flush
     * plus one eviction per region, like policy-driven full flushes.
     */
    void flushAll();

    /** Regions evicted so far (every region of a flush counts). */
    std::uint64_t evictions() const { return evictions_; }

    /** Full-cache flushes performed. */
    std::uint64_t flushes() const { return flushes_; }

    /** Regions dropped by invalidate()/invalidateBlock(). */
    std::uint64_t invalidations() const { return invalidations_; }

    /**
     * Re-translations: inserts at an entry address whose previous
     * region was *invalidated* (as opposed to evicted) — the work a
     * real system pays to re-translate self-modified code. Disjoint
     * accounting from regenerations(): an insert can count as both
     * (entry seen before → regeneration; last drop was an
     * invalidation → retranslation).
     */
    std::uint64_t retranslations() const { return retranslations_; }

    /**
     * Regenerations: inserts at an entry address that was cached
     * before and evicted — the re-translation work a bounded cache
     * pays (the effect the paper says its algorithms reduce).
     */
    std::uint64_t regenerations() const { return regenerations_; }

    /** The configured limits. */
    const CacheLimits &limits() const { return limits_; }

    /**
     * Change the capacity bound mid-run (the service layer's
     * memory-pressure squeeze). If the cache is now over the new
     * bound, room is made immediately under the configured policy —
     * FullFlush storms everything, Fifo evicts oldest-first until it
     * fits. Like makeRoom(), the evictions are policy-driven and are
     * NOT reported to the selector as disruptions. 0 = unbounded.
     */
    void setCapacity(std::uint64_t capacityBytes);

  private:
    /** Estimated footprint of one region under the byte model. */
    std::uint64_t estimateOf(const Region &r) const
    {
        return r.byteSize() + r.exitStubCount() * kExitStubBytes;
    }

    /** Evict one region / flush per policy to make room. */
    void makeRoom(std::uint64_t incomingBytes);

    /** Drop a live region from the lookup structures. @pre live. */
    void removeLive(RegionId id, DropReason reason);

    /** Evict a specific live region. */
    void evict(RegionId id);

    CacheLimits limits_;
    Listener *listener_ = nullptr;
    /** True while flushAll() drains, so per-region evictions inside
     *  a flush notify the listener as Flushed, not Evicted. */
    bool flushing_ = false;
    /** True while a listener callback is on the stack; the mutating
     *  entry points assert it is clear, turning a re-entrant
     *  listener (contract violation above) into an immediate panic
     *  instead of silent structure corruption. */
    bool notifying_ = false;
    /** What the cache knows about one block as a region entry. */
    struct EntryState
    {
        /** The live region entering here (an element of regions_,
         *  whose addresses are stable), or nullptr. */
        const Region *live = nullptr;
        /** A region entered here at some point. */
        bool everCached = false;
        /** The most recent drop of a region entering here was an
         *  invalidation. */
        bool invalidated = false;
    };

    /** Ensure entries_ covers `block`. */
    EntryState &entryState(BlockId block);

    std::deque<Region> regions_;
    /** Per entry-block id (the dense lookupEntry probe). Sized to
     *  blockCount_ at the first insert, grown past it on demand. */
    std::vector<EntryState> entries_;
    std::size_t blockCount_ = 0;
    /** Per region id: 1 while live. */
    std::vector<std::uint8_t> live_;
    std::size_t liveCount_ = 0;
    std::size_t liveBlocks_ = 0;
    /**
     * No region below this id is live. Ids are handed out in
     * insertion order, so the live regions from here up, in id
     * order, are the FIFO eviction order.
     */
    RegionId oldest_ = 0;
    std::uint64_t totalInsts_ = 0;
    std::uint64_t totalBytes_ = 0;
    std::uint64_t totalStubs_ = 0;
    std::uint64_t liveBytes_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t flushes_ = 0;
    std::uint64_t regenerations_ = 0;
    std::uint64_t invalidations_ = 0;
    std::uint64_t retranslations_ = 0;
};

} // namespace rsel

#endif // RSEL_RUNTIME_CODE_CACHE_HPP
