/**
 * @file
 * Online metric collection for a simulated dynamic optimizer.
 *
 * The DynOptSystem feeds the collector one call per executed block
 * plus region lifecycle events; finalize() folds in the static cache
 * contents and selector-side counters and runs the exit-domination
 * analysis (paper Section 4.1) over the dynamic edge profile.
 *
 * The edge profile and the region links are flat key sets (one
 * open-addressed array each, see FlatKeySet), so recording a new
 * edge allocates nothing until the set doubles. Two direct-mapped
 * filters sit in front of them and skip the probe for a repeat.
 * They are caches, so their size never changes a result, only how
 * often the slow path runs; they are sized by the program's block
 * count (filterSlots) so a 10-block service tenant does not carry
 * the 64 KiB a 600-block suite program needs.
 *
 * Threading: a collector belongs to exactly one DynOptSystem and is
 * confined to the thread driving it — it holds no static or global
 * state, so any number of collectors may run concurrently. Cross-run
 * aggregation happens only on finished SimResults (see
 * SimResult::mergeFrom), never on live collectors.
 */

#ifndef RSEL_METRICS_METRICS_COLLECTOR_HPP
#define RSEL_METRICS_METRICS_COLLECTOR_HPP

#include <cstdint>
#include <vector>

#include "metrics/sim_result.hpp"
#include "selection/selector.hpp"
#include "support/flat_key_set.hpp"

namespace rsel {

class Program;
class CodeCache;

/** Accumulates run metrics; produces a SimResult. */
class MetricsCollector
{
  public:
    /**
     * @param blockCount blocks in the program being run; sizes the
     *                   two recently-seen filters (see filterSlots).
     */
    explicit MetricsCollector(std::size_t blockCount);

    /**
     * Slots per recently-seen filter for a program of `blockCount`
     * blocks: the next power of two >= 8 per block, clamped to
     * [minFilterSlots, maxFilterSlots]. Distinct edges and region
     * links both grow with the block count, so a tenant-sized
     * program gets a tenant-sized filter while the paper's suite
     * programs keep (up to) the full 4096.
     */
    static std::size_t filterSlots(std::size_t blockCount);

    /**
     * Record an executed control-flow edge (any kind). The profile
     * is a *set* of edges, so recording is idempotent; a
     * direct-mapped filter of recently recorded edges (filterSlots
     * entries) skips the set probe for the overwhelmingly common
     * repeated edge without changing the recorded profile.
     */
    void
    onEdge(BlockId src, BlockId dst)
    {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(src) << 32) | dst;
        std::uint64_t &slot = edgeSeen_[filterSlot(key)];
        if (slot == key + 1)
            return; // already recorded (insert would be a no-op)
        slot = key + 1; // +1 keeps key 0 distinct from "empty"
        recordEdge(key);
    }

    // The per-block and region-lifecycle notifications below run
    // once per dynamic event on the simulation's hottest path, so
    // they are defined inline: DynOptSystem's batch loop folds them
    // into plain counter updates instead of cross-library calls.

    /** A block executed in the interpreter. */
    void
    onInterpretedBlock(const BasicBlock &block)
    {
        interpInsts_ += block.instCount();
    }

    /** A block executed from the code cache. */
    void
    onCachedBlock(const BasicBlock &block, RegionId region)
    {
        cachedInsts_ += block.instCount();
        perRegion(region).insts += block.instCount();
    }

    /** A region execution began (entry or cycle restart). */
    void
    onRegionEntered(RegionId region)
    {
        ++entries_;
        ++perRegion(region).entries;
    }

    /** A region execution ended by a branch to its top. */
    void
    onCycleEnd(RegionId region)
    {
        ++cycleTerminations_;
        ++perRegion(region).cycleEnds;
    }

    /** A direct jump between two distinct cached regions. */
    void
    onRegionTransition(RegionId from, RegionId to)
    {
        ++transitions_;
        const std::uint64_t key =
            (static_cast<std::uint64_t>(from) << 32) | to;
        // Same trick as onEdge: links_ is a set, so a repeated
        // pair's insert is a no-op — a direct-mapped filter of
        // recent pairs skips the probe for the common case of
        // control bouncing between the same two regions.
        std::uint64_t &slot = linkSeen_[filterSlot(key)];
        if (slot == key + 1)
            return;
        slot = key + 1;
        links_.insert(key);
    }

    /** One dynamic block event was consumed. */
    void onEvent() { ++events_; }

    /** `n` dynamic block events were consumed (batch bulk form). */
    void addEvents(std::uint64_t n) { events_ += n; }

    /**
     * Bulk form of a run of cached trace execution: `insts` guest
     * instructions executed inside `region`, with `restarts`
     * cycle-restarts (each ends one region execution by cycle and
     * immediately begins the next). Equivalent to the matching
     * sequence of onCachedBlock/onCycleEnd/onRegionEntered
     * calls — the batch dispatch path accumulates locally and folds
     * the run in with one call.
     */
    void
    addCachedRun(RegionId region, std::uint64_t insts,
                 std::uint64_t restarts)
    {
        cachedInsts_ += insts;
        entries_ += restarts;
        cycleTerminations_ += restarts;
        PerRegion &pr = perRegion(region);
        pr.insts += insts;
        pr.entries += restarts;
        pr.cycleEnds += restarts;
    }

    /** Testing probe: true if onEdge(src, dst) was ever recorded. */
    bool sawEdge(BlockId src, BlockId dst) const;

    /** Testing probe: distinct edges recorded so far. */
    std::size_t edgeCount() const { return edges_.size(); }

    /** Testing probe: distinct region links recorded so far. */
    std::size_t linkCount() const { return links_.size(); }

    /** Testing probe: instructions interpreted so far. */
    std::uint64_t interpretedInsts() const { return interpInsts_; }

    /**
     * Produce the final result.
     * @param prog     the simulated program.
     * @param cache    the final code cache.
     * @param selector the selector (for profiling-overhead metrics).
     */
    SimResult finalize(const Program &prog, const CodeCache &cache,
                       const RegionSelector &selector) const;

  private:
    struct PerRegion
    {
        std::uint64_t insts = 0;
        std::uint64_t entries = 0;
        std::uint64_t cycleEnds = 0;
    };

    PerRegion &
    perRegion(RegionId region)
    {
        if (region >= regions_.size())
            regions_.resize(region + 1);
        return regions_[region];
    }

    /** Slow path of onEdge(), kept out of the inlined hot path. */
    void recordEdge(std::uint64_t key);

    /**
     * Smallest filter. Measured over serve-4096's tenants: at 256
     * slots 0.08% of events miss the edge filter, against 0.045%
     * (nearly all first sightings) at 4096; at 128 and 64 slots
     * 0.33% and 0.72% do.
     */
    static constexpr std::size_t minFilterSlots = 256;
    /** Largest filter (the fixed size every run once had). */
    static constexpr std::size_t maxFilterSlots = 4096;

    /** Filter slot of a key (Fibonacci hash, top bits). */
    std::size_t
    filterSlot(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ull) >> filterShift_);
    }

    /** Direct-mapped recently-recorded-edge filter: key+1 or 0. */
    std::vector<std::uint64_t> edgeSeen_;

    /** Direct-mapped recently-seen region-link filter: key+1 or 0. */
    std::vector<std::uint64_t> linkSeen_;

    /** 64 - log2(filter slots). */
    unsigned filterShift_;

    std::uint64_t events_ = 0;
    std::uint64_t interpInsts_ = 0;
    std::uint64_t cachedInsts_ = 0;
    std::uint64_t transitions_ = 0;
    std::uint64_t entries_ = 0;
    std::uint64_t cycleTerminations_ = 0;
    std::vector<PerRegion> regions_;
    /** Executed edges, keyed (src << 32 | dst). */
    FlatKeySet edges_;
    /** Distinct (from, to) region pairs that transitioned — the
     *  links a real cache maintains (paper footnote 9), keyed
     *  (from << 32 | to). */
    FlatKeySet links_;
};

} // namespace rsel

#endif // RSEL_METRICS_METRICS_COLLECTOR_HPP
