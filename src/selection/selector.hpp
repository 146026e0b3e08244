/**
 * @file
 * The region-selector interface.
 *
 * The paper's simulation framework "abstracted all details of region
 * selection out", allowing algorithms to be swapped without modifying
 * the framework; RegionSelector is that abstraction. The DynOptSystem
 * notifies the selector of every interpreted block and of every entry
 * into the code cache; the selector answers with a completed region
 * when it has one.
 */

#ifndef RSEL_SELECTION_SELECTOR_HPP
#define RSEL_SELECTION_SELECTOR_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "isa/basic_block.hpp"
#include "runtime/region.hpp"

namespace rsel {

class Program;
class CodeCache;

/**
 * One interpreted-block notification. Delivered for every block the
 * interpreter executes (never for blocks executing from the cache).
 */
struct SelectorEvent
{
    /** The block being interpreted. */
    const BasicBlock *block = nullptr;
    /**
     * True if the block was entered by a taken control transfer —
     * including the jump through an exit stub when execution leaves
     * the code cache (see fromCacheExit).
     */
    bool viaTaken = false;
    /** Address of the transferring branch; valid iff viaTaken. */
    Addr branchAddr = invalidAddr;
    /** True if this entry came directly from a code-cache exit. */
    bool fromCacheExit = false;
};

/** A completed region, ready for the cache. */
struct RegionSpec
{
    /** Trace (linear path) or MultiPath (combined region). */
    Region::Kind kind = Region::Kind::Trace;
    /**
     * Member blocks. For a trace: recorded path order. For a
     * multi-path region: entry block first.
     */
    std::vector<const BasicBlock *> blocks;
};

/**
 * A code-cache disturbance the driver reports to the selector so
 * profiling state referring to dropped translations can be shed.
 */
enum class CacheDisruption : std::uint8_t {
    /**
     * One or more cached regions were invalidated (self-modifying
     * code). In-flight recordings and stored observations may
     * reference stale cache contents and should be dropped; hotness
     * counters stay (the blocks themselves are still hot).
     */
    Invalidation,
    /** The whole cache was flushed (capacity pressure). Same
     *  shedding contract as Invalidation. */
    Flush,
    /** Full profiling reset: counters, buffers and observations all
     *  restart cold (a fault-injection worst case). */
    Reset,
};

/**
 * A region-selection algorithm.
 *
 * Implementations observe the interpreted stream and decide when to
 * promote a region to the code cache. The contract with the driver:
 *
 *  - onInterpreted() fires once per interpreted block, before the
 *    block's instructions are counted, and only when the block's
 *    start address is not a cached region entry.
 *  - onCacheEnter() fires when control transfers from the
 *    interpreter into a cached region (used, e.g., by NET to stop a
 *    trace that reached the start of another trace).
 *  - Returning a RegionSpec hands the region to the driver, which
 *    inserts it into the cache; if the spec's entry equals the block
 *    of the current event, the driver jumps into the new region
 *    immediately (the "jump newT" of the paper's Figure 5).
 */
class RegionSelector
{
  public:
    virtual ~RegionSelector() = default;

    /** Observe an interpreted block; possibly complete a region. */
    virtual std::optional<RegionSpec>
    onInterpreted(const SelectorEvent &event) = 0;

    /** Observe a transfer from the interpreter into the cache. */
    virtual std::optional<RegionSpec>
    onCacheEnter(const BasicBlock &entry)
    {
        (void)entry;
        return std::nullopt;
    }

    /**
     * Observe a cache disruption (invalidation, flush or reset).
     * Default: keep all state — correct for selectors whose profile
     * describes the program rather than the cache. Only fired when
     * fault injection is armed; never on policy-driven eviction,
     * whose effects selectors already observe through lookupEntry().
     */
    virtual void onCacheDisruption(CacheDisruption kind)
    {
        (void)kind;
    }

    /**
     * High-water mark of simultaneously live profiling counters
     * (the paper's Figure 10 metric).
     */
    virtual std::size_t maxLiveCounters() const = 0;

    /**
     * Peak bytes of compactly stored observed traces (the paper's
     * Figure 18 metric); zero for non-combining selectors.
     */
    virtual std::uint64_t peakObservedTraceBytes() const { return 0; }

    /**
     * Total iterations of the mark-rejoining-paths dataflow that
     * marked at least one block, and the number that needed a second
     * or later sweep (instrumentation for the paper's "roughly 0.1%"
     * claim); zeros for non-combining selectors.
     */
    virtual std::uint64_t markSweepRegions() const { return 0; }
    virtual std::uint64_t markSweepMultiIterRegions() const { return 0; }

    /** Algorithm name for reports (e.g. "NET", "LEI", "NET+comb"). */
    virtual std::string name() const = 0;
};

} // namespace rsel

#endif // RSEL_SELECTION_SELECTOR_HPP
