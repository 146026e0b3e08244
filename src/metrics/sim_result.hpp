/**
 * @file
 * Results of one simulated run: every metric the paper evaluates.
 *
 * Metric definitions (paper Section 2.3):
 *  - hit rate: % of executed program instructions that execute from
 *    the code cache.
 *  - code expansion: program instructions copied into the cache.
 *  - region transitions: jumps between distinct regions in the cache.
 *  - spanned cycle ratio: % of regions including a branch to their
 *    own top.
 *  - executed cycle ratio: % of region executions ending with a
 *    branch to the region top.
 *  - X% cover set: smallest set of regions covering at least X% of
 *    program execution.
 *  - exit domination (Section 4.1): regions reachable only through
 *    one earlier region's exit, and the instructions they duplicate
 *    from that region.
 */

#ifndef RSEL_METRICS_SIM_RESULT_HPP
#define RSEL_METRICS_SIM_RESULT_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "resilience/recovery_stats.hpp"
#include "runtime/region.hpp"

namespace rsel {

/** Static and dynamic statistics of one cached region. */
struct RegionStats
{
    RegionId id = invalidRegion;
    Region::Kind kind = Region::Kind::Trace;
    Addr entryAddr = invalidAddr;
    std::uint32_t blockCount = 0;
    std::uint64_t instCount = 0;
    std::uint64_t byteSize = 0;
    std::uint32_t exitStubs = 0;
    bool spansCycle = false;
    /** Instructions executed from this region. */
    std::uint64_t executedInsts = 0;
    /** Times the region was entered (each entry = one execution). */
    std::uint64_t executions = 0;
    /** Executions that ended with a branch back to the top. */
    std::uint64_t cycleEnds = 0;
};

/** All metrics of one simulated run. */
struct SimResult
{
    /** Name of the selection algorithm ("NET", "LEI", ...). */
    std::string selector;
    /** Workload name (filled by the harness). */
    std::string workload;

    /** Dynamic block events consumed. */
    std::uint64_t events = 0;
    /** Instructions executed by the guest program. */
    std::uint64_t totalInsts = 0;
    /** Of those, instructions executed from the code cache. */
    std::uint64_t cachedInsts = 0;
    /** Of those, instructions executed by the interpreter. */
    std::uint64_t interpretedInsts = 0;

    /** Regions selected. */
    std::uint64_t regionCount = 0;
    /** Code expansion: instructions copied into the cache. */
    std::uint64_t expansionInsts = 0;
    /** Code bytes copied into the cache. */
    std::uint64_t expansionBytes = 0;
    /** Exit stubs created. */
    std::uint64_t exitStubs = 0;
    /** Estimated cache size (bytes + 10 per stub; Section 4.3.4). */
    std::uint64_t estimatedCacheBytes = 0;

    /** Modelled I-cache line accesses during cached execution. */
    std::uint64_t icacheAccesses = 0;
    /** Modelled I-cache line misses during cached execution. */
    std::uint64_t icacheMisses = 0;

    /** Bounded-cache statistics (all zero for unbounded runs). */
    std::uint64_t cacheCapacityBytes = 0; ///< 0 = unbounded
    std::uint64_t cacheEvictions = 0;     ///< regions evicted
    std::uint64_t cacheFlushes = 0;       ///< full flushes
    std::uint64_t cacheRegenerations = 0; ///< re-inserted entries
    std::uint64_t cacheLiveBytes = 0;     ///< final occupancy

    /** Jumps between distinct cached regions. */
    std::uint64_t regionTransitions = 0;
    /**
     * Distinct region-to-region links exercised — the link
     * bookkeeping a real cache pays for (paper footnote 9: "our
     * algorithms are very likely to reduce the number of such
     * links, as fewer regions are selected").
     */
    std::uint64_t interRegionLinks = 0;
    /** Region executions (entry count). */
    std::uint64_t regionExecutions = 0;
    /** Region executions that ended by a branch to the top. */
    std::uint64_t cycleTerminations = 0;
    /** Regions that statically span a cycle. */
    std::uint64_t spanningRegions = 0;

    /** 90% cover set size (regions), the paper's quality metric. */
    std::uint32_t coverSet90 = 0;
    /** True if all regions together cover less than 90%. */
    bool coverSetSaturated = false;

    /** High-water mark of live profiling counters (Figure 10). */
    std::uint64_t maxLiveCounters = 0;
    /** Peak bytes of stored observed traces (Figure 18). */
    std::uint64_t peakObservedTraceBytes = 0;
    /** Combined regions whose mark dataflow marked blocks. */
    std::uint64_t markSweepRegions = 0;
    /** Of those, regions needing a second or later sweep. */
    std::uint64_t markSweepMultiIterRegions = 0;

    /** Regions that are exit-dominated (Section 4.1). */
    std::uint64_t exitDominatedRegions = 0;
    /** Instructions duplicated between dominated/dominating pairs. */
    std::uint64_t exitDominatedDupInsts = 0;
    /**
     * Instructions selected into more than one region, counted once
     * per extra copy (the paper's "excessive code duplication").
     */
    std::uint64_t duplicatedInsts = 0;

    /** Section 4.4 optimization-opportunity structure counts. */
    std::uint64_t regionsWithInternalCycle = 0;
    /** Regions with a cycle excluding their entry (LICM-capable). */
    std::uint64_t licmCapableRegions = 0;
    /** Regions containing an if-else with both sides present. */
    std::uint64_t dualSplitRegions = 0;
    /** Internal join blocks across all regions. */
    std::uint64_t joinBlocksTotal = 0;

    /**
     * Fault-injection and graceful-degradation counters (all zero
     * when no fault plan was armed).
     */
    resilience::RecoveryStats recovery;

    /** Per-region statistics, indexed by RegionId. */
    std::vector<RegionStats> regions;

    /** Exit-domination pairs: (dominated region, its dominator). */
    std::vector<std::pair<RegionId, RegionId>> exitDominationPairs;

    /** Hit rate in [0, 1]. */
    double hitRate() const;
    /** Fraction of regions that span a cycle, in [0, 1]. */
    double spannedCycleRatio() const;
    /** Fraction of region executions ending by cycle, in [0, 1]. */
    double executedCycleRatio() const;
    /** Average region size in instructions. */
    double avgRegionInsts() const;
    /** Fraction of regions that are exit-dominated. */
    double exitDominatedRegionRatio() const;
    /** Fraction of selected instructions that are exit-dominated
     *  duplication (Figure 11). */
    double exitDominatedDupRatio() const;
    /** Observed-trace memory as a fraction of the estimated cache
     *  size (Figure 18). */
    double observedMemoryRatio() const;
    /** Modelled I-cache miss rate of cached execution, in [0, 1]. */
    double icacheMissRate() const;

    /**
     * Smallest number of regions covering at least `fraction` of
     * total executed instructions; regionCount when saturated.
     */
    std::uint32_t coverSet(double fraction) const;

    /**
     * Internal-accounting closure check, the testing subsystem's
     * conservation oracle: instruction counts must split exactly
     * between interpreter and cache, per-region statistics must sum
     * to the run totals, and derived counters must stay within their
     * bounds. @return an empty string when every identity holds, or
     * a description of the first violated identity. Only meaningful
     * on a directly finished run (merged results clear the
     * per-region vectors this cross-checks).
     */
    std::string conservationError() const;

    /**
     * Fold another run's counters into this result, for suite-level
     * aggregation of results produced independently (possibly on
     * different threads — each run owns its collector, so merging
     * finished SimResults is the only cross-thread aggregation the
     * metric stack needs, and it is data-race free by construction).
     *
     * Additive counters (events, instructions, regions, expansion,
     * transitions, cache traffic, ...) sum; high-water marks
     * (maxLiveCounters, peakObservedTraceBytes) take the maximum of
     * the two runs, modelling independent systems rather than one
     * shared profiler. Derived ratios (hitRate() etc.) then read
     * correctly from the merged counters. Per-region vectors,
     * exit-domination pairs and cover-set fields are NOT merged —
     * they are meaningless across distinct caches — and are cleared
     * on the merged result. selector/workload keep their value when
     * equal and become "mixed" otherwise.
     */
    SimResult &mergeFrom(const SimResult &other);
};

/** mergeFrom() folded over `parts`; default SimResult when empty. */
SimResult mergeResults(const std::vector<SimResult> &parts);

} // namespace rsel

#endif // RSEL_METRICS_SIM_RESULT_HPP
