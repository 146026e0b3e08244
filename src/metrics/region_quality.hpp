/**
 * @file
 * Static optimization-opportunity analysis of cached regions
 * (paper Section 4.4, "Effect on Optimization").
 *
 * The paper argues multi-path regions optimize better for three
 * reasons; this analyzer quantifies the structural preconditions of
 * the first two:
 *
 *  - "When a region contains both sides of an if-else statement,
 *    redundancy elimination does not need to produce compensation
 *    code" — counted as splits whose both successors are inside the
 *    region.
 *  - "When a region contains a cycle, loop optimizations can be
 *    performed ... even a trace that spans a cycle cannot perform
 *    [loop-invariant code motion], because it has nowhere outside
 *    the cycle to move an instruction" — a region is LICM-capable
 *    when it contains a cycle that excludes the region entry, i.e.
 *    in-region code exists "above" the cycle to host hoisted
 *    instructions.
 */

#ifndef RSEL_METRICS_REGION_QUALITY_HPP
#define RSEL_METRICS_REGION_QUALITY_HPP

#include <cstdint>
#include <vector>

#include "runtime/region.hpp"

namespace rsel {

/** Structural optimization opportunities of one region. */
struct RegionQuality
{
    /** The region's internal control flow contains a cycle. */
    bool hasInternalCycle = false;
    /**
     * A cycle exists that does not include the region entry, so the
     * region has a place to hoist loop-invariant code to.
     */
    bool licmCapable = false;
    /** Conditional splits with both successors inside the region
     *  (if-else with both sides present — compensation-free
     *  redundancy elimination). */
    std::uint32_t dualSuccessorSplits = 0;
    /** Blocks with two or more internal predecessors (join points
     *  the optimizer can reason about locally). */
    std::uint32_t joinBlocks = 0;
    /** Internal control-flow edges. */
    std::uint32_t internalEdges = 0;
};

/**
 * Working storage of analyzeRegionQuality. Analyzing many regions
 * through one scratch allocates only when a region has more blocks
 * or edges than every region before it.
 */
struct RegionQualityScratch
{
    /** Per-member state: out-edge range, Tarjan numbering, and the
     *  size of the member's strongly-connected component. */
    struct Node
    {
        std::uint32_t edgeBegin = 0;
        std::uint32_t edgeEnd = 0;
        std::uint32_t preds = 0;
        std::uint32_t index = 0;
        std::uint32_t low = 0;
        std::uint32_t component = 0;
        std::uint32_t componentSize = 0;
        bool onStack = false;
        bool selfLoop = false;
    };

    std::vector<Node> nodes;
    /** Edge targets, grouped by source member (Node::edgeBegin). */
    std::vector<std::uint32_t> edges;
    /** Tarjan's member stack. */
    std::vector<std::uint32_t> stack;
    /** The iterative DFS: (member, next edge to follow). */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> calls;
};

/**
 * Analyze one region's internal CFG. Internal edges are the static
 * successor edges (taken target / fall-through) between member
 * blocks, restricted for traces to the recorded layout plus the
 * branch-to-top link — matching the Region::step semantics.
 */
RegionQuality analyzeRegionQuality(const Region &region,
                                   RegionQualityScratch &scratch);

} // namespace rsel

#endif // RSEL_METRICS_REGION_QUALITY_HPP
