/**
 * @file
 * CFG built from observed traces, for trace combination (paper
 * Sections 4.2.2 and 4.2.3).
 *
 * The CFG represents only control transfers observed in some trace,
 * which is sufficient because any other transfer exits the region.
 * Blocks are annotated with the number of observed traces containing
 * them; region selection marks blocks occurring in at least T_min
 * traces, then marks every block on an observed path that rejoins a
 * marked block (the Figure 15 iterative dataflow), and finally drops
 * everything unmarked.
 */

#ifndef RSEL_SELECTION_REGION_CFG_HPP
#define RSEL_SELECTION_REGION_CFG_HPP

#include <cstdint>
#include <utility>
#include <vector>

#include "isa/basic_block.hpp"

namespace rsel {

/** Incremental CFG over observed traces rooted at one entrance. */
class RegionCfg
{
  public:
    /** @param entry the common entry block of all observed traces. */
    explicit RegionCfg(const BasicBlock *entry);

    /**
     * Start over as a fresh RegionCfg(entry), keeping the storage of
     * the nodes, their successor lists, the block index and the
     * post-order scratch: a CFG no larger than one built before
     * allocates nothing.
     */
    void reset(const BasicBlock *entry);

    /**
     * Add one observed trace. The first block must be the entry.
     * Each block's occurrence count rises at most once per trace.
     */
    void addTrace(const std::vector<const BasicBlock *> &trace);

    /** Number of traces added so far. */
    std::uint32_t traceCount() const { return traces_; }

    /** Occurrence count of a block (0 if absent). */
    std::uint32_t occurrences(BlockId id) const;

    /** Mark all blocks occurring in at least `tmin` traces. */
    void markFrequent(std::uint32_t tmin);

    /**
     * Mark every block from which a marked block is reachable along
     * observed edges (the paper's rejoining paths; Figure 15).
     * Iterates over blocks in post order so marks usually propagate
     * fully in one sweep.
     *
     * @return the number of sweeps that marked at least one block
     *         (the paper reports ~0.1% of regions need a second).
     */
    std::uint32_t markRejoiningPaths();

    /**
     * Marked blocks, entry first. @pre markFrequent() ran (the entry
     * occurs in every trace, so it is always marked).
     */
    std::vector<const BasicBlock *> markedBlocks() const;

    /** Whether a specific block is currently marked. */
    bool isMarked(BlockId id) const;

    /** Number of distinct blocks in the CFG. */
    std::size_t blockCount() const { return nodeCount_; }

    /** Number of distinct observed edges. */
    std::size_t edgeCount() const { return edges_; }

  private:
    struct Node
    {
        const BasicBlock *block = nullptr;
        std::uint32_t occurrences = 0;
        /** Number of the last trace that counted this node. */
        std::uint32_t stamp = 0;
        bool marked = false;
        std::vector<std::size_t> succs; ///< node indices
    };

    /** A block's node: valid while its epoch is the CFG's. */
    struct IndexSlot
    {
        std::uint32_t epoch = 0;
        std::uint32_t node = 0;
    };

    std::size_t nodeFor(const BasicBlock *b);

    /** The node of block `id`, or nullptr when it has none. */
    const Node *find(BlockId id) const
    {
        if (id >= index_.size() || index_[id].epoch != epoch_)
            return nullptr;
        return &nodes_[index_[id].node];
    }

    /** Count `n` once for the trace being added. */
    void countOnce(Node &n)
    {
        if (n.stamp != traces_) {
            n.stamp = traces_;
            ++n.occurrences;
        }
    }

    /** Fill order_ with a post-order over nodes reachable from the
     *  entry. */
    void postOrder();

    const BasicBlock *entry_ = nullptr;
    /** The CFG's nodes are the first nodeCount_; the rest are kept
     *  for reuse, successor storage included. */
    std::vector<Node> nodes_;
    std::size_t nodeCount_ = 0;
    /** Per block id (grown on demand): its node in this CFG. */
    std::vector<IndexSlot> index_;
    /** Bumped by reset(), orphaning every index slot at once. */
    std::uint32_t epoch_ = 0;
    std::size_t edges_ = 0;
    std::uint32_t traces_ = 0;
    /** postOrder()'s output and its per-node state and DFS stack. */
    std::vector<std::size_t> order_;
    std::vector<std::uint8_t> state_;
    std::vector<std::pair<std::size_t, std::size_t>> stack_;
};

} // namespace rsel

#endif // RSEL_SELECTION_REGION_CFG_HPP
