#include "selection/region_cfg.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace rsel {

RegionCfg::RegionCfg(const BasicBlock *entry)
{
    reset(entry);
}

void
RegionCfg::reset(const BasicBlock *entry)
{
    RSEL_ASSERT(entry != nullptr, "region CFG needs an entry block");
    entry_ = entry;
    nodeCount_ = 0;
    edges_ = 0;
    traces_ = 0;
    if (++epoch_ == 0) {
        // Wrapped: a slot from 2^32 resets ago would alias.
        std::fill(index_.begin(), index_.end(), IndexSlot{});
        epoch_ = 1;
    }
    nodeFor(entry);
}

std::size_t
RegionCfg::nodeFor(const BasicBlock *b)
{
    const BlockId id = b->id();
    if (id >= index_.size())
        index_.resize(id + std::size_t{1});
    IndexSlot &slot = index_[id];
    if (slot.epoch == epoch_) {
        // The index is keyed by block id; two *distinct* block
        // objects sharing an id (blocks of different Program copies,
        // or a future per-function id scheme) would silently alias
        // into one node and corrupt the combined region. Insist on
        // object identity.
        RSEL_ASSERT(nodes_[slot.node].block == b,
                    "block-id aliasing: two distinct blocks share an "
                    "id in one region CFG");
        return slot.node;
    }
    const std::size_t idx = nodeCount_++;
    if (idx == nodes_.size())
        nodes_.emplace_back();
    Node &node = nodes_[idx];
    node.block = b;
    node.occurrences = 0;
    node.stamp = 0;
    node.marked = false;
    node.succs.clear();
    slot = {epoch_, static_cast<std::uint32_t>(idx)};
    return idx;
}

void
RegionCfg::addTrace(const std::vector<const BasicBlock *> &trace)
{
    RSEL_ASSERT(!trace.empty(), "cannot add an empty trace");
    // Pointer identity, not id equality: an equal id on a different
    // block object would be exactly the aliasing nodeFor() rejects.
    RSEL_ASSERT(trace.front() == entry_,
                "observed traces must share the region entrance");

    // Trace numbers start at 1, so a node's stamp equals traces_
    // exactly when this trace already counted it.
    ++traces_;
    std::size_t prev = 0;
    countOnce(nodes_[prev]);

    for (std::size_t i = 1; i < trace.size(); ++i) {
        const BasicBlock *b = trace[i];
        // An edge seen before is one of prev's successors: find it
        // there, and look the block up by id only for a new edge.
        std::vector<std::size_t> &succs = nodes_[prev].succs;
        auto it = std::find_if(succs.begin(), succs.end(),
                               [&](std::size_t s) {
                                   return nodes_[s].block == b;
                               });
        std::size_t cur;
        if (it != succs.end()) {
            cur = *it;
        } else {
            cur = nodeFor(b);
            // nodeFor may grow nodes_; re-index instead of `succs`.
            nodes_[prev].succs.push_back(cur);
            ++edges_;
        }
        countOnce(nodes_[cur]);
        prev = cur;
    }
}

std::uint32_t
RegionCfg::occurrences(BlockId id) const
{
    const Node *n = find(id);
    return n == nullptr ? 0 : n->occurrences;
}

void
RegionCfg::markFrequent(std::uint32_t tmin)
{
    for (std::size_t i = 0; i < nodeCount_; ++i)
        if (nodes_[i].occurrences >= tmin)
            nodes_[i].marked = true;
}

void
RegionCfg::postOrder()
{
    order_.clear();
    state_.assign(nodeCount_, 0); // 0 new, 1 open
    // Iterative DFS with an explicit stack of (node, next-child).
    stack_.clear();
    stack_.emplace_back(0, 0); // entry is node 0 by construction
    state_[0] = 1;
    while (!stack_.empty()) {
        auto &[node, child] = stack_.back();
        if (child < nodes_[node].succs.size()) {
            const std::size_t succ = nodes_[node].succs[child++];
            if (state_[succ] == 0) {
                state_[succ] = 1;
                stack_.emplace_back(succ, 0);
            }
        } else {
            order_.push_back(node);
            stack_.pop_back();
        }
    }
}

std::uint32_t
RegionCfg::markRejoiningPaths()
{
    // Iterative backward dataflow (paper Figure 15): a block is
    // marked when any successor is marked. Visiting in post order
    // means successors are usually processed first, so one sweep
    // almost always suffices; back edges can force another.
    postOrder();
    std::uint32_t sweepsThatMarked = 0;
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t node : order_) {
            Node &n = nodes_[node];
            if (n.marked)
                continue;
            for (std::size_t succ : n.succs) {
                if (nodes_[succ].marked) {
                    n.marked = true;
                    changed = true;
                    break;
                }
            }
        }
        if (changed)
            ++sweepsThatMarked;
    }
    return sweepsThatMarked;
}

std::vector<const BasicBlock *>
RegionCfg::markedBlocks() const
{
    RSEL_ASSERT(nodes_.front().marked,
                "entry must be marked before extracting the region");
    const auto first = nodes_.begin();
    const auto last = first + static_cast<std::ptrdiff_t>(nodeCount_);
    std::vector<const BasicBlock *> blocks;
    // Exactly sized: the vector becomes the region's member list.
    blocks.reserve(static_cast<std::size_t>(std::count_if(
        first, last, [](const Node &n) { return n.marked; })));
    for (auto it = first; it != last; ++it)
        if (it->marked)
            blocks.push_back(it->block);
    return blocks;
}

bool
RegionCfg::isMarked(BlockId id) const
{
    const Node *n = find(id);
    return n != nullptr && n->marked;
}

} // namespace rsel
