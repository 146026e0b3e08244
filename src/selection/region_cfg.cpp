#include "selection/region_cfg.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace rsel {

RegionCfg::RegionCfg(const BasicBlock *entry)
    : entry_(entry)
{
    RSEL_ASSERT(entry != nullptr, "region CFG needs an entry block");
    nodeFor(entry);
}

std::size_t
RegionCfg::nodeFor(const BasicBlock *b)
{
    auto it = index_.find(b->id());
    if (it != index_.end()) {
        // The index is keyed by block id; two *distinct* block
        // objects sharing an id (blocks of different Program copies,
        // or a future per-function id scheme) would silently alias
        // into one node and corrupt the combined region. Insist on
        // object identity.
        RSEL_ASSERT(nodes_[it->second].block == b,
                    "block-id aliasing: two distinct blocks share an "
                    "id in one region CFG");
        return it->second;
    }
    const std::size_t idx = nodes_.size();
    Node node;
    node.block = b;
    nodes_.push_back(std::move(node));
    index_.emplace(b->id(), idx);
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
    auto it = index_.find(id);
    return it == index_.end() ? 0 : nodes_[it->second].occurrences;
}

void
RegionCfg::markFrequent(std::uint32_t tmin)
{
    for (Node &n : nodes_)
        if (n.occurrences >= tmin)
            n.marked = true;
}

std::vector<std::size_t>
RegionCfg::postOrder() const
{
    std::vector<std::size_t> order;
    order.reserve(nodes_.size());
    std::vector<std::uint8_t> state(nodes_.size(), 0); // 0 new, 1 open
    // Iterative DFS with an explicit stack of (node, next-child).
    std::vector<std::pair<std::size_t, std::size_t>> stack;
    stack.emplace_back(0, 0); // entry is node 0 by construction
    state[0] = 1;
    while (!stack.empty()) {
        auto &[node, child] = stack.back();
        if (child < nodes_[node].succs.size()) {
            const std::size_t succ = nodes_[node].succs[child++];
            if (state[succ] == 0) {
                state[succ] = 1;
                stack.emplace_back(succ, 0);
            }
        } else {
            order.push_back(node);
            stack.pop_back();
        }
    }
    return order;
}

std::uint32_t
RegionCfg::markRejoiningPaths()
{
    // Iterative backward dataflow (paper Figure 15): a block is
    // marked when any successor is marked. Visiting in post order
    // means successors are usually processed first, so one sweep
    // almost always suffices; back edges can force another.
    const std::vector<std::size_t> order = postOrder();
    std::uint32_t sweepsThatMarked = 0;
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t node : order) {
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
    std::vector<const BasicBlock *> blocks;
    blocks.push_back(nodes_.front().block);
    for (std::size_t i = 1; i < nodes_.size(); ++i)
        if (nodes_[i].marked)
            blocks.push_back(nodes_[i].block);
    return blocks;
}

bool
RegionCfg::isMarked(BlockId id) const
{
    auto it = index_.find(id);
    return it != index_.end() && nodes_[it->second].marked;
}

} // namespace rsel
