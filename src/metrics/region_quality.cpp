#include "metrics/region_quality.hpp"

#include <algorithm>

namespace rsel {

namespace {

constexpr std::uint32_t unvisited = ~std::uint32_t{0};

/**
 * Tarjan's strongly-connected components, iteratively, over the
 * scratch's edge lists: fills every node's component id and
 * component size.
 */
void
stronglyConnectedComponents(RegionQualityScratch &s)
{
    auto &nodes = s.nodes;
    for (auto &n : nodes)
        n.index = unvisited;
    s.stack.clear();
    s.calls.clear();
    std::uint32_t counter = 0;
    std::uint32_t components = 0;

    const auto visit = [&](std::uint32_t v) {
        nodes[v].index = nodes[v].low = counter++;
        nodes[v].onStack = true;
        s.stack.push_back(v);
        s.calls.emplace_back(v, nodes[v].edgeBegin);
    };

    for (std::uint32_t root = 0; root < nodes.size(); ++root) {
        if (nodes[root].index != unvisited)
            continue;
        visit(root);
        while (!s.calls.empty()) {
            const std::uint32_t u = s.calls.back().first;
            const std::uint32_t e = s.calls.back().second;
            if (e < nodes[u].edgeEnd) {
                ++s.calls.back().second;
                const std::uint32_t w = s.edges[e];
                if (nodes[w].index == unvisited)
                    visit(w);
                else if (nodes[w].onStack)
                    nodes[u].low = std::min(nodes[u].low, nodes[w].index);
                continue;
            }
            s.calls.pop_back();
            if (!s.calls.empty()) {
                auto &parent = nodes[s.calls.back().first];
                parent.low = std::min(parent.low, nodes[u].low);
            }
            if (nodes[u].low != nodes[u].index)
                continue;
            // u roots a component: everything above it on the stack.
            const auto first = std::find(s.stack.rbegin(),
                                         s.stack.rend(), u);
            const std::size_t begin =
                s.stack.size() - 1 -
                static_cast<std::size_t>(first - s.stack.rbegin());
            const auto size =
                static_cast<std::uint32_t>(s.stack.size() - begin);
            for (std::size_t k = begin; k < s.stack.size(); ++k) {
                nodes[s.stack[k]].onStack = false;
                nodes[s.stack[k]].component = components;
                nodes[s.stack[k]].componentSize = size;
            }
            s.stack.resize(begin);
            ++components;
        }
    }
}

} // namespace

RegionQuality
analyzeRegionQuality(const Region &region, RegionQualityScratch &s)
{
    const auto &blocks = region.blocks();
    const auto n = static_cast<std::uint32_t>(blocks.size());
    // At most two internal edges leave a member (trace: next and
    // top; multi-path: taken and fall-through).
    s.nodes.assign(n, {});
    s.edges.clear();
    s.edges.reserve(2 * std::size_t{n});
    s.stack.reserve(n);
    s.calls.reserve(n);
    const auto addEdge = [&](std::uint32_t from, std::uint32_t to) {
        s.edges.push_back(to);
        ++s.nodes[to].preds;
        if (to == from)
            s.nodes[from].selfLoop = true;
    };

    // Build the internal edge list matching Region::step semantics,
    // source by source, so each member's edges are one range.
    RegionQuality q;
    for (std::uint32_t i = 0; i < n; ++i) {
        s.nodes[i].edgeBegin = static_cast<std::uint32_t>(s.edges.size());
        if (region.kind() == Region::Kind::Trace) {
            // Recorded path plus the branch-to-top link (members are
            // distinct, so the next member is never the entry).
            if (i + 1 < n)
                addEdge(i, i + 1);
            const BasicBlock *b = blocks[i];
            if (!isIndirect(b->terminator()) &&
                b->takenTarget() == region.entryAddr())
                addEdge(i, 0);
        } else {
            // MultiPath: every static successor edge between members,
            // as the region resolved them when it was built.
            const Region::Successors &succ = region.successors(i);
            const bool takenIn = succ.takenId != invalidBlock;
            const bool fallIn = succ.fallId != invalidBlock;
            if (takenIn)
                addEdge(i, succ.takenPos);
            if (fallIn)
                addEdge(i, succ.fallPos);
            if (takenIn && fallIn)
                ++q.dualSuccessorSplits;
        }
        s.nodes[i].edgeEnd = static_cast<std::uint32_t>(s.edges.size());
    }

    q.internalEdges = static_cast<std::uint32_t>(s.edges.size());
    for (const auto &node : s.nodes)
        if (node.preds >= 2)
            ++q.joinBlocks;

    // Cycles via SCC: a component is cyclic when it has more than
    // one node or a self-edge.
    stronglyConnectedComponents(s);
    for (const auto &node : s.nodes) {
        if (node.componentSize <= 1 && !node.selfLoop)
            continue;
        q.hasInternalCycle = true;
        // Entry is index 0: a cycle whose component excludes it
        // leaves in-region code above the loop to hoist invariant
        // instructions to.
        if (node.component != s.nodes[0].component)
            q.licmCapable = true;
    }
    return q;
}

} // namespace rsel
