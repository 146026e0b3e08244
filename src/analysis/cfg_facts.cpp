#include "analysis/cfg_facts.hpp"

#include <algorithm>

namespace rsel {
namespace analysis {

void
DiGraph::addEdge(std::uint32_t from, std::uint32_t to)
{
    std::vector<std::uint32_t> &out = succs_[from];
    if (std::find(out.begin(), out.end(), to) != out.end())
        return;
    out.push_back(to);
    ++edges_;
}

bool
DiGraph::hasEdge(std::uint32_t from, std::uint32_t to) const
{
    const std::vector<std::uint32_t> &out = succs_[from];
    return std::find(out.begin(), out.end(), to) != out.end();
}

namespace {

/** Mark the nodes reachable from `entry` (iterative DFS). */
void
markReachable(const DiGraph &g, std::uint32_t entry,
              std::vector<std::uint8_t> &reachable)
{
    if (entry >= g.size())
        return;
    std::vector<std::uint32_t> work{entry};
    reachable[entry] = 1;
    while (!work.empty()) {
        const std::uint32_t node = work.back();
        work.pop_back();
        for (const std::uint32_t succ : g.succs(node))
            if (!reachable[succ]) {
                reachable[succ] = 1;
                work.push_back(succ);
            }
    }
}

/** Iterative Tarjan SCC over every node (reachable or not). */
void
computeSccs(const DiGraph &g, CfgFacts &f)
{
    const std::uint32_t n = g.size();
    f.sccId.assign(n, invalidNode);
    std::vector<std::uint32_t> num(n, invalidNode), low(n, 0);
    std::vector<std::uint32_t> sccStack;
    std::vector<std::uint8_t> onStack(n, 0);
    std::uint32_t counter = 0;

    struct Frame
    {
        std::uint32_t node;
        std::size_t child;
    };
    std::vector<Frame> stack;

    for (std::uint32_t root = 0; root < n; ++root) {
        if (num[root] != invalidNode)
            continue;
        num[root] = low[root] = counter++;
        sccStack.push_back(root);
        onStack[root] = 1;
        stack.push_back({root, 0});
        while (!stack.empty()) {
            Frame &fr = stack.back();
            if (fr.child < g.succs(fr.node).size()) {
                const std::uint32_t succ = g.succs(fr.node)[fr.child++];
                if (num[succ] == invalidNode) {
                    num[succ] = low[succ] = counter++;
                    sccStack.push_back(succ);
                    onStack[succ] = 1;
                    stack.push_back({succ, 0});
                } else if (onStack[succ]) {
                    low[fr.node] = std::min(low[fr.node], num[succ]);
                }
            } else {
                if (low[fr.node] == num[fr.node]) {
                    const std::uint32_t id = f.sccCount++;
                    while (true) {
                        const std::uint32_t v = sccStack.back();
                        sccStack.pop_back();
                        onStack[v] = 0;
                        f.sccId[v] = id;
                        if (v == fr.node)
                            break;
                    }
                }
                const std::uint32_t done = fr.node;
                stack.pop_back();
                if (!stack.empty()) {
                    Frame &parent = stack.back();
                    low[parent.node] =
                        std::min(low[parent.node], low[done]);
                }
            }
        }
    }

    std::vector<std::uint32_t> sizes(f.sccCount, 0);
    for (std::uint32_t v = 0; v < n; ++v)
        ++sizes[f.sccId[v]];
    f.sccIsCycle.assign(f.sccCount, 0);
    f.sccHasExit.assign(f.sccCount, 0);
    for (std::uint32_t id = 0; id < f.sccCount; ++id)
        if (sizes[id] > 1)
            f.sccIsCycle[id] = 1;
    for (std::uint32_t from = 0; from < n; ++from) {
        for (const std::uint32_t to : g.succs(from)) {
            if (f.sccId[from] == f.sccId[to]) {
                if (from == to)
                    f.sccIsCycle[f.sccId[from]] = 1;
            } else {
                f.sccHasExit[f.sccId[from]] = 1;
            }
        }
    }
}

} // namespace

CfgFacts
CfgFacts::compute(const DiGraph &graph, std::uint32_t entry)
{
    CfgFacts f;
    f.reachable.assign(graph.size(), 0);
    markReachable(graph, entry, f.reachable);
    computeSccs(graph, f);
    return f;
}

} // namespace analysis
} // namespace rsel
