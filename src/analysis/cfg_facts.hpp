/**
 * @file
 * Graph facts over a rooted directed graph: the core of the analysis
 * layer.
 *
 * Everything the verifier passes need about a CFG is derived once
 * from a plain adjacency list (`DiGraph`) and cached in a `CfgFacts`
 * value: predecessor lists, reachability from the entry, reverse
 * post order, the dominator tree (Cooper–Harvey–Kennedy iterative
 * algorithm over reverse post order), strongly connected components
 * (iterative Tarjan), and natural loops (back edges `a -> b` where
 * `b` dominates `a`, bodies collected by the classic backward walk).
 *
 * The graph is node-index based and knows nothing about blocks or
 * programs; `program_facts` adapts guest `Program`s and region
 * member sets onto it.
 */

#ifndef RSEL_ANALYSIS_CFG_FACTS_HPP
#define RSEL_ANALYSIS_CFG_FACTS_HPP

#include <cstdint>
#include <vector>

namespace rsel {
namespace analysis {

/** A rooted directed graph as an adjacency list over [0, size). */
class DiGraph
{
  public:
    explicit DiGraph(std::uint32_t nodeCount)
        : succs_(nodeCount)
    {
    }

    /** Number of nodes. */
    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(succs_.size());
    }

    /** Add the edge from -> to; duplicate edges are kept out. */
    void addEdge(std::uint32_t from, std::uint32_t to);

    /** Successor list of a node. */
    const std::vector<std::uint32_t> &succs(std::uint32_t node) const
    {
        return succs_[node];
    }

    /** True if from -> to is an edge. */
    bool hasEdge(std::uint32_t from, std::uint32_t to) const;

    /** Total edge count. */
    std::size_t edgeCount() const { return edges_; }

  private:
    std::vector<std::vector<std::uint32_t>> succs_;
    std::size_t edges_ = 0;
};

/** Sentinel node index ("no node"). */
constexpr std::uint32_t invalidNode = 0xffffffffu;

/** One natural loop: a header plus its body (header included). */
struct NaturalLoop
{
    std::uint32_t header = invalidNode;
    /** Loop body node indices, header first, rest sorted. */
    std::vector<std::uint32_t> body;
};

/** Facts derived once from a (graph, entry) pair. */
struct CfgFacts
{
    /** Entry node the facts are rooted at. */
    std::uint32_t entry = invalidNode;

    /** Predecessor lists (over all edges, reachable or not). */
    std::vector<std::vector<std::uint32_t>> preds;

    /** Reachability from the entry. */
    std::vector<std::uint8_t> reachable;
    std::uint32_t reachableCount = 0;

    /**
     * Reverse post order of the nodes reachable from the entry
     * (entry first).
     */
    std::vector<std::uint32_t> rpo;

    /**
     * Immediate dominator per node; `idom[entry] == entry`,
     * `invalidNode` for unreachable nodes.
     */
    std::vector<std::uint32_t> idom;

    /** Strongly connected component id per node (all nodes). */
    std::vector<std::uint32_t> sccId;
    std::uint32_t sccCount = 0;

    /**
     * Per component: does it contain a cycle (more than one node, or
     * a self edge)?
     */
    std::vector<std::uint8_t> sccIsCycle;

    /** Per component: does any edge leave it? */
    std::vector<std::uint8_t> sccHasExit;

    /** Natural loops of reachable back edges, by header. */
    std::vector<NaturalLoop> loops;

    /** Compute every fact for `graph` rooted at `entry`. */
    static CfgFacts compute(const DiGraph &graph, std::uint32_t entry);

    /** True if `a` dominates `b` (reflexive). @pre b reachable. */
    bool dominates(std::uint32_t a, std::uint32_t b) const;
};

} // namespace analysis
} // namespace rsel

#endif // RSEL_ANALYSIS_CFG_FACTS_HPP
