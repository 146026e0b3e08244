/**
 * @file
 * Generic dataflow framework over `DiGraph`/`CfgFacts`.
 *
 * `solveDataflow` is a classic worklist fixpoint solver,
 * parameterized over:
 *
 *  - direction: `Forward` propagates along edges (a node's input is
 *    the meet over its predecessors' outputs), `Backward` against
 *    them (meet over successors);
 *  - lattice: a value type plus `bottom()`, `meetInto()` and
 *    `equal()` — the meet must be monotone or the solver may not
 *    terminate before the transfer budget;
 *  - transfer function: `Value transfer(node, Value in)`.
 *
 * The worklist is seeded in reverse post order (reverse RPO for
 * backward problems) so acyclic regions settle in one sweep; nodes
 * unreachable from the entry are appended in index order and get a
 * defined (usually bottom) value. Two canned lattices ship with it:
 * `BitsetLattice` (powerset, meet = union), on which the call-closure
 * fixpoint of `inter_facts` runs, and `BoolOrLattice` (two-point,
 * meet = or). Two canned analyses built on them — multi-source
 * reachability (`reachingSources`, forward) and can-reach-target
 * (`reachesAnyOf`, backward) — exercise both solver directions.
 */

#ifndef RSEL_ANALYSIS_DATAFLOW_HPP
#define RSEL_ANALYSIS_DATAFLOW_HPP

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "analysis/cfg_facts.hpp"

namespace rsel {
namespace analysis {

/** Which way facts flow along the edges. */
enum class DataflowDirection : std::uint8_t { Forward, Backward };

/** Outcome of one fixpoint run: the OUT value per node. */
template <typename Value> struct DataflowResult
{
    /** Post-transfer value per node index. */
    std::vector<Value> out;
    /** Transfer-function applications performed. */
    std::uint64_t transfersRun = 0;
    /** False iff the transfer budget ran out before the fixpoint. */
    bool converged = false;
};

/**
 * Run `transfer` to a fixpoint over `graph`. `cfg` must be the facts
 * of the same graph (the solver uses its predecessor lists and RPO).
 * `maxTransfers` bounds the work; 0 picks a budget far above the
 * need of any monotone lattice of height <= 64 * nodes.
 */
template <typename Lattice, typename Transfer>
DataflowResult<typename Lattice::Value>
solveDataflow(const DiGraph &graph, const CfgFacts &cfg,
              DataflowDirection dir, const Lattice &lattice,
              Transfer &&transfer, std::uint64_t maxTransfers = 0)
{
    using Value = typename Lattice::Value;
    const std::uint32_t n = graph.size();
    DataflowResult<Value> res;
    res.out.assign(n, lattice.bottom());
    res.converged = true;
    if (n == 0)
        return res;
    if (maxTransfers == 0)
        maxTransfers = 64ull * n * (n + 1);

    // Seed order: RPO forward, reverse RPO backward, then any node
    // the entry does not reach, in index order.
    std::vector<std::uint32_t> order;
    order.reserve(n);
    if (dir == DataflowDirection::Forward)
        order = cfg.rpo;
    else
        order.assign(cfg.rpo.rbegin(), cfg.rpo.rend());
    {
        std::vector<std::uint8_t> seeded(n, 0);
        for (const std::uint32_t u : order)
            seeded[u] = 1;
        for (std::uint32_t u = 0; u < n; ++u)
            if (!seeded[u])
                order.push_back(u);
    }

    std::deque<std::uint32_t> work(order.begin(), order.end());
    std::vector<std::uint8_t> inWork(n, 1);
    while (!work.empty()) {
        if (res.transfersRun >= maxTransfers) {
            res.converged = false;
            break;
        }
        const std::uint32_t u = work.front();
        work.pop_front();
        inWork[u] = 0;

        Value in = lattice.bottom();
        const std::vector<std::uint32_t> &sources =
            dir == DataflowDirection::Forward ? cfg.preds[u]
                                              : graph.succs(u);
        for (const std::uint32_t v : sources)
            lattice.meetInto(in, res.out[v]);

        Value next = transfer(u, std::move(in));
        ++res.transfersRun;
        if (lattice.equal(next, res.out[u]))
            continue;
        res.out[u] = std::move(next);
        const std::vector<std::uint32_t> &dependents =
            dir == DataflowDirection::Forward ? graph.succs(u)
                                              : cfg.preds[u];
        for (const std::uint32_t v : dependents)
            if (!inWork[v]) {
                inWork[v] = 1;
                work.push_back(v);
            }
    }
    return res;
}

/**
 * Powerset lattice over [0, width) bit positions, packed into 64-bit
 * words; bottom is the empty set and meet is set union.
 */
class BitsetLattice
{
  public:
    using Value = std::vector<std::uint64_t>;

    explicit BitsetLattice(std::uint32_t width)
        : words_((width + 63u) / 64u)
    {
    }

    Value bottom() const { return Value(words_, 0); }

    void meetInto(Value &into, const Value &from) const
    {
        for (std::size_t w = 0; w < into.size(); ++w)
            into[w] |= from[w];
    }

    bool equal(const Value &a, const Value &b) const { return a == b; }

    static void setBit(Value &v, std::uint32_t bit)
    {
        v[bit / 64u] |= 1ull << (bit % 64u);
    }

    static bool testBit(const Value &v, std::uint32_t bit)
    {
        return (v[bit / 64u] >> (bit % 64u)) & 1u;
    }

    static std::uint32_t countBits(const Value &v);

  private:
    std::size_t words_;
};

/** Two-point boolean lattice; bottom is false, meet is logical or. */
struct BoolOrLattice
{
    using Value = std::uint8_t;
    Value bottom() const { return 0; }
    void meetInto(Value &into, const Value &from) const
    {
        into = static_cast<Value>(into | from);
    }
    bool equal(Value a, Value b) const { return a == b; }
};

/**
 * Forward multi-source reachability: out[n] is the bitset of indices
 * into `sources` whose node reaches n (every source reaches itself).
 */
DataflowResult<BitsetLattice::Value>
reachingSources(const DiGraph &graph, const CfgFacts &cfg,
                const std::vector<std::uint32_t> &sources);

/**
 * Backward target reachability: out[n] is 1 iff n can reach some
 * node with `targetMask[node] != 0` (a target reaches itself).
 * @pre targetMask.size() == graph.size().
 */
DataflowResult<std::uint8_t>
reachesAnyOf(const DiGraph &graph, const CfgFacts &cfg,
             const std::vector<std::uint8_t> &targetMask);

} // namespace analysis
} // namespace rsel

#endif // RSEL_ANALYSIS_DATAFLOW_HPP
