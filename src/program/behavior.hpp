/**
 * @file
 * Dynamic-behaviour annotations for conditional and indirect branches.
 *
 * A Program is a static CFG; behaviours describe how its branches
 * resolve at run time. The Executor consults them to synthesize a
 * realistic dynamic basic-block stream (the paper's Pin-collected
 * stream). Behaviours may vary by execution phase, modelling the
 * phase behaviour the paper cites from Sherwood et al.
 */

#ifndef RSEL_PROGRAM_BEHAVIOR_HPP
#define RSEL_PROGRAM_BEHAVIOR_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "isa/types.hpp"

namespace rsel {

/**
 * Behaviour of a conditional branch.
 *
 * Two models:
 *  - `Bernoulli`: each execution takes the branch independently with
 *    a (possibly phase-dependent) probability. Probability near 0 or
 *    1 models a biased branch; near 0.5 an unbiased branch (paper
 *    Figure 4).
 *  - `Loop`: the block is a loop latch. On each entry to the loop a
 *    trip count is drawn uniformly from [tripMin, tripMax]; the
 *    branch resolves toward the back edge until the trip count is
 *    exhausted, then exits and re-arms.
 */
struct CondBehavior
{
    enum class Kind : std::uint8_t { Bernoulli, Loop };

    Kind kind = Kind::Bernoulli;

    /**
     * Bernoulli: probability the branch is taken, one entry per
     * phase (indexed modulo size). Must be non-empty for Bernoulli.
     */
    std::vector<double> takenProbByPhase;

    /** Loop: minimum trip count (>= 1). */
    std::uint32_t tripMin = 1;
    /** Loop: maximum trip count (>= tripMin). */
    std::uint32_t tripMax = 1;
    /**
     * Loop: if true the taken direction is the back edge (trip-1
     * taken executions then one not-taken exit); if false the
     * fall-through is the back edge and the exit is taken.
     */
    bool takenIsBackEdge = true;

    /** Convenience constructor for a fixed-probability branch. */
    static CondBehavior bernoulli(double taken_prob);

    /** Convenience constructor for a phase-varying branch. */
    static CondBehavior phased(std::vector<double> taken_prob_by_phase);

    /** Convenience constructor for a loop latch. */
    static CondBehavior loop(std::uint32_t trip_min,
                             std::uint32_t trip_max,
                             bool taken_is_back_edge = true);
};

/**
 * Behaviour of an indirect jump or call: a weighted set of targets,
 * with optional per-phase weights (weightsByPhase[phase][targetIdx],
 * phase indexed modulo the outer size).
 */
struct IndirectBehavior
{
    /** Candidate target blocks. */
    std::vector<BlockId> targets;
    /** Per-phase weights; each inner vector matches targets.size(). */
    std::vector<std::vector<double>> weightsByPhase;

    /** Convenience constructor with a single phase. */
    static IndirectBehavior weighted(std::vector<BlockId> targets,
                                     std::vector<double> weights);
};

/**
 * A conditional behaviour as a Program stores it: CondBehavior's
 * fields, with the per-phase probabilities a view of the program's
 * shared table.
 */
struct CondView
{
    CondBehavior::Kind kind = CondBehavior::Kind::Bernoulli;
    /** Bernoulli: taken probability per phase (indexed modulo). */
    std::span<const double> takenProbByPhase;
    std::uint32_t tripMin = 1;
    std::uint32_t tripMax = 1;
    bool takenIsBackEdge = true;
};

/**
 * An indirect behaviour as a Program stores it: views of the
 * program's shared target and weight tables.
 */
struct IndirectView
{
    /** Candidate target blocks (non-empty). */
    std::span<const BlockId> targets;
    /** Weight rows, phase after phase, targets.size() weights each. */
    std::span<const double> weights;

    /** Number of weight rows (phases). */
    std::size_t phaseCount() const { return weights.size() / targets.size(); }

    /** The weight row of `phase`, indexed modulo phaseCount(). */
    std::span<const double>
    weightsFor(std::size_t phase) const
    {
        return weights.subspan((phase % phaseCount()) * targets.size(),
                               targets.size());
    }
};

} // namespace rsel

#endif // RSEL_PROGRAM_BEHAVIOR_HPP
