/**
 * @file
 * Shared edge-profiling machinery for the Section 5 related-work
 * selectors (BOA, Wiggins/Redstone).
 *
 * Both systems gather per-branch statistics while code is emulated
 * or instrumented, then *statically* construct a trace by following
 * each branch's most frequent target. PathProfile accumulates the
 * statistics; formMostLikelyPath() performs the walk.
 */

#ifndef RSEL_SELECTION_PATH_PROFILE_HPP
#define RSEL_SELECTION_PATH_PROFILE_HPP

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "selection/block_table.hpp"
#include "selection/selector.hpp"

namespace rsel {

class Program;
class CodeCache;

/** Accumulated per-branch direction/target statistics. */
class PathProfile
{
  public:
    /**
     * Attribute an interpreted event to the previous interpreted
     * block's terminator. Call once per interpreted event, in
     * order; events following cache execution are ignored (the
     * chain is broken). Returns the previous block, for callers
     * that track additional state.
     */
    const BasicBlock *record(const SelectorEvent &event);

    /** Observed taken-count of a conditional block. */
    std::uint64_t takenCount(BlockId id) const;

    /** Observed not-taken count of a conditional block. */
    std::uint64_t notTakenCount(BlockId id) const;

    /**
     * Most frequently observed dynamic target of an indirect block,
     * or invalidAddr when nothing was observed.
     */
    Addr hottestIndirectTarget(BlockId id) const;

    /** True if the conditional's taken direction is more frequent. */
    bool prefersTaken(BlockId id) const;

    /** Forget the previous block (the interpreted chain broke). */
    void breakChain() { lastBlock_ = nullptr; }

    /** Drop every accumulated statistic (full profiling reset). */
    void reset()
    {
        edges_.clear();
        indirect_.clear();
        lastBlock_ = nullptr;
    }

  private:
    struct EdgeProfile
    {
        std::uint64_t taken = 0;
        std::uint64_t notTaken = 0;
    };

    std::unordered_map<BlockId, EdgeProfile> edges_;
    std::unordered_map<BlockId, std::unordered_map<Addr, std::uint64_t>>
        indirect_;
    const BasicBlock *lastBlock_ = nullptr;
};

/**
 * Statically walk the most-likely path from `entry`: follow each
 * conditional toward its more frequent direction and each indirect
 * toward its hottest observed target. Stops at an existing region
 * head, on block revisit (cycle), at the size limit, at a halt, or
 * at an indirect branch with no profile.
 * @param path   out: the walk, entry first (cleared first).
 * @param member scratch set of the program's blocks (cleared first).
 */
void formMostLikelyPath(const Program &prog, const CodeCache &cache,
                        const PathProfile &profile,
                        const BasicBlock &entry, std::uint32_t max_insts,
                        std::vector<const BasicBlock *> &path,
                        BlockSet &member);

} // namespace rsel

#endif // RSEL_SELECTION_PATH_PROFILE_HPP
