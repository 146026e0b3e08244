/**
 * @file
 * Code-cache regions: linear traces and combined multi-path regions.
 *
 * A region is a single-entry unit of cached, optimized code. Two
 * kinds exist, mirroring the paper:
 *
 *  - `Trace`: an interprocedural superblock — one path of basic
 *    blocks laid out consecutively. Control stays inside only along
 *    the recorded path, or by branching back to the trace top
 *    (spanning a cycle). Every other potential continuation needs an
 *    exit stub.
 *  - `MultiPath`: a trace-combination region — a single-entry CFG of
 *    blocks with split and join points. Control stays inside for any
 *    transfer whose target block is a member; exits targeting member
 *    blocks have been replaced by edges (paper Figure 13, line 16).
 */

#ifndef RSEL_RUNTIME_REGION_HPP
#define RSEL_RUNTIME_REGION_HPP

#include <cstdint>
#include <vector>

#include "isa/basic_block.hpp"
#include "support/error.hpp"

namespace rsel {

class Program;

/** Index of a region in its CodeCache, in selection order. */
using RegionId = std::uint32_t;

/** Sentinel for "no region". */
constexpr RegionId invalidRegion =
    std::numeric_limits<RegionId>::max();

/** Result of advancing execution by one block inside a region. */
enum class RegionStep : std::uint8_t {
    Internal,     ///< Control stays in the region.
    CycleRestart, ///< Control branched back to the region top.
    Exit,         ///< Control left the region.
};

/**
 * An immutable code-cache region. Construction precomputes the
 * instruction/byte footprint, the exit-stub count, and whether the
 * region statically spans a cycle.
 */
class Region
{
  public:
    enum class Kind : std::uint8_t { Trace, MultiPath };

    /**
     * Build a linear trace from a recorded path.
     * @param id     region id assigned by the cache.
     * @param path   blocks in recorded execution order; non-empty,
     *               no duplicates.
     */
    static Region makeTrace(RegionId id,
                            std::vector<const BasicBlock *> path);

    /**
     * Build a multi-path region.
     * @param id     region id assigned by the cache.
     * @param blocks member blocks; the first is the region entry.
     */
    static Region makeMultiPath(RegionId id,
                                std::vector<const BasicBlock *> blocks);

    /** Region kind. */
    Kind kind() const { return kind_; }

    /** Region id (selection order). */
    RegionId id() const { return id_; }

    /** Guest address of the region entry (cached at build time). */
    Addr entryAddr() const { return entryAddr_; }

    /** The entry block. */
    const BasicBlock &entryBlock() const { return *blocks_.front(); }

    /**
     * Member blocks. For a trace: in recorded path order. For a
     * multi-path region: entry first, rest unordered.
     */
    const std::vector<const BasicBlock *> &blocks() const
    {
        return blocks_;
    }

    /** True if the block is a member of the region. */
    bool containsBlock(BlockId id) const
    {
        return memberPos(id) != notMember;
    }

    /**
     * Member block ids, parallel to blocks(): a contiguous stripe so
     * the execution fast path compares ids without chasing the
     * per-block pointers.
     */
    const std::vector<BlockId> &blockIds() const { return blockIds_; }

    /**
     * Advance execution within the region.
     *
     * @param pos   in/out: index into blocks() of the current block.
     *              Reset to 0 on CycleRestart; unchanged on Exit.
     * @param next  the block that executed next in the real stream.
     * @param taken whether it was reached by a taken branch.
     */
    RegionStep
    step(std::size_t &pos, const BasicBlock &next, bool taken) const
    {
        // Defined inline: this is the once-per-cached-block decision
        // of the simulation's hottest loop, and the trace fast path
        // is two compares against precomputed values.
        RSEL_ASSERT(pos < blocks_.size(),
                    "region position out of range");

        if (kind_ == Kind::Trace) {
            // Branch back to the top: the spanned-cycle link.
            if (taken && next.startAddr() == entryAddr_) {
                pos = 0;
                return RegionStep::CycleRestart;
            }
            // The recorded path, laid out consecutively.
            if (pos + 1 < blockIds_.size() &&
                next.id() == blockIds_[pos + 1]) {
                ++pos;
                return RegionStep::Internal;
            }
            return RegionStep::Exit;
        }

        return stepMultiPath(pos, next.id());
    }

    /**
     * step() for a MultiPath region, which ignores `taken`, given the
     * next block's id. The batch run loop calls it directly.
     * @pre kind() == MultiPath and pos < blocks().size().
     */
    RegionStep
    stepMultiPath(std::size_t &pos, BlockId id) const
    {
        // Any transfer to a member block stays inside. The current
        // member's static successors are cached, so only other next
        // blocks (indirect targets, exits) pay for the member-index
        // lookup.
        const Successors &succ = succs_[pos];
        std::size_t to;
        if (id == succ.takenId) {
            to = succ.takenPos;
        } else if (id == succ.fallId) {
            to = succ.fallPos;
        } else {
            to = memberPos(id);
            if (to == notMember)
                return RegionStep::Exit;
        }
        // Members start at distinct addresses, so the member at the
        // entry address is position 0: reaching it by any transfer,
        // fall-through included, begins the next execution.
        if (to == 0) {
            pos = 0;
            return RegionStep::CycleRestart;
        }
        pos = to;
        return RegionStep::Internal;
    }

    /** Number of guest instructions copied into this region. */
    std::uint64_t instCount() const { return instCount_; }

    /** Guest code bytes copied into this region. */
    std::uint64_t byteSize() const { return byteSize_; }

    /** Number of exit stubs the region requires. */
    std::uint32_t exitStubCount() const { return exitStubs_; }

    /**
     * True if the region includes a branch to its own top, i.e. it
     * statically spans a cycle (paper's spanned-cycle metric).
     */
    bool spansCycle() const { return spansCycle_; }

    /**
     * The in-region successors of one multi-path member: id and
     * position of the member its static taken target and its
     * fall-through address land on, or invalidBlock when that
     * transfer leaves the region (or does not exist).
     */
    struct Successors
    {
        BlockId takenId = invalidBlock;
        std::uint32_t takenPos = 0;
        BlockId fallId = invalidBlock;
        std::uint32_t fallPos = 0;
    };

    /**
     * The static in-region successors of member `pos`.
     * @pre kind() == MultiPath and pos < blocks().size().
     */
    const Successors &successors(std::size_t pos) const
    {
        return succs_[pos];
    }

  private:
    Region(Kind kind, RegionId id,
           std::vector<const BasicBlock *> blocks);

    static constexpr std::size_t notMember = ~std::size_t{0};

    /** Index of the member with this id, or notMember (the slow
     *  path of step(), kept out of line). */
    std::size_t memberPos(BlockId id) const;

    /** Home slot of `id` in memberIndex_. */
    std::size_t slotOf(BlockId id) const
    {
        return static_cast<std::size_t>(
            (id * 0x9E3779B97F4A7C15ull) >> memberShift_);
    }

    void computeFootprint();
    void computeTraceStubs();
    void computeMultiPathStubs();

    Kind kind_;
    RegionId id_;
    std::vector<const BasicBlock *> blocks_;
    /** Ids of blocks_, same order (fast-path compare stripe). */
    std::vector<BlockId> blockIds_;
    /** One slot of memberIndex_; id == invalidBlock when empty. */
    struct MemberSlot
    {
        BlockId id = invalidBlock;
        std::uint32_t pos = 0;
    };
    /**
     * block id -> index into blocks_: open addressing with linear
     * probing over a power-of-two slot count, at most half full,
     * starting at the Fibonacci hash of the id.
     */
    std::vector<MemberSlot> memberIndex_;
    /** 64 - log2(memberIndex_.size()): the hash's shift. */
    unsigned memberShift_ = 0;
    /** MultiPath only: successors of blocks_[i] (empty for traces). */
    std::vector<Successors> succs_;
    Addr entryAddr_ = invalidAddr;
    std::uint64_t instCount_ = 0;
    std::uint64_t byteSize_ = 0;
    std::uint32_t exitStubs_ = 0;
    bool spansCycle_ = false;
};

} // namespace rsel

#endif // RSEL_RUNTIME_REGION_HPP
