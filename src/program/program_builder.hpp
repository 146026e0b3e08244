/**
 * @file
 * Fluent construction of synthetic guest programs.
 *
 * Usage pattern:
 * @code
 *     ProgramBuilder b(42);
 *     FuncId main = b.beginFunction("main");
 *     BlockId head = b.block(4);
 *     BlockId body = b.block(6);
 *     BlockId latch = b.block(2);
 *     b.loopTo(latch, head, 100, 200);
 *     b.setEntry(head);
 *     Program p = b.build();
 * @endcode
 *
 * Blocks are laid out in creation order; a block's fall-through
 * successor is the next block created in the same function. Function
 * creation order fixes the address order, which is what makes calls
 * and jumps forward or backward (significant for NET and LEI).
 */

#ifndef RSEL_PROGRAM_PROGRAM_BUILDER_HPP
#define RSEL_PROGRAM_PROGRAM_BUILDER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "program/program.hpp"
#include "support/random.hpp"

namespace rsel {

/** Builder for Program instances. Single-shot: build() consumes it. */
class ProgramBuilder
{
  public:
    /**
     * @param seed     seed for instruction-size synthesis.
     * @param baseAddr address at which the first function is placed.
     */
    explicit ProgramBuilder(std::uint64_t seed = 1,
                            Addr baseAddr = 0x1000);

    /** Begin a new function; subsequent blocks belong to it. */
    FuncId beginFunction(const std::string &name);

    /**
     * Create a block with `ninsts` instructions in the current
     * function. The terminator defaults to fall-through (None).
     */
    BlockId block(unsigned ninsts);

    /**
     * Create a block with explicit instruction sizes (used by the
     * program loader to round-trip layouts exactly).
     */
    BlockId blockWithSizes(const std::vector<std::uint8_t> &sizes);

    /**
     * Pre-size for `blocks` blocks in `functions` functions (upper
     * bounds are fine), so building allocates once per table instead
     * of once per doubling.
     */
    void reserve(std::size_t blocks, std::size_t functions);

    /**
     * Make `src` a conditional branch to `target`. @throws FatalError
     * for a Bernoulli behaviour without probabilities or a loop latch
     * outside 1 <= tripMin <= tripMax.
     */
    void condTo(BlockId src, BlockId target,
                const CondBehavior &behavior);

    /**
     * Make `src` a loop latch conditionally branching back to
     * `head`; trips drawn uniformly from [tripMin, tripMax].
     */
    void loopTo(BlockId src, BlockId head, std::uint32_t trip_min,
                std::uint32_t trip_max);

    /** Make `src` an unconditional jump to `target`. */
    void jumpTo(BlockId src, BlockId target);

    /** Make `src` a direct call to function `callee`. */
    void callTo(BlockId src, FuncId callee);

    /**
     * Make `src` a direct call whose target is the *block* `target`
     * rather than a function entry. Only the verifier self-tests
     * want this (a well-formed program never calls mid-function);
     * it exists so the call-graph-consistency planted bug is
     * expressible at all.
     */
    void callToBlock(BlockId src, BlockId target);

    /** Make `src` an indirect jump resolved by `behavior`. */
    void indirectJump(BlockId src, const IndirectBehavior &behavior);

    /** Make `src` an indirect call resolved by `behavior`. */
    void indirectCall(BlockId src, const IndirectBehavior &behavior);

    /** Make `src` a return. */
    void ret(BlockId src);

    /** Make `src` halt the program. */
    void halt(BlockId src);

    /** Entry block of an already-created function. */
    BlockId functionEntry(FuncId func) const;

    /** Number of functions created so far. */
    std::size_t functionCount() const { return functions_.size(); }

    /** Number of blocks created so far. */
    std::size_t blockCount() const { return pendings_.size(); }

    /** Set the program entry block. */
    void setEntry(BlockId entry);

    /** Set phase lengths (executed blocks per phase; cycled). */
    void setPhaseLengths(std::vector<std::uint64_t> lengths);

    /**
     * Finalize: assign addresses, resolve block targets, validate
     * fall-through structure. @throws FatalError on inconsistency.
     */
    Program build();

  private:
    struct PendingBlock
    {
        FuncId func;
        unsigned ninsts;
        BranchKind terminator = BranchKind::None;
        BlockId target = invalidBlock; ///< block-id form of takenTarget
        FuncId callee = invalidFunc;
        /** Explicit instruction sizes: sizesCount entries of sizes_
         *  from sizesBegin (none = synthesized). */
        std::uint32_t sizesBegin = 0;
        std::uint32_t sizesCount = 0;
        /** The behaviour, its pools' ranges already final. */
        Program::Behavior behavior;
        /** Index of the first instruction (set by build()). */
        std::uint32_t firstInst = 0;
    };

    PendingBlock &pending(BlockId id);
    void setTerminator(BlockId src, BranchKind kind, BlockId target,
                       FuncId callee);
    void setIndirect(BlockId src, BranchKind kind,
                     const IndirectBehavior &behavior);

    Rng rng_;
    Addr baseAddr_;
    std::vector<PendingBlock> pendings_;
    std::vector<Function> functions_;
    /** Explicit instruction sizes of every blockWithSizes block. */
    std::vector<std::uint8_t> sizes_;
    /** Program::numbers_ and Program::targets_, under way. */
    std::vector<double> numbers_;
    std::vector<BlockId> targets_;
    std::vector<std::uint64_t> phaseLengths_;
    BlockId entry_ = invalidBlock;
    bool built_ = false;
};

} // namespace rsel

#endif // RSEL_PROGRAM_PROGRAM_BUILDER_HPP
