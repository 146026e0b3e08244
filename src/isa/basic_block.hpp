/**
 * @file
 * Instruction and basic-block representation of the synthetic ISA.
 */

#ifndef RSEL_ISA_BASIC_BLOCK_HPP
#define RSEL_ISA_BASIC_BLOCK_HPP

#include <cstdint>
#include <span>

#include "isa/types.hpp"

namespace rsel {

/**
 * One guest instruction. Only the properties region selection can
 * observe are modelled: its address and its encoded size in bytes
 * (variable, like x86, so the paper's byte-based code-cache size
 * model is meaningful).
 */
struct Instruction
{
    /** Guest address of the instruction. */
    Addr addr = invalidAddr;
    /** Encoded size in bytes (2-6 in generated programs). */
    std::uint8_t sizeBytes = 4;
};

/**
 * A basic block of the guest program: a run of straight-line
 * instructions ended by at most one control transfer.
 *
 * Blocks are identified by their start address; the terminating
 * branch instruction is the last instruction of the block. The
 * fall-through address is the address immediately after the block.
 * The instructions themselves live in the owning Program's
 * instruction table (Program::instructions); the block keeps their
 * index there and the address facts it is asked for.
 */
class BasicBlock
{
  public:
    /**
     * @param id           index of the block in its Program.
     * @param func         owning function.
     * @param instructions non-empty, contiguous instruction list.
     * @param terminator   kind of the final control transfer.
     * @param takenTarget  static taken-target address, or invalidAddr
     *                     for indirect/return/none terminators.
     * @param firstInst    index of the first instruction in the
     *                     owning Program's instruction table.
     */
    BasicBlock(BlockId id, FuncId func,
               std::span<const Instruction> instructions,
               BranchKind terminator, Addr takenTarget,
               std::uint32_t firstInst = 0);

    /** Block index within its Program. */
    BlockId id() const { return id_; }

    /** Owning function. */
    FuncId func() const { return func_; }

    /** Address of the first instruction. */
    Addr startAddr() const { return startAddr_; }

    /** Address of the last (terminating) instruction. */
    Addr lastInstAddr() const { return lastInstAddr_; }

    /** Address immediately after the block (fall-through target). */
    Addr fallThroughAddr() const { return startAddr_ + sizeBytes_; }

    /** Index of the first instruction in the Program's table. */
    std::uint32_t firstInst() const { return firstInst_; }

    /** Number of instructions in the block. */
    std::size_t instCount() const { return instCount_; }

    /** Total encoded size of the block in bytes. */
    std::uint64_t sizeBytes() const { return sizeBytes_; }

    /** Kind of the terminating control transfer. */
    BranchKind terminator() const { return terminator_; }

    /** Static taken-target address (invalidAddr if none). */
    Addr takenTarget() const { return takenTarget_; }

    /**
     * True if the terminating branch is a backward branch with
     * respect to the given target: target address at or below the
     * branch instruction address. This is the paper's definition
     * ("an instruction that transfers control to a lower address").
     */
    bool isBackwardTransferTo(Addr target) const
    {
        return target <= lastInstAddr();
    }

  private:
    BlockId id_;
    FuncId func_;
    std::uint32_t firstInst_;
    std::uint32_t instCount_;
    Addr startAddr_ = invalidAddr;
    Addr lastInstAddr_ = invalidAddr;
    Addr takenTarget_;
    std::uint64_t sizeBytes_ = 0;
    BranchKind terminator_;
};

} // namespace rsel

#endif // RSEL_ISA_BASIC_BLOCK_HPP
