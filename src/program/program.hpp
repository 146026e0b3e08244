/**
 * @file
 * The static guest program: functions, basic blocks, behaviours.
 */

#ifndef RSEL_PROGRAM_PROGRAM_HPP
#define RSEL_PROGRAM_PROGRAM_HPP

#include <span>
#include <string>
#include <vector>

#include "isa/basic_block.hpp"
#include "program/behavior.hpp"

namespace rsel {

/** A function of the guest program: a contiguous range of blocks. */
struct Function
{
    /** Function name (for diagnostics and examples). */
    std::string name;
    /** Entry block. */
    BlockId entry = invalidBlock;
    /** First block id of the function's contiguous layout range. */
    BlockId firstBlock = invalidBlock;
    /** One past the last block id of the layout range. */
    BlockId lastBlock = invalidBlock;
};

/**
 * An immutable synthetic guest program.
 *
 * Built via ProgramBuilder. Blocks are laid out at concrete
 * addresses (functions in creation order, blocks in creation order
 * within a function), so "backward branch" has its architectural
 * meaning. Branch behaviours are attached per block.
 *
 * Storage is a handful of program-wide tables, each indexed by block
 * id or pointing into a shared pool, never one heap object per block:
 * the instructions of every block in one array, the address index in
 * one open-addressed array, one behaviour record per block, and the
 * behaviours' probabilities, weights and indirect targets in two
 * pools. A tenant-sized program is about seven allocations.
 */
class Program
{
  public:
    /** All basic blocks, indexed by BlockId, in layout order. */
    const std::vector<BasicBlock> &blocks() const { return blocks_; }

    /** A block by id. */
    const BasicBlock &block(BlockId id) const { return blocks_.at(id); }

    /** The instructions of a block of this program, in address order. */
    std::span<const Instruction>
    instructions(const BasicBlock &b) const
    {
        return {insts_.data() + b.firstInst(), b.instCount()};
    }

    /** All functions, indexed by FuncId. */
    const std::vector<Function> &functions() const { return functions_; }

    /** A function by id. */
    const Function &function(FuncId id) const { return functions_.at(id); }

    /** Program entry block. */
    BlockId entry() const { return entry_; }

    /**
     * The block starting exactly at `addr`, or nullptr. All dynamic
     * branch targets in generated programs are block starts.
     */
    const BasicBlock *blockAtAddr(Addr addr) const;

    /**
     * The block a fall-through from `b` lands in, or nullptr when
     * the block cannot fall through or nothing follows it.
     */
    const BasicBlock *fallThroughOf(const BasicBlock &b) const;

    /** Behaviour of a CondDirect block (ProgramBuilder gives each one). */
    CondView condBehavior(BlockId id) const;

    /** Behaviour of an IndirectJump or IndirectCall block. */
    IndirectView indirectBehavior(BlockId id) const;

    /**
     * Phase lengths in executed-block counts; the Executor cycles
     * through them. Empty means a single unbounded phase.
     */
    const std::vector<std::uint64_t> &phaseLengths() const
    {
        return phaseLengths_;
    }

    /** Total static instruction count over all blocks. */
    std::uint64_t staticInstCount() const { return staticInsts_; }

    /** Total static code size in bytes. */
    std::uint64_t staticByteSize() const { return staticBytes_; }

  private:
    friend class ProgramBuilder;

    /**
     * One block's behaviour annotation. The variable-length parts
     * are ranges of the shared pools: a conditional's per-phase
     * probabilities and an indirect's weight rows in numbers_, an
     * indirect's targets in targets_.
     */
    struct Behavior
    {
        enum class Kind : std::uint8_t { None, Cond, Indirect };

        Kind kind = Kind::None;
        CondBehavior::Kind condKind = CondBehavior::Kind::Bernoulli;
        bool takenIsBackEdge = true;
        std::uint32_t tripMin = 1;
        std::uint32_t tripMax = 1;
        std::uint32_t numbersBegin = 0;
        std::uint32_t numbersCount = 0;
        std::uint32_t targetsBegin = 0;
        std::uint32_t targetsCount = 0;
    };

    /** One slot of the address index; addr == invalidAddr when empty. */
    struct AddrSlot
    {
        Addr addr = invalidAddr;
        BlockId id = invalidBlock;
    };

    /** Home slot of `addr` in addrIndex_ (Fibonacci hash). */
    std::size_t
    addrSlotOf(Addr addr) const
    {
        return static_cast<std::size_t>(
            (addr * 0x9E3779B97F4A7C15ull) >> addrShift_);
    }

    std::vector<BasicBlock> blocks_;
    /** Every block's instructions, block after block. */
    std::vector<Instruction> insts_;
    std::vector<Function> functions_;
    /**
     * Block start address -> block id: open addressing with linear
     * probing over a power-of-two slot count, at most half full.
     */
    std::vector<AddrSlot> addrIndex_;
    /** 64 - log2(addrIndex_.size()): the hash's shift. */
    unsigned addrShift_ = 64;
    /** Behaviour annotation per block id. */
    std::vector<Behavior> behaviors_;
    /** Probabilities and weights of every behaviour. */
    std::vector<double> numbers_;
    /** Targets of every indirect behaviour. */
    std::vector<BlockId> targets_;
    std::vector<std::uint64_t> phaseLengths_;
    BlockId entry_ = invalidBlock;
    std::uint64_t staticInsts_ = 0;
    std::uint64_t staticBytes_ = 0;
};

} // namespace rsel

#endif // RSEL_PROGRAM_PROGRAM_HPP
