#include "isa/basic_block.hpp"

#include "support/error.hpp"

namespace rsel {

bool
isIndirect(BranchKind kind)
{
    return kind == BranchKind::IndirectJump ||
           kind == BranchKind::IndirectCall ||
           kind == BranchKind::Return;
}

bool
canFallThrough(BranchKind kind)
{
    return kind == BranchKind::None || kind == BranchKind::CondDirect;
}

bool
isUnconditional(BranchKind kind)
{
    switch (kind) {
      case BranchKind::Jump:
      case BranchKind::IndirectJump:
      case BranchKind::Call:
      case BranchKind::IndirectCall:
      case BranchKind::Return:
        return true;
      default:
        return false;
    }
}

std::string
branchKindName(BranchKind kind)
{
    switch (kind) {
      case BranchKind::None:         return "fall-through";
      case BranchKind::CondDirect:   return "cond";
      case BranchKind::Jump:         return "jump";
      case BranchKind::IndirectJump: return "ijump";
      case BranchKind::Call:         return "call";
      case BranchKind::IndirectCall: return "icall";
      case BranchKind::Return:       return "return";
      case BranchKind::Halt:         return "halt";
    }
    return "unknown";
}

BasicBlock::BasicBlock(BlockId id, FuncId func,
                       std::span<const Instruction> instructions,
                       BranchKind terminator, Addr takenTarget,
                       std::uint32_t firstInst)
    : id_(id), func_(func), firstInst_(firstInst),
      instCount_(static_cast<std::uint32_t>(instructions.size())),
      takenTarget_(takenTarget), terminator_(terminator)
{
    RSEL_ASSERT(!instructions.empty(), "a block needs >= 1 instruction");
    startAddr_ = instructions.front().addr;
    lastInstAddr_ = instructions.back().addr;
    Addr expected = startAddr_;
    for (const Instruction &inst : instructions) {
        RSEL_ASSERT(inst.addr == expected,
                    "block instructions must be contiguous");
        expected += inst.sizeBytes;
        sizeBytes_ += inst.sizeBytes;
    }

    const bool needsStaticTarget = terminator == BranchKind::CondDirect ||
                                   terminator == BranchKind::Jump ||
                                   terminator == BranchKind::Call;
    if (needsStaticTarget) {
        RSEL_ASSERT(takenTarget_ != invalidAddr,
                    "direct branch requires a static target");
    } else {
        RSEL_ASSERT(takenTarget_ == invalidAddr,
                    "non-direct terminator cannot carry a static target");
    }
}

} // namespace rsel
