#include "program/program.hpp"

#include "support/error.hpp"

namespace rsel {

const BasicBlock *
Program::blockAtAddr(Addr addr) const
{
    auto it = addrToBlock_.find(addr);
    if (it == addrToBlock_.end())
        return nullptr;
    return &blocks_[it->second];
}

const BasicBlock *
Program::fallThroughOf(const BasicBlock &b) const
{
    if (!canFallThrough(b.terminator()))
        return nullptr;
    // Blocks are laid out in id order, so a fall-through that lands
    // on a block at all lands on the next id: no address lookup.
    const Addr addr = b.fallThroughAddr();
    const std::size_t next = std::size_t{b.id()} + 1;
    if (next < blocks_.size() && blocks_[next].startAddr() == addr)
        return &blocks_[next];
    return blockAtAddr(addr);
}

const CondBehavior &
Program::condBehavior(BlockId id) const
{
    auto it = condBehaviors_.find(id);
    RSEL_ASSERT(it != condBehaviors_.end(),
                "block has no conditional behaviour");
    return it->second;
}

const IndirectBehavior &
Program::indirectBehavior(BlockId id) const
{
    auto it = indirectBehaviors_.find(id);
    RSEL_ASSERT(it != indirectBehaviors_.end(),
                "block has no indirect behaviour");
    return it->second;
}

} // namespace rsel
