#include "program/program.hpp"

#include "support/error.hpp"

namespace rsel {

const BasicBlock *
Program::blockAtAddr(Addr addr) const
{
    if (addrIndex_.empty() || addr == invalidAddr)
        return nullptr;
    const std::size_t mask = addrIndex_.size() - 1;
    for (std::size_t slot = addrSlotOf(addr);; slot = (slot + 1) & mask) {
        const AddrSlot &s = addrIndex_[slot];
        if (s.addr == addr)
            return &blocks_[s.id];
        if (s.addr == invalidAddr)
            return nullptr;
    }
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

CondView
Program::condBehavior(BlockId id) const
{
    RSEL_ASSERT(id < behaviors_.size() &&
                    behaviors_[id].kind == Behavior::Kind::Cond,
                "block has no conditional behaviour");
    const Behavior &b = behaviors_[id];
    CondView v;
    v.kind = b.condKind;
    v.takenProbByPhase = {numbers_.data() + b.numbersBegin,
                          b.numbersCount};
    v.tripMin = b.tripMin;
    v.tripMax = b.tripMax;
    v.takenIsBackEdge = b.takenIsBackEdge;
    return v;
}

IndirectView
Program::indirectBehavior(BlockId id) const
{
    RSEL_ASSERT(id < behaviors_.size() &&
                    behaviors_[id].kind == Behavior::Kind::Indirect,
                "block has no indirect behaviour");
    const Behavior &b = behaviors_[id];
    IndirectView v;
    v.targets = {targets_.data() + b.targetsBegin, b.targetsCount};
    v.weights = {numbers_.data() + b.numbersBegin, b.numbersCount};
    return v;
}

} // namespace rsel
