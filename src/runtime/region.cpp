#include "runtime/region.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "support/error.hpp"

namespace rsel {

Region::Region(Kind kind, RegionId id,
               std::vector<const BasicBlock *> blocks)
    : kind_(kind), id_(id), blocks_(std::move(blocks))
{
    RSEL_ASSERT(!blocks_.empty(), "a region needs at least one block");
    entryAddr_ = blocks_.front()->startAddr();
    blockIds_.reserve(blocks_.size());
    const std::size_t slots = std::bit_ceil(2 * blocks_.size());
    memberIndex_.resize(slots);
    memberShift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        const BlockId id = blocks_[i]->id();
        RSEL_ASSERT(id != invalidBlock, "region block without an id");
        blockIds_.push_back(id);
        std::size_t slot = slotOf(id);
        while (memberIndex_[slot].id != invalidBlock) {
            RSEL_ASSERT(memberIndex_[slot].id != id,
                        "duplicate block in region");
            slot = (slot + 1) & (slots - 1);
        }
        memberIndex_[slot] = {id, static_cast<std::uint32_t>(i)};
    }
    computeFootprint();
    if (kind_ == Kind::Trace)
        computeTraceStubs();
    else
        computeMultiPathStubs();
}

Region
Region::makeTrace(RegionId id, std::vector<const BasicBlock *> path)
{
    return Region(Kind::Trace, id, std::move(path));
}

Region
Region::makeMultiPath(RegionId id,
                      std::vector<const BasicBlock *> blocks)
{
    return Region(Kind::MultiPath, id, std::move(blocks));
}

std::size_t
Region::memberPos(BlockId id) const
{
    if (id == invalidBlock)
        return notMember;
    const std::size_t mask = memberIndex_.size() - 1;
    for (std::size_t slot = slotOf(id);; slot = (slot + 1) & mask) {
        const MemberSlot &m = memberIndex_[slot];
        if (m.id == id)
            return m.pos;
        if (m.id == invalidBlock)
            return notMember;
    }
}

void
Region::computeFootprint()
{
    for (const BasicBlock *b : blocks_) {
        instCount_ += b->instCount();
        byteSize_ += b->sizeBytes();
    }
}

void
Region::computeTraceStubs()
{
    // A trace keeps control along the recorded path (block i to
    // block i+1) and along any direct branch back to its top (the
    // link that spans a cycle). Every other potential continuation
    // needs an exit stub. Indirect transfers always need one stub
    // for the mispredicted-target path, even when the recorded
    // target is the next trace block.
    const Addr top = entryAddr();
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        const BasicBlock *b = blocks_[i];
        const BasicBlock *next =
            i + 1 < blocks_.size() ? blocks_[i + 1] : nullptr;

        auto needStubFor = [&](Addr target) {
            if (target == top) {
                spansCycle_ = true;
                return false; // linked back to the trace head
            }
            if (next != nullptr && target == next->startAddr())
                return false; // the recorded path, laid out inline
            return true;
        };

        switch (b->terminator()) {
          case BranchKind::CondDirect:
            if (needStubFor(b->takenTarget()))
                ++exitStubs_;
            if (needStubFor(b->fallThroughAddr()))
                ++exitStubs_;
            break;
          case BranchKind::Jump:
          case BranchKind::Call:
            if (needStubFor(b->takenTarget()))
                ++exitStubs_;
            break;
          case BranchKind::None:
            if (needStubFor(b->fallThroughAddr()))
                ++exitStubs_;
            break;
          case BranchKind::IndirectJump:
          case BranchKind::IndirectCall:
          case BranchKind::Return:
            ++exitStubs_;
            break;
          case BranchKind::Halt:
            break;
        }
    }
}

void
Region::computeMultiPathStubs()
{
    // A multi-path region keeps control for any transfer whose
    // target block is a member: exits targeting member blocks were
    // replaced by edges (Figure 13, line 16). Stubs remain for
    // targets outside the region and for indirect misses. The same
    // walk fills the successor cache step() reads. Members by start
    // address, searched by target:
    std::vector<std::pair<Addr, std::uint32_t>> byAddr;
    byAddr.reserve(blocks_.size());
    for (std::size_t i = 0; i < blocks_.size(); ++i)
        byAddr.emplace_back(blocks_[i]->startAddr(),
                            static_cast<std::uint32_t>(i));
    std::sort(byAddr.begin(), byAddr.end());
    RSEL_ASSERT(std::adjacent_find(byAddr.begin(), byAddr.end(),
                                   [](const auto &a, const auto &b) {
                                       return a.first == b.first;
                                   }) == byAddr.end(),
                "two region members share an address");
    succs_.resize(blocks_.size());

    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        const BasicBlock *b = blocks_[i];
        // Resolve `target` to a member, recording it in `id`/`pos`;
        // true when the transfer leaves the region.
        auto needStubFor = [&](Addr target, BlockId &id,
                               std::uint32_t &pos) {
            const auto it = std::lower_bound(
                byAddr.begin(), byAddr.end(), target,
                [](const auto &m, Addr a) { return m.first < a; });
            if (it == byAddr.end() || it->first != target)
                return true;
            if (target == entryAddr())
                spansCycle_ = true;
            id = blockIds_[it->second];
            pos = it->second;
            return false;
        };
        Successors &succ = succs_[i];

        switch (b->terminator()) {
          case BranchKind::CondDirect:
            if (needStubFor(b->takenTarget(), succ.takenId,
                            succ.takenPos))
                ++exitStubs_;
            if (needStubFor(b->fallThroughAddr(), succ.fallId,
                            succ.fallPos))
                ++exitStubs_;
            break;
          case BranchKind::Jump:
          case BranchKind::Call:
            if (needStubFor(b->takenTarget(), succ.takenId,
                            succ.takenPos))
                ++exitStubs_;
            break;
          case BranchKind::None:
            if (needStubFor(b->fallThroughAddr(), succ.fallId,
                            succ.fallPos))
                ++exitStubs_;
            break;
          case BranchKind::IndirectJump:
          case BranchKind::IndirectCall:
          case BranchKind::Return:
            ++exitStubs_;
            break;
          case BranchKind::Halt:
            break;
        }
    }
}

} // namespace rsel
