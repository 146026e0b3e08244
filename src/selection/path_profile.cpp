#include "selection/path_profile.hpp"

#include <algorithm>

#include "program/program.hpp"
#include "runtime/code_cache.hpp"

namespace rsel {

const BasicBlock *
PathProfile::record(const SelectorEvent &ev)
{
    const BasicBlock *prev = lastBlock_;
    lastBlock_ = ev.block;
    if (prev == nullptr || ev.fromCacheExit)
        return prev;

    const bool takenFromPrev =
        ev.viaTaken && ev.branchAddr == prev->lastInstAddr();
    const bool fellFromPrev =
        !ev.viaTaken &&
        ev.block->startAddr() == prev->fallThroughAddr();
    if (!takenFromPrev && !fellFromPrev)
        return prev;

    switch (prev->terminator()) {
      case BranchKind::CondDirect: {
        EdgeProfile &profile = edges_[prev->id()];
        if (takenFromPrev)
            ++profile.taken;
        else
            ++profile.notTaken;
        break;
      }
      case BranchKind::IndirectJump:
      case BranchKind::IndirectCall:
      case BranchKind::Return:
        if (takenFromPrev)
            ++indirect_[prev->id()][ev.block->startAddr()];
        break;
      default:
        break;
    }
    return prev;
}

std::uint64_t
PathProfile::takenCount(BlockId id) const
{
    auto it = edges_.find(id);
    return it == edges_.end() ? 0 : it->second.taken;
}

std::uint64_t
PathProfile::notTakenCount(BlockId id) const
{
    auto it = edges_.find(id);
    return it == edges_.end() ? 0 : it->second.notTaken;
}

Addr
PathProfile::hottestIndirectTarget(BlockId id) const
{
    auto it = indirect_.find(id);
    if (it == indirect_.end() || it->second.empty())
        return invalidAddr;
    const auto best = std::max_element(
        it->second.begin(), it->second.end(),
        [](const auto &a, const auto &b) {
            return a.second < b.second;
        });
    return best->first;
}

bool
PathProfile::prefersTaken(BlockId id) const
{
    auto it = edges_.find(id);
    return it != edges_.end() &&
           it->second.taken > it->second.notTaken;
}

void
formMostLikelyPath(const Program &prog, const CodeCache &cache,
                   const PathProfile &profile, const BasicBlock &entry,
                   std::uint32_t max_insts,
                   std::vector<const BasicBlock *> &path, BlockSet &member)
{
    path.clear();
    member.clear();
    std::uint64_t insts = 0;

    const BasicBlock *b = &entry;
    while (b != nullptr) {
        if (b != &entry && cache.lookupEntry(b->id()) != nullptr)
            break; // reached an existing region
        if (member.contains(b->id()))
            break; // completed a cycle (or re-joined the path)
        // The entry block is always included, even when it alone
        // exceeds the size limit.
        if (!path.empty() && insts + b->instCount() > max_insts)
            break;
        path.push_back(b);
        member.insert(b->id());
        insts += b->instCount();

        Addr next = invalidAddr;
        switch (b->terminator()) {
          case BranchKind::None:
            next = b->fallThroughAddr();
            break;
          case BranchKind::Jump:
          case BranchKind::Call:
            next = b->takenTarget();
            break;
          case BranchKind::CondDirect:
            next = profile.prefersTaken(b->id())
                       ? b->takenTarget()
                       : b->fallThroughAddr();
            break;
          case BranchKind::IndirectJump:
          case BranchKind::IndirectCall:
          case BranchKind::Return:
            next = profile.hottestIndirectTarget(b->id());
            if (next == invalidAddr)
                return;
            break;
          case BranchKind::Halt:
            return;
        }
        b = prog.blockAtAddr(next);
    }
}

} // namespace rsel
