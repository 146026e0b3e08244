#include "testing/cfg_oracle.hpp"

#include <algorithm>

namespace rsel {
namespace testing {

CfgOracle::CfgOracle(const Program &prog) : prog_(prog)
{
    for (const BasicBlock &b : prog.blocks()) {
        if (b.terminator() == BranchKind::Call ||
            b.terminator() == BranchKind::IndirectCall)
            returnTargets_.insert(b.fallThroughAddr());
    }
}

bool
CfgOracle::legalEdge(const BasicBlock &from, const BasicBlock &to) const
{
    switch (from.terminator()) {
    case BranchKind::None:
        return to.startAddr() == from.fallThroughAddr();
    case BranchKind::CondDirect:
        return to.startAddr() == from.takenTarget() ||
               to.startAddr() == from.fallThroughAddr();
    case BranchKind::Jump:
    case BranchKind::Call:
        return to.startAddr() == from.takenTarget();
    case BranchKind::IndirectJump:
    case BranchKind::IndirectCall: {
        const IndirectView ib = prog_.indirectBehavior(from.id());
        return std::find(ib.targets.begin(), ib.targets.end(),
                         to.id()) != ib.targets.end();
    }
    case BranchKind::Return:
        return isReturnTarget(to.startAddr());
    case BranchKind::Halt:
        return false;
    }
    return false;
}

} // namespace testing
} // namespace rsel
