#include "analysis/program_facts.hpp"

#include <unordered_set>

namespace rsel {
namespace analysis {

ProgramFacts
buildProgramFacts(const Program &prog)
{
    ProgramFacts pf;
    pf.prog = &prog;
    pf.graph = DiGraph(static_cast<std::uint32_t>(prog.blocks().size()));

    // Fall-through addresses of call blocks (return landing pads).
    std::unordered_set<Addr> returnTargets;
    for (const BasicBlock &b : prog.blocks())
        if (b.terminator() == BranchKind::Call ||
            b.terminator() == BranchKind::IndirectCall)
            returnTargets.insert(b.fallThroughAddr());

    // ProgramBuilder::build() resolves every taken target and
    // fall-through below to a block.
    const auto blockAt = [&prog](Addr addr) {
        return prog.blockAtAddr(addr)->id();
    };
    for (const BasicBlock &b : prog.blocks()) {
        switch (b.terminator()) {
        case BranchKind::CondDirect:
            pf.graph.addEdge(b.id(), blockAt(b.takenTarget()));
            [[fallthrough]];
        case BranchKind::None:
            pf.graph.addEdge(b.id(), prog.fallThroughOf(b)->id());
            break;
        case BranchKind::Jump:
        case BranchKind::Call:
            pf.graph.addEdge(b.id(), blockAt(b.takenTarget()));
            break;
        case BranchKind::IndirectJump:
        case BranchKind::IndirectCall:
            for (const BlockId t :
                 prog.indirectBehavior(b.id()).targets)
                pf.graph.addEdge(b.id(), t);
            break;
        case BranchKind::Return:
            // Conservative: a return may land at any call's
            // fall-through (mirrors CfgOracle::legalEdge).
            for (const Addr addr : returnTargets)
                pf.graph.addEdge(b.id(), blockAt(addr));
            break;
        case BranchKind::Halt:
            break;
        }
    }

    pf.cfg = CfgFacts::compute(pf.graph, prog.entry());
    return pf;
}

MemberFacts
buildMemberFacts(const ProgramFacts &pf,
                 const std::vector<const BasicBlock *> &members)
{
    MemberFacts mf;
    mf.members = members;
    const std::uint32_t k =
        static_cast<std::uint32_t>(members.size());
    mf.graph = DiGraph(k);
    for (std::uint32_t i = 0; i < k; ++i)
        for (std::uint32_t j = 0; j < k; ++j)
            if (pf.possibleEdge(*members[i], *members[j]))
                mf.graph.addEdge(i, j);
    mf.cfg = CfgFacts::compute(mf.graph, 0);
    for (std::uint32_t id = 0; id < mf.cfg.sccCount; ++id)
        if (mf.cfg.sccIsCycle[id])
            mf.hasCycle = true;
    return mf;
}

} // namespace analysis
} // namespace rsel
