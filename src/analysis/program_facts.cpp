#include "analysis/program_facts.hpp"

#include <unordered_set>

namespace rsel {
namespace analysis {

ProgramFacts
buildProgramFacts(const Program &prog)
{
    ProgramFacts pf;
    pf.prog = &prog;
    const std::uint32_t n =
        static_cast<std::uint32_t>(prog.blocks().size());
    pf.graph = DiGraph(n);

    // Fall-through addresses of call blocks (return landing pads).
    std::unordered_set<Addr> returnTargets;
    for (const BasicBlock &b : prog.blocks())
        if (b.terminator() == BranchKind::Call ||
            b.terminator() == BranchKind::IndirectCall)
            returnTargets.insert(b.fallThroughAddr());

    for (const BasicBlock &b : prog.blocks()) {
        switch (b.terminator()) {
        case BranchKind::None: {
            if (const BasicBlock *ft = prog.fallThroughOf(b))
                pf.graph.addEdge(b.id(), ft->id());
            break;
        }
        case BranchKind::CondDirect: {
            if (const BasicBlock *tk =
                    prog.blockAtAddr(b.takenTarget()))
                pf.graph.addEdge(b.id(), tk->id());
            if (const BasicBlock *ft = prog.fallThroughOf(b))
                pf.graph.addEdge(b.id(), ft->id());
            break;
        }
        case BranchKind::Jump:
        case BranchKind::Call: {
            if (const BasicBlock *tk =
                    prog.blockAtAddr(b.takenTarget()))
                pf.graph.addEdge(b.id(), tk->id());
            break;
        }
        case BranchKind::IndirectJump:
        case BranchKind::IndirectCall: {
            if (!prog.hasIndirectBehavior(b.id()))
                break;
            for (const BlockId t :
                 prog.indirectBehavior(b.id()).targets)
                if (t < n)
                    pf.graph.addEdge(b.id(), t);
            break;
        }
        case BranchKind::Return: {
            // Conservative: a return may land at any call's
            // fall-through (mirrors CfgOracle::legalEdge).
            for (const Addr addr : returnTargets)
                if (const BasicBlock *tb = prog.blockAtAddr(addr))
                    pf.graph.addEdge(b.id(), tb->id());
            break;
        }
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
