#include "analysis/inter_facts.hpp"

#include <algorithm>

namespace rsel {
namespace analysis {

namespace {

/** Instruction mass of the functions in `funcs`. */
std::uint64_t
instsOf(const std::vector<FuncSummary> &summaries,
        const BitsetLattice::Value &funcs)
{
    std::uint64_t insts = 0;
    for (FuncId g = 0; g < summaries.size(); ++g)
        if (BitsetLattice::testBit(funcs, g))
            insts += summaries[g].insts;
    return insts;
}

} // namespace

InterFacts
buildInterFacts(const ProgramFacts &pf)
{
    const Program &prog = *pf.prog;
    InterFacts inf;
    inf.callGraph = buildCallGraph(pf);
    const CallGraph &cg = inf.callGraph;
    const std::uint32_t nFuncs =
        static_cast<std::uint32_t>(prog.functions().size());
    inf.summaries.resize(nFuncs);

    // Local facts, in bottom-up order. The order is not needed for
    // correctness here (everything is per-function), but walking it
    // keeps the sweep aligned with how a summary consumer would run
    // and exercises the order on every build.
    for (const FuncId f : cg.bottomUp) {
        const Function &fn = prog.function(f);
        FuncSummary &s = inf.summaries[f];
        s.func = f;
        for (BlockId b = fn.firstBlock; b < fn.lastBlock; ++b) {
            const BasicBlock &bb = prog.block(b);
            ++s.blockCount;
            s.insts += bb.instCount();
            s.maxLoopDepth =
                std::max(s.maxLoopDepth, cg.blockLoopDepth[b]);
        }
        s.callSites =
            static_cast<std::uint32_t>(cg.sitesOf[f].size());
        s.fanIn = cg.fanIn[f];
        s.leaf = s.callSites == 0;
        s.recursive = cg.recursive[f] != 0;
    }

    // Transitive closure over calls: closure(f) = {f} ∪ ⋃ closure(g)
    // for call edges f -> g. Backward on the call graph (a node's
    // input is the meet over its successors' outputs) with the
    // powerset lattice; monotone, so the fixpoint is sound on
    // recursive SCCs.
    const BitsetLattice lattice(nFuncs);
    auto res = solveDataflow(
        cg.graph, cg.cfg, DataflowDirection::Backward, lattice,
        [](std::uint32_t node, BitsetLattice::Value in) {
            BitsetLattice::setBit(in, node);
            return in;
        });
    inf.dataflowTransfers = res.transfersRun;
    inf.converged = res.converged;
    inf.closure = std::move(res.out);

    for (FuncId f = 0; f < nFuncs; ++f) {
        FuncSummary &s = inf.summaries[f];
        s.closureFuncs = BitsetLattice::countBits(inf.closure[f]);
        s.closureInsts = instsOf(inf.summaries, inf.closure[f]);
    }
    return inf;
}

std::uint64_t
InterFacts::closureInstsOf(const CallSite &site) const
{
    const BitsetLattice lattice(
        static_cast<std::uint32_t>(summaries.size()));
    BitsetLattice::Value reach = lattice.bottom();
    for (const FuncId callee : site.callees)
        if (callee < closure.size())
            lattice.meetInto(reach, closure[callee]);
    return instsOf(summaries, reach);
}

} // namespace analysis
} // namespace rsel
