#include "analysis/inter_facts.hpp"

#include <algorithm>

namespace rsel {
namespace analysis {

namespace {

using FuncSet = std::vector<bool>;

/** Add every function of `from` to `into`. */
void
unite(FuncSet &into, const FuncSet &from)
{
    for (FuncId g = 0; g < into.size(); ++g)
        if (from[g])
            into[g] = true;
}

/** Instruction mass of the functions in `funcs`. */
std::uint64_t
instsOf(const std::vector<FuncSummary> &summaries, const FuncSet &funcs)
{
    std::uint64_t insts = 0;
    for (FuncId g = 0; g < summaries.size(); ++g)
        if (funcs[g])
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

    // Local facts, per function.
    for (FuncId f = 0; f < nFuncs; ++f) {
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

    // Transitive closure over calls, one SCC at a time in bottom-up
    // order (its members are adjacent there): the SCC's members plus
    // the closures of its callees outside it, which are final
    // because callee SCCs come first.
    inf.closure.assign(nFuncs, FuncSet(nFuncs, false));
    for (std::size_t begin = 0, end = 0; begin < nFuncs; begin = end) {
        const std::uint32_t scc = cg.cfg.sccId[cg.bottomUp[begin]];
        FuncSet reach(nFuncs, false);
        for (end = begin;
             end < nFuncs && cg.cfg.sccId[cg.bottomUp[end]] == scc;
             ++end) {
            const FuncId f = cg.bottomUp[end];
            reach[f] = true;
            for (const std::uint32_t g : cg.graph.succs(f))
                if (cg.cfg.sccId[g] != scc)
                    unite(reach, inf.closure[g]);
        }
        for (std::size_t i = begin; i < end; ++i)
            inf.closure[cg.bottomUp[i]] = reach;
    }

    for (FuncId f = 0; f < nFuncs; ++f) {
        FuncSummary &s = inf.summaries[f];
        s.closureFuncs = static_cast<std::uint32_t>(std::count(
            inf.closure[f].begin(), inf.closure[f].end(), true));
        s.closureInsts = instsOf(inf.summaries, inf.closure[f]);
    }
    return inf;
}

std::uint64_t
InterFacts::closureInstsOf(const CallSite &site) const
{
    FuncSet reach(summaries.size(), false);
    for (const FuncId callee : site.callees)
        if (callee < closure.size())
            unite(reach, closure[callee]);
    return instsOf(summaries, reach);
}

} // namespace analysis
} // namespace rsel
