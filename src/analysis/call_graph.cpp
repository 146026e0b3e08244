#include "analysis/call_graph.hpp"

#include <algorithm>

namespace rsel {
namespace analysis {

namespace {

/**
 * Append the owning function of the block at `addr` to `out` (if any
 * block starts there). Target resolution mirrors the Executor: a
 * dynamic transfer lands at a block start; landing anywhere else is
 * a malformed program caught by the branch-targets verifier pass.
 */
void
addCalleeAt(const Program &prog, Addr addr, std::vector<FuncId> &out)
{
    if (const BasicBlock *tk = prog.blockAtAddr(addr))
        out.push_back(tk->func());
}

} // namespace

CallGraph
buildCallGraph(const ProgramFacts &pf)
{
    const Program &prog = *pf.prog;
    CallGraph cg;
    cg.prog = &prog;
    const std::uint32_t nFuncs =
        static_cast<std::uint32_t>(prog.functions().size());
    const std::uint32_t nBlocks =
        static_cast<std::uint32_t>(prog.blocks().size());
    cg.graph = DiGraph(nFuncs);
    cg.sitesOf.resize(nFuncs);
    cg.fanIn.assign(nFuncs, 0);
    cg.recursive.assign(nFuncs, 0);

    // Block-level natural-loop nesting depth: the number of loop
    // bodies (in the caller CFG, conservative return edges included)
    // a block belongs to.
    cg.blockLoopDepth.assign(nBlocks, 0);
    for (const NaturalLoop &loop : pf.cfg.loops)
        for (const std::uint32_t node : loop.body)
            if (node < nBlocks)
                ++cg.blockLoopDepth[node];

    if (nBlocks != 0 && prog.entry() < nBlocks)
        cg.entryFunc = prog.block(prog.entry()).func();

    // One CallSite per call terminator, in block-id order.
    for (const BasicBlock &b : prog.blocks()) {
        const BranchKind kind = b.terminator();
        if (kind != BranchKind::Call && kind != BranchKind::IndirectCall)
            continue;
        CallSite site;
        site.block = b.id();
        site.caller = b.func();
        site.loopDepth = cg.blockLoopDepth[b.id()];
        // The return landing pad: fallThroughOf excludes calls
        // (canFallThrough is about *un-taken* control flow), so
        // resolve the address directly, like the executor's step
        // records do.
        if (const BasicBlock *ft =
                prog.blockAtAddr(b.fallThroughAddr()))
            if (ft->func() == b.func())
                site.returnBlock = ft->id();
        if (kind == BranchKind::Call) {
            addCalleeAt(prog, b.takenTarget(), site.callees);
        } else if (prog.hasIndirectBehavior(b.id())) {
            for (const BlockId t : prog.indirectBehavior(b.id()).targets)
                if (t < nBlocks)
                    site.callees.push_back(prog.block(t).func());
        }
        std::sort(site.callees.begin(), site.callees.end());
        site.callees.erase(
            std::unique(site.callees.begin(), site.callees.end()),
            site.callees.end());
        const std::uint32_t idx =
            static_cast<std::uint32_t>(cg.sites.size());
        if (site.caller < nFuncs)
            cg.sitesOf[site.caller].push_back(idx);
        cg.sites.push_back(std::move(site));
    }

    // Edges + per-function fan-in.
    for (const CallSite &site : cg.sites) {
        if (site.caller >= nFuncs)
            continue;
        for (const FuncId callee : site.callees) {
            if (callee >= nFuncs)
                continue;
            cg.graph.addEdge(site.caller, callee);
            ++cg.fanIn[callee];
        }
    }

    // Condensation facts. CfgFacts computes SCCs over *all* nodes,
    // so call-unreachable functions still get components and an
    // order slot.
    const std::uint32_t root =
        cg.entryFunc < nFuncs ? cg.entryFunc : invalidNode;
    cg.cfg = CfgFacts::compute(cg.graph, root);

    for (FuncId f = 0; f < nFuncs; ++f)
        cg.recursive[f] = cg.cfg.sccIsCycle[cg.cfg.sccId[f]];

    // Bottom-up order: ascending Tarjan completion id is reverse
    // topological over the condensation (callees complete first);
    // ties inside one SCC break by FuncId for determinism.
    cg.bottomUp.resize(nFuncs);
    for (FuncId f = 0; f < nFuncs; ++f)
        cg.bottomUp[f] = f;
    std::sort(cg.bottomUp.begin(), cg.bottomUp.end(),
              [&cg](FuncId a, FuncId b) {
                  if (cg.cfg.sccId[a] != cg.cfg.sccId[b])
                      return cg.cfg.sccId[a] < cg.cfg.sccId[b];
                  return a < b;
              });
    return cg;
}

} // namespace analysis
} // namespace rsel
