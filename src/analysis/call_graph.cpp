#include "analysis/call_graph.hpp"

#include <algorithm>

namespace rsel {
namespace analysis {

CallGraph
buildCallGraph(const Program &prog)
{
    CallGraph cg;
    cg.prog = &prog;
    const std::uint32_t nFuncs =
        static_cast<std::uint32_t>(prog.functions().size());
    cg.graph = DiGraph(nFuncs);
    cg.sitesOf.resize(nFuncs);
    cg.fanIn.assign(nFuncs, 0);
    cg.recursive.assign(nFuncs, 0);
    cg.entryFunc = prog.block(prog.entry()).func();

    // One CallSite per call terminator, in block-id order.
    for (const BasicBlock &b : prog.blocks()) {
        const BranchKind kind = b.terminator();
        if (kind != BranchKind::Call && kind != BranchKind::IndirectCall)
            continue;
        CallSite site;
        site.block = b.id();
        site.caller = b.func();
        // The return landing pad: the call's layout successor, which
        // ProgramBuilder::build() guarantees is in the same function.
        site.returnBlock = b.id() + 1;
        if (kind == BranchKind::Call) {
            site.callees.push_back(
                prog.blockAtAddr(b.takenTarget())->func());
        } else {
            for (const BlockId t : prog.indirectBehavior(b.id()).targets)
                site.callees.push_back(prog.block(t).func());
        }
        std::sort(site.callees.begin(), site.callees.end());
        site.callees.erase(
            std::unique(site.callees.begin(), site.callees.end()),
            site.callees.end());
        cg.sitesOf[site.caller].push_back(
            static_cast<std::uint32_t>(cg.sites.size()));
        cg.sites.push_back(std::move(site));
    }

    // Edges + per-function fan-in.
    for (const CallSite &site : cg.sites) {
        for (const FuncId callee : site.callees) {
            cg.graph.addEdge(site.caller, callee);
            ++cg.fanIn[callee];
        }
    }

    // Condensation facts. CfgFacts computes SCCs over *all* nodes,
    // so call-unreachable functions still get components and an
    // order slot.
    cg.cfg = CfgFacts::compute(cg.graph, cg.entryFunc);

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
