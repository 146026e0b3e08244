#include "analysis/program_verifier.hpp"

#include "analysis/call_graph.hpp"
#include "support/error.hpp"

namespace rsel {
namespace analysis {

namespace {

std::string
blockObject(const BasicBlock &b)
{
    return "block " + std::to_string(b.id());
}

void
lintEntry(const ProgramFacts &pf, DiagnosticEngine &diag)
{
    for (const Function &f : pf.prog->functions())
        if (f.entry == pf.prog->entry())
            return;
    diag.warning("entry", "program",
                 "entry block does not start any function");
}

void
lintUnreachable(const ProgramFacts &pf, DiagnosticEngine &diag)
{
    constexpr std::size_t maxListed = 10;
    std::size_t unreachable = 0;
    for (const BasicBlock &b : pf.prog->blocks()) {
        if (pf.cfg.reachable[b.id()])
            continue;
        ++unreachable;
        if (unreachable <= maxListed)
            diag.warning("unreachable-code", blockObject(b),
                         "no possible path from the program entry "
                         "reaches this block");
    }
    if (unreachable > maxListed)
        diag.warning("unreachable-code", "program",
                     std::to_string(unreachable - maxListed) +
                         " further unreachable blocks not listed");
}

void
lintDeadFunctions(const ProgramFacts &pf, DiagnosticEngine &diag)
{
    for (const Function &f : pf.prog->functions()) {
        bool live = false;
        for (BlockId id = f.firstBlock; id < f.lastBlock; ++id)
            if (pf.cfg.reachable[id]) {
                live = true;
                break;
            }
        if (!live)
            diag.warning("dead-function", "function " + f.name,
                         "no block of this function is reachable");
    }
}

void
lintNoExitSccs(const ProgramFacts &pf, DiagnosticEngine &diag)
{
    const Program &prog = *pf.prog;
    // A reachable, cyclic component with no leaving edge and no Halt
    // terminator can never hand control back: a static livelock.
    std::vector<std::uint8_t> bad(pf.cfg.sccCount, 0);
    std::vector<std::uint32_t> witness(pf.cfg.sccCount, invalidNode);
    for (std::uint32_t id = 0; id < pf.cfg.sccCount; ++id)
        bad[id] = pf.cfg.sccIsCycle[id] && !pf.cfg.sccHasExit[id];
    for (const BasicBlock &b : prog.blocks()) {
        const std::uint32_t id = pf.cfg.sccId[b.id()];
        if (!bad[id])
            continue;
        if (!pf.cfg.reachable[b.id()] ||
            b.terminator() == BranchKind::Halt)
            bad[id] = 0;
        else if (witness[id] == invalidNode)
            witness[id] = b.id();
    }
    for (std::uint32_t id = 0; id < pf.cfg.sccCount; ++id)
        if (bad[id] && witness[id] != invalidNode)
            diag.warning("no-exit-scc",
                         "scc containing block " +
                             std::to_string(witness[id]),
                         "reachable cycle with no exit edge and no "
                         "halt: the program cannot terminate");
}

void
lintInterproceduralReachability(const CallGraph &cg,
                                DiagnosticEngine &diag)
{
    const Program &prog = *cg.prog;
    for (FuncId f = 0;
         f < static_cast<FuncId>(prog.functions().size()); ++f) {
        if (f == cg.entryFunc || cg.callReachable(f))
            continue;
        diag.warning("interprocedural-reachability",
                     "function " + prog.function(f).name,
                     "not reachable from the entry function through "
                     "call edges (may still be entered through "
                     "indirect jumps)");
    }
}

} // namespace

void
ProgramVerifier::run(const Program &prog, DiagnosticEngine &diag)
{
    RSEL_ASSERT(prog.entry() < prog.blocks().size(),
                "ProgramVerifier::run needs a Program from "
                "ProgramBuilder::build()");
    const ProgramFacts pf = buildProgramFacts(prog);
    lintEntry(pf, diag);
    lintUnreachable(pf, diag);
    lintDeadFunctions(pf, diag);
    lintNoExitSccs(pf, diag);
    lintInterproceduralReachability(buildCallGraph(prog), diag);
}

} // namespace analysis
} // namespace rsel
