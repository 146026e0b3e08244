#include "analysis/program_verifier.hpp"

#include <unordered_set>

#include "analysis/call_graph.hpp"

namespace rsel {
namespace analysis {

namespace {

std::string
blockObject(const BasicBlock &b)
{
    return "block " + std::to_string(b.id());
}

void
checkBranchTargets(const ProgramFacts &pf, DiagnosticEngine &diag)
{
    const Program &prog = *pf.prog;
    const std::uint32_t n =
        static_cast<std::uint32_t>(prog.blocks().size());
    for (const BasicBlock &b : prog.blocks()) {
        switch (b.terminator()) {
        case BranchKind::CondDirect:
        case BranchKind::Jump:
        case BranchKind::Call:
            if (prog.blockAtAddr(b.takenTarget()) == nullptr)
                diag.error("branch-targets", blockObject(b),
                           "taken target " +
                               std::to_string(b.takenTarget()) +
                               " is not a block start");
            break;
        case BranchKind::IndirectJump:
        case BranchKind::IndirectCall:
            if (!prog.hasIndirectBehavior(b.id()))
                break; // reported by the behaviors pass
            for (const BlockId t :
                 prog.indirectBehavior(b.id()).targets)
                if (t >= n)
                    diag.error("branch-targets", blockObject(b),
                               "indirect target id " +
                                   std::to_string(t) +
                                   " is out of range");
            break;
        default:
            break;
        }
    }
}

void
checkFallthrough(const ProgramFacts &pf, DiagnosticEngine &diag)
{
    const Program &prog = *pf.prog;
    for (const BasicBlock &b : prog.blocks()) {
        if (!canFallThrough(b.terminator()))
            continue;
        if (prog.fallThroughOf(b) == nullptr)
            diag.error("fallthrough", blockObject(b),
                       "fall-through address " +
                           std::to_string(b.fallThroughAddr()) +
                           " is not a block start");
    }
}

void
checkBehaviors(const ProgramFacts &pf, DiagnosticEngine &diag)
{
    const Program &prog = *pf.prog;
    for (const BasicBlock &b : prog.blocks()) {
        if (b.terminator() == BranchKind::CondDirect) {
            if (!prog.hasCondBehavior(b.id())) {
                diag.error("behaviors", blockObject(b),
                           "conditional block has no behaviour "
                           "annotation");
                continue;
            }
            const CondView cb = prog.condBehavior(b.id());
            if (cb.kind == CondBehavior::Kind::Bernoulli &&
                cb.takenProbByPhase.empty())
                diag.error("behaviors", blockObject(b),
                           "Bernoulli branch has no per-phase "
                           "probabilities");
            if (cb.kind == CondBehavior::Kind::Loop &&
                (cb.tripMin < 1 || cb.tripMax < cb.tripMin))
                diag.error("behaviors", blockObject(b),
                           "loop latch has an empty trip range");
        } else if (b.terminator() == BranchKind::IndirectJump ||
                   b.terminator() == BranchKind::IndirectCall) {
            // Not isIndirect(): that also covers Return, which is
            // resolved through the call stack and has no annotation.
            if (!prog.hasIndirectBehavior(b.id())) {
                diag.error("behaviors", blockObject(b),
                           "indirect block has no behaviour "
                           "annotation");
                continue;
            }
            const IndirectView ib = prog.indirectBehavior(b.id());
            if (ib.targets.empty()) {
                diag.error("behaviors", blockObject(b),
                           "indirect block declares no targets");
                continue;
            }
            if (ib.weights.empty())
                diag.error("behaviors", blockObject(b),
                           "indirect block has no per-phase weights");
            if (ib.weights.size() % ib.targets.size() != 0)
                diag.error("behaviors", blockObject(b),
                           "weight vector size does not match "
                           "the target count");
        }
    }
}

void
checkEntry(const ProgramFacts &pf, DiagnosticEngine &diag)
{
    const Program &prog = *pf.prog;
    if (prog.blocks().empty()) {
        diag.error("entry", "program", "program has no blocks");
        return;
    }
    if (prog.entry() >= prog.blocks().size()) {
        diag.error("entry", "program",
                   "entry block id " + std::to_string(prog.entry()) +
                       " is out of range");
        return;
    }
    for (const Function &f : pf.prog->functions())
        if (f.entry == prog.entry())
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
            if (id < pf.cfg.reachable.size() &&
                pf.cfg.reachable[id]) {
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
checkCallGraphConsistency(const ProgramFacts &pf,
                          DiagnosticEngine &diag)
{
    const Program &prog = *pf.prog;
    const std::uint32_t n =
        static_cast<std::uint32_t>(prog.blocks().size());
    std::unordered_set<BlockId> entries;
    for (const Function &f : prog.functions())
        entries.insert(f.entry);

    for (const BasicBlock &b : prog.blocks()) {
        const BranchKind kind = b.terminator();
        if (kind != BranchKind::Call && kind != BranchKind::IndirectCall)
            continue;
        if (kind == BranchKind::Call) {
            // Unresolvable targets are branch-targets material; here
            // the target resolves but is mid-function.
            if (const BasicBlock *tk = prog.blockAtAddr(b.takenTarget()))
                if (entries.count(tk->id()) == 0)
                    diag.error("call-graph-consistency", blockObject(b),
                               "call target block " +
                                   std::to_string(tk->id()) +
                                   " is not a function entry");
        } else if (prog.hasIndirectBehavior(b.id())) {
            for (const BlockId t : prog.indirectBehavior(b.id()).targets)
                if (t < n && entries.count(t) == 0)
                    diag.error("call-graph-consistency", blockObject(b),
                               "indirect call declares non-entry "
                               "target block " +
                                   std::to_string(t));
        }
        // The return edge of the site: the matching Return lands at
        // the call's fall-through, which must be the caller's own
        // layout successor (ProgramBuilder enforces contiguity; a
        // hand-built program can violate it). fallThroughOf excludes
        // calls — it models un-taken control flow — so resolve the
        // address directly, like the executor's step records do.
        const BasicBlock *ft = prog.blockAtAddr(b.fallThroughAddr());
        if (ft == nullptr)
            diag.error("call-graph-consistency", blockObject(b),
                       "call has no return landing pad at "
                       "fall-through address " +
                           std::to_string(b.fallThroughAddr()));
        else if (ft->func() != b.func())
            diag.error("call-graph-consistency", blockObject(b),
                       "return edge lands in function " +
                           std::to_string(ft->func()) +
                           ", not the calling function " +
                           std::to_string(b.func()));
    }
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
    const ProgramFacts pf = buildProgramFacts(prog);
    checkEntry(pf, diag);
    if (prog.blocks().empty() ||
        prog.entry() >= prog.blocks().size())
        return; // the remaining passes assume a rooted CFG
    checkBranchTargets(pf, diag);
    checkFallthrough(pf, diag);
    checkBehaviors(pf, diag);
    checkCallGraphConsistency(pf, diag);
    lintUnreachable(pf, diag);
    lintDeadFunctions(pf, diag);
    lintNoExitSccs(pf, diag);
    lintInterproceduralReachability(buildCallGraph(prog), diag);
}

} // namespace analysis
} // namespace rsel
