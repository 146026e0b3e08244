#include "testing/inter_check.hpp"

#include <algorithm>
#include <unordered_map>

#include "dynopt/dynopt_system.hpp"
#include "program/executor.hpp"
#include "testing/random_program.hpp"

namespace rsel {
namespace testing {

namespace {

/** Small dense bitset over FuncIds. */
class FuncSet
{
  public:
    explicit FuncSet(std::uint32_t width)
        : words_((width + 63u) / 64u, 0)
    {
    }

    void set(FuncId f) { words_[f / 64u] |= 1ull << (f % 64u); }

    bool test(FuncId f) const
    {
        return (words_[f / 64u] >> (f % 64u)) & 1u;
    }

    std::uint32_t count() const
    {
        std::uint32_t n = 0;
        for (const std::uint64_t w : words_)
            n += static_cast<std::uint32_t>(__builtin_popcountll(w));
        return n;
    }

  private:
    std::vector<std::uint64_t> words_;
};

/**
 * Counting sink: reconstructs dynamic call behaviour with a shadow
 * call stack of call-site indices. The stream is produced by a fresh
 * Executor, so the shadow stack mirrors the executor's own stack
 * exactly — any disagreement is a violated claim, not noise.
 */
class CallCountSink : public ExecutionSink
{
  public:
    CallCountSink(const Program &prog, const analysis::CallGraph &cg,
                  InterValidation &val)
        : cg_(cg), val_(val),
          called_(static_cast<std::uint32_t>(prog.functions().size())),
          observed_(cg.sites.size(),
                    FuncSet(static_cast<std::uint32_t>(
                        prog.functions().size())))
    {
        for (std::uint32_t i = 0;
             i < static_cast<std::uint32_t>(cg.sites.size()); ++i)
            siteOfBlock_.emplace(cg.sites[i].block, i);
        val_.siteCalls.assign(cg_.sites.size(), 0);
    }

    bool onEvent(const ExecEvent &event) override
    {
        ++val_.streamEvents;
        const BasicBlock *prev = prev_;
        prev_ = event.block;
        if (prev == nullptr || !event.takenBranch)
            return true;
        const BranchKind kind = prev->terminator();
        if (kind == BranchKind::Call ||
            kind == BranchKind::IndirectCall)
            onCall(*prev, *event.block);
        else if (kind == BranchKind::Return)
            onReturn(*event.block);
        // Keep replaying after a violation: the first error is what
        // gets reported, and the totals stay comparable.
        return true;
    }

    const FuncSet &calledFuncs() const { return called_; }

    const FuncSet &observedAt(std::uint32_t site) const
    {
        return observed_[site];
    }

    std::size_t shadowDepth() const { return shadow_.size(); }

  private:
    void
    onCall(const BasicBlock &caller, const BasicBlock &landing)
    {
        const auto it = siteOfBlock_.find(caller.id());
        if (it == siteOfBlock_.end()) {
            fail("call transfer from block " +
                 std::to_string(caller.id()) +
                 " has no call site in the call graph");
            return;
        }
        const std::uint32_t site = it->second;
        ++val_.callTransfers;
        ++val_.siteCalls[site];
        const FuncId callee = landing.func();
        const std::vector<FuncId> &callees =
            cg_.sites[site].callees;
        if (!std::binary_search(callees.begin(), callees.end(),
                                callee))
            fail("call at block " + std::to_string(caller.id()) +
                 " landed in function " + std::to_string(callee) +
                 ", outside its static callee set");
        called_.set(callee);
        observed_[site].set(callee);
        shadow_.push_back(site);
        val_.maxDynamicDepth =
            std::max<std::uint64_t>(val_.maxDynamicDepth,
                                    shadow_.size());
    }

    void
    onReturn(const BasicBlock &landing)
    {
        ++val_.returnTransfers;
        if (shadow_.empty()) {
            fail("return delivered with an empty call stack");
            return;
        }
        const std::uint32_t site = shadow_.back();
        shadow_.pop_back();
        if (landing.id() != cg_.sites[site].returnBlock)
            fail("return landed at block " +
                 std::to_string(landing.id()) +
                 ", not the fall-through block " +
                 std::to_string(cg_.sites[site].returnBlock) +
                 " of the call at block " +
                 std::to_string(cg_.sites[site].block));
    }

    void
    fail(const std::string &msg)
    {
        if (val_.error.empty())
            val_.error = "interprocedural: " + msg;
    }

    const analysis::CallGraph &cg_;
    InterValidation &val_;
    const BasicBlock *prev_ = nullptr;
    std::vector<std::uint32_t> shadow_;
    std::unordered_map<BlockId, std::uint32_t> siteOfBlock_;
    FuncSet called_;
    std::vector<FuncSet> observed_;
};

} // namespace

InterValidation
validateInterprocedural(const Program &prog, std::uint64_t events,
                        std::uint64_t seed)
{
    InterValidation val;
    const analysis::InterFacts inf =
        analysis::buildInterFacts(analysis::buildProgramFacts(prog));
    const analysis::CallGraph &cg = inf.callGraph;

    // Replay the deterministic stream once, counting.
    CallCountSink sink(prog, cg, val);
    Executor exec(prog, seed);
    exec.run(events, sink);
    val.dynCalledFuncs = sink.calledFuncs().count();

    // Per-site bound chain: observed-callee mass <= static callee
    // mass <= duplication-growth bound, over executed sites.
    const std::uint32_t nFuncs =
        static_cast<std::uint32_t>(prog.functions().size());
    for (std::uint32_t s = 0;
         s < static_cast<std::uint32_t>(cg.sites.size()); ++s) {
        if (val.siteCalls[s] == 0)
            continue;
        ++val.sitesExecuted;
        std::uint64_t observed = 0, stat = 0;
        for (FuncId g = 0; g < nFuncs; ++g)
            if (sink.observedAt(s).test(g))
                observed += inf.summaries[g].insts;
        for (const FuncId g : cg.sites[s].callees)
            if (g < nFuncs)
                stat += inf.summaries[g].insts;
        const std::uint64_t bound = inf.closureInstsOf(cg.sites[s]);
        val.observedCalleeInsts += observed;
        val.staticCalleeInsts += stat;
        val.dupGrowthBoundInsts += bound;
        if (val.error.empty() && observed > stat)
            val.error = "interprocedural: site at block " +
                        std::to_string(cg.sites[s].block) +
                        ": observed callee mass " +
                        std::to_string(observed) +
                        " exceeds static callee mass " +
                        std::to_string(stat);
        if (val.error.empty() && stat > bound)
            val.error = "interprocedural: site at block " +
                        std::to_string(cg.sites[s].block) +
                        ": static callee mass " +
                        std::to_string(stat) +
                        " exceeds duplication bound " +
                        std::to_string(bound);
    }

    // Cross-tie: the stream is selector-independent, so every
    // shipped selector must have consumed exactly the counted
    // number of events in an unbounded, fault-free run.
    for (const Algorithm algo : allSelectors) {
        SimOptions opts;
        opts.maxEvents = events;
        opts.seed = seed;
        const std::uint64_t consumed =
            simulate(prog, algo, opts).events;
        if (val.error.empty() && consumed != val.streamEvents)
            val.error = "interprocedural: selector " +
                        algorithmName(algo) + " consumed " +
                        std::to_string(consumed) +
                        " events, counting replay delivered " +
                        std::to_string(val.streamEvents);
    }
    return val;
}

std::string
checkSpecInterprocedural(const GenSpec &spec)
{
    try {
        const Program prog = generateProgram(spec);
        return validateInterprocedural(prog, spec.events,
                                       spec.execSeed)
            .error;
    } catch (const std::exception &e) {
        return std::string("interprocedural: harness fault: ") +
               e.what();
    }
}

} // namespace testing
} // namespace rsel
