#include "selection/boa_selector.hpp"

#include "program/program.hpp"
#include "runtime/code_cache.hpp"
#include "support/error.hpp"

namespace rsel {

BoaSelector::BoaSelector(const Program &prog, const CodeCache &cache,
                         BoaConfig cfg)
    : prog_(prog), cache_(cache), cfg_(cfg),
      counters_(prog.blocks().size()), member_(prog.blocks().size())
{
    RSEL_ASSERT(cfg_.hotThreshold >= 1, "hot threshold must be >= 1");
    RSEL_ASSERT(cfg_.maxTraceInsts >= 1, "size limit must be >= 1");
}

std::optional<RegionSpec>
BoaSelector::onInterpreted(const SelectorEvent &ev)
{
    profile_.record(ev);

    // Entry-point eligibility mirrors the framework's (Section 2.1):
    // targets of taken backward branches and of code-cache exits.
    if (!ev.viaTaken)
        return std::nullopt;
    const bool backward = ev.block->startAddr() <= ev.branchAddr;
    if (!backward && !ev.fromCacheExit)
        return std::nullopt;

    if (counters_.bump(ev.block->id()).count < cfg_.hotThreshold)
        return std::nullopt;

    counters_.erase(ev.block->id());
    formMostLikelyPath(prog_, cache_, profile_, *ev.block,
                       cfg_.maxTraceInsts, path_, member_);
    RSEL_ASSERT(!path_.empty(), "BOA trace must contain its entry");

    RegionSpec spec;
    spec.kind = Region::Kind::Trace;
    spec.blocks = path_; // a copy: the scratch stays sized
    return spec;
}

} // namespace rsel
