#include "selection/wrs_selector.hpp"

#include "program/program.hpp"
#include "runtime/code_cache.hpp"
#include "support/error.hpp"

namespace rsel {

WrsSelector::WrsSelector(const Program &prog, const CodeCache &cache,
                         WrsConfig cfg)
    : prog_(prog), cache_(cache), cfg_(cfg),
      samples_(prog.blocks().size()), member_(prog.blocks().size())
{
    RSEL_ASSERT(cfg_.samplePeriod >= 1, "sample period must be >= 1");
    RSEL_ASSERT(cfg_.hotSamples >= 1, "sample threshold must be >= 1");
    RSEL_ASSERT(cfg_.maxTraceInsts >= 1, "size limit must be >= 1");
}

std::optional<RegionSpec>
WrsSelector::onInterpreted(const SelectorEvent &ev)
{
    profile_.record(ev);

    // Periodic PC sampling: only every samplePeriod-th interpreted
    // block is observed at all — the low-overhead property the
    // paper attributes to this family.
    if (++tick_ % cfg_.samplePeriod != 0)
        return std::nullopt;

    // A cached region head can still be interpreted when entered by
    // fall-through; it must not seed a second region there.
    if (cache_.lookupEntry(ev.block->id()) != nullptr)
        return std::nullopt;

    if (samples_.bump(ev.block->id()).count < cfg_.hotSamples)
        return std::nullopt;

    samples_.erase(ev.block->id());
    formMostLikelyPath(prog_, cache_, profile_, *ev.block,
                       cfg_.maxTraceInsts, path_, member_);
    RSEL_ASSERT(!path_.empty(), "WRS trace must contain its entry");

    RegionSpec spec;
    spec.kind = Region::Kind::Trace;
    spec.blocks = path_; // a copy: the scratch stays sized
    return spec;
}

} // namespace rsel
