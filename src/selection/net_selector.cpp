#include "selection/net_selector.hpp"

#include <algorithm>

#include "program/program.hpp"
#include "runtime/code_cache.hpp"
#include "support/error.hpp"

namespace rsel {

NetSelector::NetSelector(const Program &prog, const CodeCache &cache,
                         NetConfig cfg)
    : prog_(prog), cache_(cache), cfg_(cfg),
      counters_(prog.blocks().size())
{
    RSEL_ASSERT(cfg_.hotThreshold >= 1, "hot threshold must be >= 1");
    RSEL_ASSERT(cfg_.maxTraceInsts >= 1, "size limit must be >= 1");
    if (cfg_.combine) {
        RSEL_ASSERT(cfg_.hotThreshold > cfg_.profWindow,
                    "combining needs hotThreshold > profWindow so the "
                    "start threshold stays positive");
        store_ = std::make_unique<ObservedTraceStore>(cfg_.profWindow,
                                                      cfg_.minOccur);
    }
}

std::uint32_t
NetSelector::triggerThreshold(bool fromCacheExit) const
{
    std::uint32_t base = cfg_.hotThreshold;
    if (fromCacheExit && cfg_.exitThreshold != 0)
        base = cfg_.exitThreshold; // Mojo's lower exit threshold
    if (!cfg_.combine)
        return base;
    return base > cfg_.profWindow ? base - cfg_.profWindow : 1;
}

std::string
NetSelector::name() const
{
    const std::string base =
        cfg_.exitThreshold != 0 ? "Mojo" : "NET";
    return cfg_.combine ? base + "+comb" : base;
}

std::uint64_t
NetSelector::peakObservedTraceBytes() const
{
    return store_ ? store_->peakBytes() : 0;
}

std::uint64_t
NetSelector::markSweepRegions() const
{
    return store_ ? store_->sweepRegions() : 0;
}

std::uint64_t
NetSelector::markSweepMultiIterRegions() const
{
    return store_ ? store_->multiIterRegions() : 0;
}

void
NetSelector::startRecording(const BasicBlock &head)
{
    recording_ = true;
    recordPath_.clear();
    recordPath_.push_back(&head);
    recordInsts_ = head.instCount();
}

std::optional<RegionSpec>
NetSelector::finalizeRecording()
{
    recording_ = false;
    RSEL_ASSERT(!recordPath_.empty(), "recording cannot be empty");
    const BasicBlock &head = *recordPath_.front();

    if (!cfg_.combine) {
        RegionSpec spec;
        spec.kind = Region::Kind::Trace;
        spec.blocks = recordPath_; // a copy: the scratch stays sized
        recordPath_.clear();
        return spec;
    }

    // Combination mode: this recording is one observed trace.
    const bool windowFull =
        store_->store(head.startAddr(), recordPath_);
    recordPath_.clear();
    if (!windowFull)
        return std::nullopt;
    counters_.erase(head.id()); // recycled at T_start + T_prof (Fig. 13)
    return store_->combine(prog_, head.startAddr());
}

void
NetSelector::profile(const SelectorEvent &ev)
{
    // Only targets of taken backward branches and of code-cache
    // exits are allowed to begin a region (Section 2.1).
    if (!ev.viaTaken)
        return;
    const bool backward = ev.block->startAddr() <= ev.branchAddr;
    if (!backward && !ev.fromCacheExit)
        return;

    // Counters are keyed by the target's start address, which its
    // block id names one to one.
    Counter &counter = counters_.bump(ev.block->id());
    const std::uint32_t eventTrigger =
        triggerThreshold(ev.fromCacheExit);
    if (counter.trigger == 0)
        counter.trigger = eventTrigger;
    else
        counter.trigger = std::min(counter.trigger, eventTrigger);

    if (recording_ || counter.count < counter.trigger)
        return;

    if (!cfg_.combine) {
        // Counter recycled once the trace forms.
        counters_.erase(ev.block->id());
        startRecording(*ev.block);
        return;
    }
    // Combination: record one observed trace per trigger; the
    // recording that fills the profiling window combines it and
    // releases it (and recycles the counter) in the same call, so
    // no window is ever full here.
    startRecording(*ev.block);
}

std::optional<RegionSpec>
NetSelector::onInterpreted(const SelectorEvent &ev)
{
    std::optional<RegionSpec> result;

    if (recording_) {
        // A taken backward branch (target at or below the branch)
        // ends the trace *after* the branch's block; the size limit
        // ends it before the block that would overflow.
        const bool backwardTaken =
            ev.viaTaken && ev.block->startAddr() <= ev.branchAddr;
        const bool overflow =
            recordInsts_ + ev.block->instCount() > cfg_.maxTraceInsts;
        if (backwardTaken || overflow) {
            result = finalizeRecording();
        } else {
            recordPath_.push_back(ev.block);
            recordInsts_ += ev.block->instCount();
            return std::nullopt;
        }
    }

    // If the region just completed begins at this very block, the
    // driver will jump into it; profiling the same execution again
    // would double-count it.
    if (result && !result->blocks.empty() &&
        result->blocks.front()->id() == ev.block->id()) {
        return result;
    }

    profile(ev);
    return result;
}

std::optional<RegionSpec>
NetSelector::onCacheEnter(const BasicBlock &entry)
{
    (void)entry;
    // A taken branch that targets the start of another region ends
    // the trace being recorded (Section 2.1).
    if (recording_)
        return finalizeRecording();
    return std::nullopt;
}

void
NetSelector::onCacheDisruption(CacheDisruption kind)
{
    // Any disruption aborts the in-flight recording (the recorded
    // prefix may lead into a dropped translation) and releases the
    // stored observations; a full reset also forgets hotness.
    recording_ = false;
    recordPath_.clear();
    recordInsts_ = 0;
    if (store_)
        store_->clear();
    if (kind == CacheDisruption::Reset)
        counters_.clear();
}

} // namespace rsel
