#include "selection/lei_selector.hpp"

#include "program/program.hpp"
#include "runtime/code_cache.hpp"
#include "support/error.hpp"

namespace rsel {

LeiSelector::LeiSelector(const Program &prog, const CodeCache &cache,
                         LeiConfig cfg)
    : prog_(prog), cache_(cache), cfg_(cfg),
      // Every hashed target is a block start (onInterpreted), so the
      // block count bounds the distinct targets.
      buffer_(cfg.bufferCapacity, prog.blocks().size()),
      counters_(prog.blocks().size()), member_(prog.blocks().size())
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

std::string
LeiSelector::name() const
{
    return cfg_.combine ? "LEI+comb" : "LEI";
}

std::uint64_t
LeiSelector::peakObservedTraceBytes() const
{
    return store_ ? store_->peakBytes() : 0;
}

std::uint64_t
LeiSelector::markSweepRegions() const
{
    return store_ ? store_->sweepRegions() : 0;
}

std::uint64_t
LeiSelector::markSweepMultiIterRegions() const
{
    return store_ ? store_->multiIterRegions() : 0;
}

void
LeiSelector::formTrace(Addr start, std::uint64_t oldSeq)
{
    path_.clear();
    member_.clear();
    std::uint64_t instCount = 0;
    Addr prev = start;

    for (std::uint64_t seq = oldSeq + 1; seq <= buffer_.lastSeq();
         ++seq) {
        const HistoryBuffer::Entry &branch = buffer_.at(seq);

        // Append the fall-through run from `prev` up to and
        // including the block that ends with this recorded branch.
        const BasicBlock *b = prog_.blockAtAddr(prev);
        while (b != nullptr) {
            // Stop if the next instruction begins an existing
            // region (avoids duplicating nested cycles, even on a
            // fall-through path — Section 3.1).
            if (cache_.lookupEntry(b->id()) != nullptr)
                return;
            if (member_.contains(b->id()))
                return; // re-entered the path: stop cleanly
            // The entry block is always included, even when it alone
            // exceeds the size limit.
            if (!path_.empty() &&
                instCount + b->instCount() > cfg_.maxTraceInsts)
                return;
            path_.push_back(b);
            member_.insert(b->id());
            instCount += b->instCount();
            if (b->lastInstAddr() == branch.src)
                break;
            // Consistency guard: between two recorded taken branches
            // execution fell through, so only fall-through-capable
            // blocks may appear. Hitting an unconditional terminator
            // means the history is not contiguous here — branches
            // executed inside the code cache are never recorded — so
            // the trace ends with the well-formed prefix.
            if (!canFallThrough(b->terminator()))
                return;
            b = prog_.fallThroughOf(*b);
        }
        if (b == nullptr) {
            // The buffer window no longer describes a contiguous
            // path (possible after heavy truncation); stop with
            // what was reconstructed.
            return;
        }

        // Stop once the recorded branch completes a cycle.
        const BasicBlock *tgtBlock = prog_.blockAtAddr(branch.tgt);
        if (tgtBlock != nullptr && member_.contains(tgtBlock->id()))
            return;
        prev = branch.tgt;
    }
}

void
LeiSelector::onCacheDisruption(CacheDisruption kind)
{
    // The history buffer describes paths that may run through
    // dropped translations (fromCacheExit anchors in particular);
    // any disruption clears it, and the stored observations with it.
    // A full reset also forgets cycle hotness.
    buffer_.clear();
    if (store_)
        store_->clear();
    if (kind == CacheDisruption::Reset)
        counters_.clear();
}

std::optional<RegionSpec>
LeiSelector::onInterpreted(const SelectorEvent &ev)
{
    // Only interpreted taken branches enter the history buffer
    // (Figure 5 is invoked per interpreted taken branch).
    if (!ev.viaTaken)
        return std::nullopt;

    const Addr tgt = ev.block->startAddr();
    const Addr src = ev.branchAddr;

    // Figure 5 line 6: look for a previous occurrence of the target
    // before recording the new one.
    const std::optional<std::uint64_t> oldOpt = buffer_.find(tgt);
    bool oldFromCacheExit = false;
    if (oldOpt)
        oldFromCacheExit = buffer_.at(*oldOpt).fromCacheExit;

    HistoryBuffer::Entry entry;
    entry.src = src;
    entry.tgt = tgt;
    entry.fromCacheExit = ev.fromCacheExit;
    const std::uint64_t seq = buffer_.insert(entry);
    buffer_.setHashLocation(tgt, seq); // lines 8 / 17

    if (!oldOpt)
        return std::nullopt;
    const std::uint64_t oldSeq = *oldOpt;
    // The insert may have evicted the old occurrence itself. The
    // cycle body (the entries after `old`) can still be complete —
    // it is exactly when even the first body entry was evicted that
    // the cycle outgrew the buffer and cannot be reconstructed.
    const bool oldEvicted = !buffer_.inWindow(oldSeq);
    if (oldEvicted && !buffer_.inWindow(oldSeq + 1))
        return std::nullopt;

    // Figure 5 line 9: a trace may begin only at a loop header
    // (cycle closed by a backward branch) or where the code cache
    // was exited.
    const bool backward = tgt <= src;
    if (!backward && !oldFromCacheExit)
        return std::nullopt;

    // Counters are keyed by the target's start address, which its
    // block id names one to one.
    const BlockId head = ev.block->id();
    const std::uint32_t count = counters_.bump(head).count;
    const std::uint32_t trigger =
        cfg_.combine ? cfg_.hotThreshold - cfg_.profWindow
                     : cfg_.hotThreshold;
    if (count < trigger)
        return std::nullopt;

    formTrace(tgt, oldSeq);

    // Figure 5 line 13: drop the formed cycle from the buffer and
    // re-point the hash at the surviving occurrence. When the old
    // occurrence was evicted there is nothing to anchor to, so the
    // whole buffer goes.
    if (oldEvicted) {
        buffer_.clear();
    } else {
        buffer_.truncateAfter(oldSeq);
        buffer_.setHashLocation(tgt, oldSeq);
    }

    RSEL_ASSERT(!path_.empty(),
                "a triggered cycle must yield at least its entry");

    if (!cfg_.combine) {
        counters_.erase(head); // line 14: recycle the counter
        RegionSpec spec;
        spec.kind = Region::Kind::Trace;
        spec.blocks = path_; // a copy: the scratch stays sized
        return spec;
    }

    // Combination: store this cycle as one observed trace; combine
    // once the profiling window is full. A full window is combined
    // and released in the same call, so the store never holds one.
    const bool windowFull = store_->store(tgt, path_);
    if (!windowFull)
        return std::nullopt;
    counters_.erase(head);
    return store_->combine(prog_, tgt);
}

} // namespace rsel
