#include "metrics/metrics_collector.hpp"

#include <algorithm>
#include <bit>

#include "metrics/region_quality.hpp"
#include "program/program.hpp"
#include "runtime/code_cache.hpp"
#include "support/error.hpp"

namespace rsel {

std::size_t
MetricsCollector::filterSlots(std::size_t blockCount)
{
    return std::clamp(std::bit_ceil(8 * blockCount), minFilterSlots,
                      maxFilterSlots);
}

MetricsCollector::MetricsCollector(std::size_t blockCount)
    : edgeSeen_(filterSlots(blockCount), 0),
      linkSeen_(edgeSeen_.size(), 0),
      filterShift_(64 - static_cast<unsigned>(
                            std::countr_zero(edgeSeen_.size())))
{}

void
MetricsCollector::recordEdge(BlockId src, BlockId dst)
{
    preds_[dst].insert(src);
}

bool
MetricsCollector::sawEdge(BlockId src, BlockId dst) const
{
    const auto it = preds_.find(dst);
    return it != preds_.end() && it->second.count(src) != 0;
}

bool
MetricsCollector::isInternalTransfer(const Region &r,
                                     const BasicBlock &from,
                                     const BasicBlock &to)
{
    if (!r.containsBlock(from.id()))
        return false;
    if (r.kind() == Region::Kind::MultiPath)
        return r.containsBlock(to.id());
    // Trace: only the recorded next block or a branch to the top
    // keeps control inside.
    if (to.startAddr() == r.entryAddr())
        return true;
    const auto &blocks = r.blocks();
    for (std::size_t i = 0; i + 1 < blocks.size(); ++i) {
        if (blocks[i]->id() == from.id())
            return blocks[i + 1]->id() == to.id();
    }
    return false;
}

void
MetricsCollector::analyzeExitDomination(const Program &prog,
                                        const CodeCache &cache,
                                        SimResult &result) const
{
    // Index: block -> regions containing it, in selection order.
    std::unordered_map<BlockId, std::vector<RegionId>> blockRegions;
    for (const Region &r : cache.regions())
        for (const BasicBlock *b : r.blocks())
            blockRegions[b->id()].push_back(r.id());

    for (const Region &s : cache.regions()) {
        const BasicBlock &entry = s.entryBlock();
        auto predsIt = preds_.find(entry.id());
        if (predsIt == preds_.end())
            continue;

        // Executed predecessors of S's entry that are outside S.
        const BasicBlock *outside = nullptr;
        bool multiple = false;
        for (BlockId p : predsIt->second) {
            if (s.containsBlock(p))
                continue;
            if (outside != nullptr) {
                multiple = true;
                break;
            }
            outside = &prog.block(p);
        }
        if (multiple || outside == nullptr)
            continue;

        // The unique outside predecessor must be the exit block of
        // an earlier-selected region.
        auto regIt = blockRegions.find(outside->id());
        if (regIt == blockRegions.end())
            continue;
        const Region *dominator = nullptr;
        for (RegionId rid : regIt->second) {
            if (rid >= s.id())
                break; // selection order: only earlier regions
            const Region &r = cache.region(rid);
            if (!isInternalTransfer(r, *outside, entry)) {
                dominator = &r;
                break;
            }
        }
        if (dominator == nullptr)
            continue;

        ++result.exitDominatedRegions;
        result.exitDominationPairs.emplace_back(s.id(),
                                                dominator->id());
        for (const BasicBlock *b : s.blocks())
            if (dominator->containsBlock(b->id()))
                result.exitDominatedDupInsts += b->instCount();
    }
}

SimResult
MetricsCollector::finalize(const Program &prog, const CodeCache &cache,
                           const RegionSelector &selector) const
{
    SimResult res;
    res.selector = selector.name();
    res.events = events_;
    res.cachedInsts = cachedInsts_;
    res.interpretedInsts = interpInsts_;
    res.totalInsts = cachedInsts_ + interpInsts_;

    res.regionCount = cache.regionCount();
    res.expansionInsts = cache.totalInstsCopied();
    res.expansionBytes = cache.totalBytesCopied();
    res.exitStubs = cache.totalExitStubs();
    res.estimatedCacheBytes = cache.estimatedSizeBytes();
    res.cacheCapacityBytes = cache.limits().capacityBytes;
    res.cacheEvictions = cache.evictions();
    res.cacheFlushes = cache.flushes();
    res.cacheRegenerations = cache.regenerations();
    res.cacheLiveBytes = cache.liveBytes();

    res.regionTransitions = transitions_;
    res.interRegionLinks = linkPairs_.size();
    res.regionExecutions = entries_;
    res.cycleTerminations = cycleTerminations_;

    res.maxLiveCounters = selector.maxLiveCounters();
    res.peakObservedTraceBytes = selector.peakObservedTraceBytes();
    res.markSweepRegions = selector.markSweepRegions();
    res.markSweepMultiIterRegions = selector.markSweepMultiIterRegions();

    res.regions.reserve(cache.regionCount());
    for (const Region &r : cache.regions()) {
        RegionStats stats;
        stats.id = r.id();
        stats.kind = r.kind();
        stats.entryAddr = r.entryAddr();
        stats.blockCount = static_cast<std::uint32_t>(r.blocks().size());
        stats.instCount = r.instCount();
        stats.byteSize = r.byteSize();
        stats.exitStubs = r.exitStubCount();
        stats.spansCycle = r.spansCycle();
        if (r.id() < regions_.size()) {
            stats.executedInsts = regions_[r.id()].insts;
            stats.executions = regions_[r.id()].entries;
            stats.cycleEnds = regions_[r.id()].cycleEnds;
        }
        if (stats.spansCycle)
            ++res.spanningRegions;
        res.regions.push_back(stats);

        const RegionQuality quality = analyzeRegionQuality(r, prog);
        if (quality.hasInternalCycle)
            ++res.regionsWithInternalCycle;
        if (quality.licmCapable)
            ++res.licmCapableRegions;
        if (quality.dualSuccessorSplits > 0)
            ++res.dualSplitRegions;
        res.joinBlocksTotal += quality.joinBlocks;
    }

    // Duplication: every copy of a block beyond the first.
    {
        std::unordered_map<BlockId, std::uint32_t> copies;
        for (const Region &r : cache.regions())
            for (const BasicBlock *b : r.blocks())
                ++copies[b->id()];
        for (const auto &[blockId, count] : copies) {
            if (count > 1) {
                res.duplicatedInsts +=
                    (count - 1) * prog.block(blockId).instCount();
            }
        }
    }

    res.coverSet90 = res.coverSet(0.90);
    double covered = 0.0;
    for (const RegionStats &r : res.regions)
        covered += static_cast<double>(r.executedInsts);
    res.coverSetSaturated =
        covered < 0.90 * static_cast<double>(res.totalInsts);

    analyzeExitDomination(prog, cache, res);
    return res;
}

} // namespace rsel
