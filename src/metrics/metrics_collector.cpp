#include "metrics/metrics_collector.hpp"

#include <algorithm>
#include <bit>

#include "metrics/region_quality.hpp"
#include "program/program.hpp"
#include "runtime/code_cache.hpp"
#include "support/error.hpp"

namespace rsel {

namespace {

/**
 * Values grouped by block id in one array: block b's values are
 * items[start[b]] .. items[start[b + 1] - 1].
 */
struct ByBlock
{
    std::vector<std::uint32_t> start;
    std::vector<std::uint32_t> items;

    std::uint32_t count(BlockId b) const { return start[b + 1] - start[b]; }
};

/**
 * Group the (block, value) pairs `visit` produces: it is called
 * twice with an `add(block, value)` sink and must produce the same
 * pairs both times. Each block's values come out in the reverse of
 * the order they were added.
 */
template <typename Visit>
ByBlock
groupByBlock(std::size_t blockCount, Visit visit)
{
    ByBlock g;
    g.start.assign(blockCount + 1, 0);
    visit([&](BlockId b, std::uint32_t) { ++g.start[b]; });
    // Each start[b] becomes the end of b's range; filling moves it
    // back to the beginning.
    std::uint32_t total = 0;
    for (std::size_t b = 0; b < blockCount; ++b) {
        total += g.start[b];
        g.start[b] = total;
    }
    g.start[blockCount] = total;
    g.items.resize(total);
    visit([&](BlockId b, std::uint32_t v) { g.items[--g.start[b]] = v; });
    return g;
}

/** True if R keeps control when `from` transfers to `to`. */
bool
isInternalTransfer(const Region &r, const BasicBlock &from,
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

/**
 * Exit-domination analysis. For each region S: S is exit-dominated
 * if the only executed predecessor of its entry outside S is a
 * block of an earlier region R whose transfer to S's entry exits R.
 * Adds the count and the duplicated instructions between each
 * dominated region and its dominator.
 * @param preds   each block's executed predecessors.
 * @param members each block's regions, in selection order.
 */
void
analyzeExitDomination(const Program &prog, const CodeCache &cache,
                      const ByBlock &preds, const ByBlock &members,
                      SimResult &result)
{
    for (const Region &s : cache.regions()) {
        const BasicBlock &entry = s.entryBlock();

        // Executed predecessors of S's entry that are outside S.
        const BasicBlock *outside = nullptr;
        bool multiple = false;
        for (std::uint32_t k = preds.start[entry.id()];
             k < preds.start[entry.id() + 1]; ++k) {
            const BlockId p = preds.items[k];
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
        const Region *dominator = nullptr;
        for (std::uint32_t k = members.start[outside->id()];
             k < members.start[outside->id() + 1]; ++k) {
            const RegionId rid = members.items[k];
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
        if (result.exitDominationPairs.empty()) // S and later ones
            result.exitDominationPairs.reserve(cache.regionCount() -
                                               s.id());
        result.exitDominationPairs.emplace_back(s.id(),
                                                dominator->id());
        for (const BasicBlock *b : s.blocks())
            if (dominator->containsBlock(b->id()))
                result.exitDominatedDupInsts += b->instCount();
    }
}

} // namespace

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
                            std::countr_zero(edgeSeen_.size()))),
      // Room for two executed successors per block before the edge
      // set first doubles (allocated at the first edge).
      edges_(4 * blockCount)
{}

void
MetricsCollector::recordEdge(std::uint64_t key)
{
    edges_.insert(key);
}

bool
MetricsCollector::sawEdge(BlockId src, BlockId dst) const
{
    return edges_.contains((static_cast<std::uint64_t>(src) << 32) |
                           dst);
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
    res.interRegionLinks = links_.size();
    res.regionExecutions = entries_;
    res.cycleTerminations = cycleTerminations_;

    res.maxLiveCounters = selector.maxLiveCounters();
    res.peakObservedTraceBytes = selector.peakObservedTraceBytes();
    res.markSweepRegions = selector.markSweepRegions();
    res.markSweepMultiIterRegions = selector.markSweepMultiIterRegions();

    res.regions.reserve(cache.regionCount());
    RegionQualityScratch scratch;
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

        const RegionQuality quality = analyzeRegionQuality(r, scratch);
        if (quality.hasInternalCycle)
            ++res.regionsWithInternalCycle;
        if (quality.licmCapable)
            ++res.licmCapableRegions;
        if (quality.dualSuccessorSplits > 0)
            ++res.dualSplitRegions;
        res.joinBlocksTotal += quality.joinBlocks;
    }

    res.coverSet90 = res.coverSet(0.90);
    double covered = 0.0;
    for (const RegionStats &r : res.regions)
        covered += static_cast<double>(r.executedInsts);
    res.coverSetSaturated =
        covered < 0.90 * static_cast<double>(res.totalInsts);

    if (cache.regionCount() == 0)
        return res; // nothing is duplicated or exit-dominated

    const std::size_t blockCount = prog.blocks().size();
    const auto &regions = cache.regions();
    // Visited newest first, so each block's regions come out in
    // selection order.
    const ByBlock members = groupByBlock(blockCount, [&](auto add) {
        for (auto r = regions.rbegin(); r != regions.rend(); ++r)
            for (const BlockId id : r->blockIds())
                add(id, r->id());
    });
    // Duplication: every copy of a block beyond the first.
    for (BlockId b = 0; b < blockCount; ++b)
        if (members.count(b) > 1)
            res.duplicatedInsts +=
                (members.count(b) - 1) * prog.block(b).instCount();

    const ByBlock preds = groupByBlock(blockCount, [&](auto add) {
        edges_.forEach([&](std::uint64_t key) {
            add(static_cast<BlockId>(key),
                static_cast<BlockId>(key >> 32));
        });
    });
    analyzeExitDomination(prog, cache, preds, members, res);
    return res;
}

} // namespace rsel
