#include "metrics/sim_result.hpp"

#include <algorithm>

namespace rsel {

double
SimResult::hitRate() const
{
    if (totalInsts == 0)
        return 0.0;
    return static_cast<double>(cachedInsts) /
           static_cast<double>(totalInsts);
}

double
SimResult::spannedCycleRatio() const
{
    if (regionCount == 0)
        return 0.0;
    return static_cast<double>(spanningRegions) /
           static_cast<double>(regionCount);
}

double
SimResult::executedCycleRatio() const
{
    if (regionExecutions == 0)
        return 0.0;
    return static_cast<double>(cycleTerminations) /
           static_cast<double>(regionExecutions);
}

double
SimResult::avgRegionInsts() const
{
    if (regionCount == 0)
        return 0.0;
    return static_cast<double>(expansionInsts) /
           static_cast<double>(regionCount);
}

double
SimResult::exitDominatedRegionRatio() const
{
    if (regionCount == 0)
        return 0.0;
    return static_cast<double>(exitDominatedRegions) /
           static_cast<double>(regionCount);
}

double
SimResult::exitDominatedDupRatio() const
{
    if (expansionInsts == 0)
        return 0.0;
    return static_cast<double>(exitDominatedDupInsts) /
           static_cast<double>(expansionInsts);
}

double
SimResult::icacheMissRate() const
{
    if (icacheAccesses == 0)
        return 0.0;
    return static_cast<double>(icacheMisses) /
           static_cast<double>(icacheAccesses);
}

double
SimResult::observedMemoryRatio() const
{
    if (estimatedCacheBytes == 0)
        return 0.0;
    return static_cast<double>(peakObservedTraceBytes) /
           static_cast<double>(estimatedCacheBytes);
}

std::uint32_t
SimResult::coverSet(double fraction) const
{
    std::vector<std::uint64_t> executed;
    executed.reserve(regions.size());
    for (const RegionStats &r : regions)
        executed.push_back(r.executedInsts);
    std::sort(executed.begin(), executed.end(),
              std::greater<std::uint64_t>());

    const double target = fraction * static_cast<double>(totalInsts);
    double sum = 0.0;
    std::uint32_t count = 0;
    for (std::uint64_t e : executed) {
        if (sum >= target)
            return count;
        sum += static_cast<double>(e);
        ++count;
    }
    // All regions together may still be short of the target; the
    // caller can detect this via coverSetSaturated.
    return count;
}

std::string
SimResult::conservationError() const
{
    auto err = [](const std::string &what, std::uint64_t lhs,
                  std::uint64_t rhs) {
        return what + " (" + std::to_string(lhs) + " vs " +
               std::to_string(rhs) + ")";
    };

    if (cachedInsts + interpretedInsts != totalInsts)
        return err("cached + interpreted != total instructions",
                   cachedInsts + interpretedInsts, totalInsts);
    if (totalInsts < events)
        return err("fewer instructions than events (blocks are "
                   "non-empty)",
                   totalInsts, events);
    if (regionCount != regions.size())
        return err("regionCount != per-region stats size", regionCount,
                   regions.size());
    if (cachedInsts > 0 && regionCount == 0)
        return err("cached instructions without any region",
                   cachedInsts, regionCount);
    if (cycleTerminations > regionExecutions)
        return err("more cycle terminations than region executions",
                   cycleTerminations, regionExecutions);
    if (!coverSetSaturated && coverSet90 > regionCount)
        return err("cover set larger than region count", coverSet90,
                   regionCount);

    std::uint64_t sumExecuted = 0, sumEntries = 0, sumCycleEnds = 0;
    std::uint64_t sumInsts = 0, sumBytes = 0, sumStubs = 0;
    std::uint64_t sumSpanning = 0;
    for (const RegionStats &r : regions) {
        sumExecuted += r.executedInsts;
        sumEntries += r.executions;
        sumCycleEnds += r.cycleEnds;
        sumInsts += r.instCount;
        sumBytes += r.byteSize;
        sumStubs += r.exitStubs;
        sumSpanning += r.spansCycle ? 1 : 0;
        if (r.cycleEnds > r.executions)
            return err("region " + std::to_string(r.id) +
                           ": more cycle ends than executions",
                       r.cycleEnds, r.executions);
    }
    if (sumExecuted != cachedInsts)
        return err("per-region executed instructions != cachedInsts",
                   sumExecuted, cachedInsts);
    if (sumEntries != regionExecutions)
        return err("per-region executions != regionExecutions",
                   sumEntries, regionExecutions);
    if (sumCycleEnds != cycleTerminations)
        return err("per-region cycle ends != cycleTerminations",
                   sumCycleEnds, cycleTerminations);
    if (sumInsts != expansionInsts)
        return err("per-region instructions != expansionInsts",
                   sumInsts, expansionInsts);
    if (sumBytes != expansionBytes)
        return err("per-region bytes != expansionBytes", sumBytes,
                   expansionBytes);
    if (sumStubs != exitStubs)
        return err("per-region exit stubs != exitStubs", sumStubs,
                   exitStubs);
    if (sumSpanning != spanningRegions)
        return err("per-region spanning flags != spanningRegions",
                   sumSpanning, spanningRegions);
    if (icacheMisses > icacheAccesses)
        return err("more I-cache misses than accesses", icacheMisses,
                   icacheAccesses);

    // Fault-injection closure: every injected fault is exactly one
    // of the four kinds, and recovery bookkeeping stays within the
    // fault counts that can cause it.
    const std::uint64_t faultKinds = recovery.translationFailures +
                                     recovery.blockInvalidations +
                                     recovery.flushStorms +
                                     recovery.selectorResets;
    if (recovery.faultsInjected != faultKinds)
        return err("injected faults != sum of fault kinds",
                   recovery.faultsInjected, faultKinds);
    if (recovery.retries > recovery.translationFailures)
        return err("more recoveries than translation failures",
                   recovery.retries, recovery.translationFailures);
    if (recovery.retranslations > recovery.regionsInvalidated)
        return err("more retranslations than invalidated regions",
                   recovery.retranslations,
                   recovery.regionsInvalidated);
    return "";
}

SimResult &
SimResult::mergeFrom(const SimResult &other)
{
    auto label = [](std::string &mine, const std::string &theirs) {
        if (mine != theirs)
            mine = mine.empty() ? theirs
                                : (theirs.empty() ? mine : "mixed");
    };
    label(selector, other.selector);
    label(workload, other.workload);

    events += other.events;
    totalInsts += other.totalInsts;
    cachedInsts += other.cachedInsts;
    interpretedInsts += other.interpretedInsts;

    regionCount += other.regionCount;
    expansionInsts += other.expansionInsts;
    expansionBytes += other.expansionBytes;
    exitStubs += other.exitStubs;
    estimatedCacheBytes += other.estimatedCacheBytes;

    icacheAccesses += other.icacheAccesses;
    icacheMisses += other.icacheMisses;

    cacheCapacityBytes += other.cacheCapacityBytes;
    cacheEvictions += other.cacheEvictions;
    cacheFlushes += other.cacheFlushes;
    cacheRegenerations += other.cacheRegenerations;
    cacheLiveBytes += other.cacheLiveBytes;

    regionTransitions += other.regionTransitions;
    interRegionLinks += other.interRegionLinks;
    regionExecutions += other.regionExecutions;
    cycleTerminations += other.cycleTerminations;
    spanningRegions += other.spanningRegions;

    maxLiveCounters = std::max(maxLiveCounters, other.maxLiveCounters);
    peakObservedTraceBytes =
        std::max(peakObservedTraceBytes, other.peakObservedTraceBytes);
    markSweepRegions += other.markSweepRegions;
    markSweepMultiIterRegions += other.markSweepMultiIterRegions;

    exitDominatedRegions += other.exitDominatedRegions;
    exitDominatedDupInsts += other.exitDominatedDupInsts;
    duplicatedInsts += other.duplicatedInsts;

    regionsWithInternalCycle += other.regionsWithInternalCycle;
    licmCapableRegions += other.licmCapableRegions;
    dualSplitRegions += other.dualSplitRegions;
    joinBlocksTotal += other.joinBlocksTotal;

    recovery.mergeFrom(other.recovery);

    // Per-cache structure does not compose across runs.
    coverSet90 = 0;
    coverSetSaturated = false;
    regions.clear();
    exitDominationPairs.clear();
    return *this;
}

SimResult
mergeResults(const std::vector<SimResult> &parts)
{
    SimResult merged;
    for (const SimResult &part : parts)
        merged.mergeFrom(part);
    return merged;
}

} // namespace rsel
