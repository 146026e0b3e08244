/**
 * @file
 * Next-Executing Tail (NET) trace selection, after Duesterwald &
 * Bala, as described in Section 2.1 of the paper — plus the optional
 * trace-combination extension of Section 4 (Figure 13).
 *
 * Profiling: a counter is associated with the target of every
 * interpreted taken backward branch and every exit from the code
 * cache. When a counter reaches the hot threshold (published value:
 * 50), the next-executing path from the target is recorded as the
 * trace: recording extends across any forward control transfer
 * (calls and returns included) and stops after a taken backward
 * branch, before the start of an existing region, or at the size
 * limit.
 *
 * With combination enabled, the counter triggers at
 * `hotThreshold - profWindow` executions; each subsequent trigger
 * records an *observed* trace, stored compactly, and after
 * `profWindow` observations the traces are combined into one
 * multi-path region (total interpreted executions before region
 * creation thus match plain NET, per Section 4.3).
 */

#ifndef RSEL_SELECTION_NET_SELECTOR_HPP
#define RSEL_SELECTION_NET_SELECTOR_HPP

#include <memory>

#include "selection/block_table.hpp"
#include "selection/observed_store.hpp"
#include "selection/selector.hpp"

namespace rsel {

class Program;
class CodeCache;

/** Configuration of a NetSelector. */
struct NetConfig
{
    /** Hot threshold for starting a trace (paper standard: 50). */
    std::uint32_t hotThreshold = 50;
    /**
     * Separate, lower threshold for code-cache-exit targets; 0 uses
     * hotThreshold for both. A non-zero value gives the Mojo variant
     * the paper describes in Section 5: "one threshold for
     * backward-branch targets and a lower threshold for trace
     * exits", which reduces the delay before a related trace is
     * selected (and hence the separation between related traces)
     * without allowing them to be optimized together.
     */
    std::uint32_t exitThreshold = 0;
    /** Maximum instructions per trace (Dynamo-style size limit). */
    std::uint32_t maxTraceInsts = 1024;
    /** Enable trace combination (Section 4). */
    bool combine = false;
    /** T_prof: observed traces per entrance when combining. */
    std::uint32_t profWindow = 15;
    /** T_min: occurrence threshold for keeping a block. */
    std::uint32_t minOccur = 5;

    /** Mojo preset: NET with a lower trace-exit threshold. */
    static NetConfig
    mojo(std::uint32_t backward = 50, std::uint32_t exit = 25)
    {
        NetConfig cfg;
        cfg.hotThreshold = backward;
        cfg.exitThreshold = exit;
        return cfg;
    }
};

/** NET trace selection, optionally with trace combination. */
class NetSelector : public RegionSelector
{
  public:
    /**
     * @param prog  program being executed (for block lookup).
     * @param cache code cache (read-only; consulted for stop rules).
     * @param cfg   thresholds and mode.
     */
    NetSelector(const Program &prog, const CodeCache &cache,
                NetConfig cfg = {});

    std::optional<RegionSpec>
    onInterpreted(const SelectorEvent &event) override;

    std::optional<RegionSpec>
    onCacheEnter(const BasicBlock &entry) override;

    void onCacheDisruption(CacheDisruption kind) override;

    std::size_t maxLiveCounters() const override
    {
        return counters_.peak();
    }

    std::uint64_t peakObservedTraceBytes() const override;
    std::uint64_t markSweepRegions() const override;
    std::uint64_t markSweepMultiIterRegions() const override;

    std::string name() const override;

    /** Live counters right now (for tests). */
    std::size_t liveCounters() const { return counters_.live(); }

    /** True while a trace is being recorded (for tests). */
    bool recording() const { return recording_; }

  private:
    /** A hotness counter with its effective trigger threshold (0
     *  until the first bump sets it). */
    struct Counter
    {
        std::uint32_t count = 0;
        std::uint32_t trigger = 0;
    };

    /** Count this event toward hotness; maybe start recording. */
    void profile(const SelectorEvent &event);

    /** Begin recording the next-executing path at `head`. */
    void startRecording(const BasicBlock &head);

    /** Close the recording; emit a trace or store an observation. */
    std::optional<RegionSpec> finalizeRecording();

    /** The execution count at which recording starts. */
    std::uint32_t triggerThreshold(bool fromCacheExit) const;

    const Program &prog_;
    const CodeCache &cache_;
    NetConfig cfg_;

    /** Per block: the counter of the region entrance it starts. */
    CounterTable<Counter> counters_;

    bool recording_ = false;
    /** The path being recorded; keeps its capacity between traces. */
    std::vector<const BasicBlock *> recordPath_;
    std::uint64_t recordInsts_ = 0;

    std::unique_ptr<ObservedTraceStore> store_;
};

} // namespace rsel

#endif // RSEL_SELECTION_NET_SELECTOR_HPP
