/**
 * @file
 * Wiggins/Redstone-style trace selection (paper Section 5; Deaver,
 * Gorton & Rubin).
 *
 * Compaq's Wiggins/Redstone identified trace beginnings by
 * *periodically sampling the program counter* rather than counting
 * branch executions, then instrumented from the sampled start to
 * determine the most frequent target of each selected branch. This
 * selector models that: every `samplePeriod`-th interpreted block is
 * a PC sample; a block accumulating `hotSamples` samples becomes a
 * trace start, and the trace follows the accumulated edge profile
 * (shared with the BOA selector).
 *
 * As the paper notes for the whole family, sampling identifies hot
 * starts with very low overhead but the selected region remains a
 * single path — separation and duplication are not addressed.
 */

#ifndef RSEL_SELECTION_WRS_SELECTOR_HPP
#define RSEL_SELECTION_WRS_SELECTOR_HPP

#include "selection/path_profile.hpp"
#include "selection/selector.hpp"

namespace rsel {

class Program;
class CodeCache;

/** Configuration of a WrsSelector. */
struct WrsConfig
{
    /** One PC sample every this many interpreted blocks. */
    std::uint32_t samplePeriod = 31;
    /** Samples a block needs before a trace starts there. */
    std::uint32_t hotSamples = 3;
    /** Maximum instructions per trace. */
    std::uint32_t maxTraceInsts = 1024;
};

/** Sampling-based trace selection in the Wiggins/Redstone style. */
class WrsSelector : public RegionSelector
{
  public:
    WrsSelector(const Program &prog, const CodeCache &cache,
                WrsConfig cfg = {});

    std::optional<RegionSpec>
    onInterpreted(const SelectorEvent &event) override;

    void onCacheDisruption(CacheDisruption kind) override
    {
        // PC samples and edge profiles describe the program and
        // survive invalidations/flushes; only the in-flight
        // attribution chain breaks. A reset forgets everything (the
        // sampling clock tick_ keeps running — it is a clock, not
        // profile state).
        if (kind == CacheDisruption::Reset) {
            profile_.reset();
            samples_.clear();
        } else {
            profile_.breakChain();
        }
    }

    std::size_t maxLiveCounters() const override
    {
        return samples_.peak();
    }

    std::string name() const override { return "WRS"; }

  private:
    const Program &prog_;
    const CodeCache &cache_;
    WrsConfig cfg_;

    PathProfile profile_;
    /** Per block: the PC samples taken at its start. */
    CounterTable<> samples_;
    /** formMostLikelyPath's scratch: the path and its members. */
    std::vector<const BasicBlock *> path_;
    BlockSet member_;
    std::uint64_t tick_ = 0;
};

} // namespace rsel

#endif // RSEL_SELECTION_WRS_SELECTOR_HPP
