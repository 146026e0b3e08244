/**
 * @file
 * BOA-style trace selection (paper Section 5; Gschwind et al. /
 * Sathaye et al.).
 *
 * IBM's Binary-translated Optimization Architecture selects traces
 * from accumulated *edge profiles* rather than from a single
 * observed execution: while emulating, it counts how often each
 * conditional branch goes each way; once an entry point has been
 * emulated a small number of times (published value: 15), a trace is
 * built by statically following the most frequently taken target of
 * every branch.
 *
 * The paper's point about this family: more careful per-branch
 * profiling does not address separation or duplication — the
 * selected region is still a single path. Including BOA lets the
 * benches reproduce that comparison.
 */

#ifndef RSEL_SELECTION_BOA_SELECTOR_HPP
#define RSEL_SELECTION_BOA_SELECTOR_HPP

#include "selection/path_profile.hpp"
#include "selection/selector.hpp"

namespace rsel {

class Program;
class CodeCache;

/** Configuration of a BoaSelector. */
struct BoaConfig
{
    /** Entry-point execution threshold (published value: 15). */
    std::uint32_t hotThreshold = 15;
    /** Maximum instructions per trace. */
    std::uint32_t maxTraceInsts = 1024;
};

/** Edge-profile-guided trace selection in the BOA style. */
class BoaSelector : public RegionSelector
{
  public:
    BoaSelector(const Program &prog, const CodeCache &cache,
                BoaConfig cfg = {});

    std::optional<RegionSpec>
    onInterpreted(const SelectorEvent &event) override;

    void onCacheDisruption(CacheDisruption kind) override
    {
        // Edge profiles describe the program, not the cache, so they
        // survive invalidations and flushes; only the in-flight
        // attribution chain breaks. A reset forgets everything.
        if (kind == CacheDisruption::Reset) {
            profile_.reset();
            counters_.clear();
        } else {
            profile_.breakChain();
        }
    }

    std::size_t maxLiveCounters() const override
    {
        return counters_.peak();
    }

    std::string name() const override { return "BOA"; }

    /** The accumulated edge profile (for tests). */
    const PathProfile &profile() const { return profile_; }

  private:
    const Program &prog_;
    const CodeCache &cache_;
    BoaConfig cfg_;

    PathProfile profile_;
    /** Per block: the entry-point counter of the block it starts. */
    CounterTable<> counters_;
    /** formMostLikelyPath's scratch: the path and its members. */
    std::vector<const BasicBlock *> path_;
    BlockSet member_;
};

} // namespace rsel

#endif // RSEL_SELECTION_BOA_SELECTOR_HPP
