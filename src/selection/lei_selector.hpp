/**
 * @file
 * Last-Executed Iteration (LEI) trace selection (paper Section 3,
 * Figures 5 and 6) — plus the optional trace-combination extension.
 *
 * LEI keeps a circular history buffer of interpreted taken branches.
 * When a branch target already appears in the buffer, a cycle has
 * just executed and the buffer holds its path. If the cycle closed
 * with a backward branch, or began where the code cache was exited,
 * a counter for the target is incremented; at the threshold
 * (published value: 35) the cyclic path is reconstructed from the
 * buffer and promoted. Traces may include any kind of branch —
 * including backward calls and returns — so LEI spans the
 * interprocedural cycles NET cannot, while stopping at the head of
 * any existing region to avoid duplicating nested cycles.
 */

#ifndef RSEL_SELECTION_LEI_SELECTOR_HPP
#define RSEL_SELECTION_LEI_SELECTOR_HPP

#include <memory>

#include "selection/block_table.hpp"
#include "selection/history_buffer.hpp"
#include "selection/observed_store.hpp"
#include "selection/selector.hpp"

namespace rsel {

class Program;
class CodeCache;

/** Configuration of a LeiSelector. */
struct LeiConfig
{
    /** T_cyc: cycle-completion threshold (paper standard: 35). */
    std::uint32_t hotThreshold = 35;
    /** History buffer capacity (paper standard: 500). */
    std::size_t bufferCapacity = 500;
    /** Maximum instructions per trace. */
    std::uint32_t maxTraceInsts = 1024;
    /** Enable trace combination (Section 4). */
    bool combine = false;
    /** T_prof: observed traces per entrance when combining. */
    std::uint32_t profWindow = 15;
    /** T_min: occurrence threshold for keeping a block. */
    std::uint32_t minOccur = 5;
};

/** LEI trace selection, optionally with trace combination. */
class LeiSelector : public RegionSelector
{
  public:
    /**
     * @param prog  program being executed (for path reconstruction).
     * @param cache code cache (read-only; consulted for stop rules).
     * @param cfg   thresholds and mode.
     */
    LeiSelector(const Program &prog, const CodeCache &cache,
                LeiConfig cfg = {});

    std::optional<RegionSpec>
    onInterpreted(const SelectorEvent &event) override;

    void onCacheDisruption(CacheDisruption kind) override;

    std::size_t maxLiveCounters() const override
    {
        return counters_.peak();
    }

    std::uint64_t peakObservedTraceBytes() const override;
    std::uint64_t markSweepRegions() const override;
    std::uint64_t markSweepMultiIterRegions() const override;

    std::string name() const override;

    /** The history buffer (for tests). */
    const HistoryBuffer &buffer() const { return buffer_; }

    /** Live counters right now (for tests). */
    std::size_t liveCounters() const { return counters_.live(); }

  private:
    /**
     * Reconstruct the cyclic path from the history buffer
     * (FORM-TRACE, Figure 6): walk each recorded branch after `old`,
     * appending the fall-through run from the previous target to the
     * branch source; stop at the head of an existing region, at the
     * size limit, or when the cycle completes. The path is left in
     * path_.
     */
    void formTrace(Addr start, std::uint64_t oldSeq);

    const Program &prog_;
    const CodeCache &cache_;
    LeiConfig cfg_;

    HistoryBuffer buffer_;
    /** Per block: the cycle counter of the loop header it starts. */
    CounterTable<> counters_;
    /** formTrace's scratch: the path and its member blocks. */
    std::vector<const BasicBlock *> path_;
    BlockSet member_;

    std::unique_ptr<ObservedTraceStore> store_;
};

} // namespace rsel

#endif // RSEL_SELECTION_LEI_SELECTOR_HPP
