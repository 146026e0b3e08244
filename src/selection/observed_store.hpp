/**
 * @file
 * Storage and combination of observed traces (paper Section 4.2).
 *
 * While an entrance is being profiled, each observed trace is stored
 * independently in compact form — no cross-trace analysis happens
 * until the profiling window closes (Section 4.2.1). When the window
 * closes, the traces are decoded, merged into a RegionCfg, filtered
 * by occurrence count and rejoining-path marking, and returned as a
 * multi-path region.
 *
 * The store also tracks the peak aggregate size of live observed
 * traces, which is the paper's Figure 18 memory-overhead metric.
 *
 * Its storage outlives each window: an entrance keeps its slot, and
 * the slot its traces' word buffers, after the window is combined or
 * cleared, and combining reuses one CFG and one decoded path. So an
 * entrance profiled again allocates nothing for what it held before.
 */

#ifndef RSEL_SELECTION_OBSERVED_STORE_HPP
#define RSEL_SELECTION_OBSERVED_STORE_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "selection/compact_trace.hpp"
#include "selection/region_cfg.hpp"
#include "selection/selector.hpp"

namespace rsel {

/** Per-entrance observed-trace store with combine step. */
class ObservedTraceStore
{
  public:
    /**
     * @param profWindow T_prof: observed traces per entrance.
     * @param minOccur   T_min: occurrence threshold for keeping a
     *                   block in the combined region.
     */
    ObservedTraceStore(std::uint32_t profWindow, std::uint32_t minOccur);

    /**
     * Store one observed trace for `entry`.
     * @return true when the entrance has now observed T_prof traces
     *         and is ready to combine.
     */
    bool store(Addr entry, const std::vector<const BasicBlock *> &path);

    /** Observed traces stored so far for an entrance (a scan over
     *  the entrances, for tests). */
    std::uint32_t observedCount(Addr entry) const;

    /**
     * Combine the stored traces of `entry` into a multi-path region
     * (Figure 13 lines 12-17) and release their storage.
     * @pre observedCount(entry) >= 1.
     */
    RegionSpec combine(const Program &prog, Addr entry);

    /**
     * Release every stored observation (cache disruption: observed
     * traces may describe invalidated translations). The peak-bytes
     * high-water mark and sweep statistics survive; profiling starts
     * over from empty windows.
     */
    void clear()
    {
        for (Slot &slot : slots_) {
            slot.used = 0;
            slot.bytes = 0;
        }
        curBytes_ = 0;
    }

    /** Peak aggregate bytes of live observed traces. */
    std::uint64_t peakBytes() const { return peakBytes_; }

    /** Currently live observed-trace bytes. */
    std::uint64_t currentBytes() const { return curBytes_; }

    /** Regions whose rejoining-path dataflow marked blocks. */
    std::uint64_t sweepRegions() const { return sweepRegions_; }

    /** Of those, regions that needed a second or later sweep. */
    std::uint64_t multiIterRegions() const { return multiIterRegions_; }

  private:
    /** One entrance's profiling window. */
    struct Slot
    {
        Addr entry = invalidAddr;
        /** traces[0, used) are the window's; the rest keep their
         *  buffers for the next window. */
        std::vector<CompactTrace> traces;
        std::uint32_t used = 0;
        /** Bytes of the window's traces. */
        std::uint64_t bytes = 0;
    };

    /** The slot of entrance block `id`, or nullptr if it has none. */
    Slot *find(BlockId id)
    {
        return id < slotOf_.size() && slotOf_[id] != 0
                   ? &slots_[slotOf_[id] - 1]
                   : nullptr;
    }

    std::uint32_t profWindow_;
    std::uint32_t minOccur_;
    /** One per entrance ever observed; never shrinks. */
    std::vector<Slot> slots_;
    /** Per block id (grown on demand): 1 + its slot's index, or 0. */
    std::vector<std::uint32_t> slotOf_;
    /** combine()'s scratch: the CFG and one decoded trace. */
    std::optional<RegionCfg> cfg_;
    std::vector<const BasicBlock *> path_;
    std::uint64_t curBytes_ = 0;
    std::uint64_t peakBytes_ = 0;
    std::uint64_t sweepRegions_ = 0;
    std::uint64_t multiIterRegions_ = 0;
};

} // namespace rsel

#endif // RSEL_SELECTION_OBSERVED_STORE_HPP
