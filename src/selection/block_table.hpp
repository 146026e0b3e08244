/**
 * @file
 * Per-block tables for the selectors' profiling state.
 *
 * Every hotness counter a selector keeps is keyed by a block start
 * address, and every path it walks is a set of blocks, so both fit
 * one slot per block of the program: a counter table with an explicit
 * live count, and a member set emptied by bumping an epoch. Neither
 * makes a heap node per key; each is one array sized by the program.
 */

#ifndef RSEL_SELECTION_BLOCK_TABLE_HPP
#define RSEL_SELECTION_BLOCK_TABLE_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "isa/types.hpp"

namespace rsel {

/** A hotness counter slot: live while its count is non-zero. */
struct HotCount
{
    std::uint32_t count = 0;
};

/**
 * One hotness counter per block. A counter comes alive at its first
 * bump and dies at erase() or clear(); live() counts the living and
 * peak() is its high-water mark (the paper's Figure 10 metric).
 * @tparam Slot a default-constructible slot with a `count` field;
 *         the zero slot is the absent counter.
 */
template <typename Slot = HotCount>
class CounterTable
{
  public:
    /** @param blocks blocks in the program (one slot each). */
    explicit CounterTable(std::size_t blocks) : slots_(blocks) {}

    /** Count one more execution of block `id`; @return its slot. */
    Slot &
    bump(BlockId id)
    {
        Slot &s = slots_[id];
        if (s.count++ == 0 && ++live_ > peak_)
            peak_ = live_;
        return s;
    }

    /** Recycle block `id`'s counter; a dead one stays dead. */
    void
    erase(BlockId id)
    {
        Slot &s = slots_[id];
        if (s.count != 0) {
            s = Slot{};
            --live_;
        }
    }

    /** Forget every counter (a full profiling reset); the peak stays. */
    void
    clear()
    {
        std::fill(slots_.begin(), slots_.end(), Slot{});
        live_ = 0;
    }

    /** Counters alive now. */
    std::size_t live() const { return live_; }

    /** Most counters alive at once. */
    std::size_t peak() const { return peak_; }

  private:
    std::vector<Slot> slots_;
    std::size_t live_ = 0;
    std::size_t peak_ = 0;
};

/**
 * A set of blocks of one program, emptied in constant time: a block
 * is a member while its stamp equals the current epoch.
 */
class BlockSet
{
  public:
    /** @param blocks blocks in the program (one stamp each). */
    explicit BlockSet(std::size_t blocks) : stamps_(blocks, 0) {}

    /** Empty the set. */
    void
    clear()
    {
        if (++epoch_ == 0) {
            // Wrapped: a stamp from 2^32 clears ago would alias.
            std::fill(stamps_.begin(), stamps_.end(), 0);
            epoch_ = 1;
        }
    }

    bool contains(BlockId id) const { return stamps_[id] == epoch_; }

    void insert(BlockId id) { stamps_[id] = epoch_; }

  private:
    std::vector<std::uint32_t> stamps_;
    std::uint32_t epoch_ = 1;
};

} // namespace rsel

#endif // RSEL_SELECTION_BLOCK_TABLE_HPP
