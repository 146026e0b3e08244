/**
 * @file
 * A set of 64-bit keys in one flat, open-addressed array.
 *
 * The run-time profiles (MetricsCollector's edge profile and region
 * links) are sets of packed (a << 32 | b) keys that only ever grow.
 * A node-based hash set pays one allocation per key plus a bucket
 * array; this set pays one allocation per doubling, nothing per
 * key, and frees one array at teardown.
 */

#ifndef RSEL_SUPPORT_FLAT_KEY_SET_HPP
#define RSEL_SUPPORT_FLAT_KEY_SET_HPP

#include <bit>
#include <cstdint>
#include <vector>

namespace rsel {

/**
 * Linear probing over a power-of-two slot count kept at most half
 * full, starting at the Fibonacci hash of the key. A slot holds
 * key + 1, so 0 marks an empty slot and the all-ones key cannot be
 * stored. No storage until the first insert.
 */
class FlatKeySet
{
  public:
    /** @param initialSlots slots of the first allocation (rounded up
     *  to a power of two, at least 16). */
    explicit FlatKeySet(std::size_t initialSlots = 16)
        : initialSlots_(std::bit_ceil(initialSlots < 16 ? 16
                                                        : initialSlots))
    {}

    /**
     * Add `key`. @return true if it was not yet present. Only a new
     * key can grow the array: re-adding one never allocates.
     */
    bool
    insert(std::uint64_t key)
    {
        if (!slots_.empty()) {
            std::uint64_t &slot = slots_[find(key)];
            if (slot != 0)
                return false;
            if (2 * (size_ + 1) <= slots_.size()) {
                slot = key + 1;
                ++size_;
                return true;
            }
        }
        grow();
        slots_[find(key)] = key + 1;
        ++size_;
        return true;
    }

    /** True if `key` was inserted. */
    bool
    contains(std::uint64_t key) const
    {
        return !slots_.empty() && slots_[find(key)] != 0;
    }

    /** Number of distinct keys. */
    std::size_t size() const { return size_; }

    /** Call `f(key)` for every key, in slot (not insertion) order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (const std::uint64_t s : slots_)
            if (s != 0)
                f(s - 1);
    }

  private:
    /** The slot holding `key`, or the empty slot it would take. */
    std::size_t
    find(std::uint64_t key) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ull) >> shift_);
        while (slots_[i] != 0 && slots_[i] != key + 1)
            i = (i + 1) & mask;
        return i;
    }

    void
    grow()
    {
        std::vector<std::uint64_t> old;
        old.swap(slots_);
        const std::size_t n =
            old.empty() ? initialSlots_ : 2 * old.size();
        slots_.assign(n, 0);
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(n));
        for (const std::uint64_t s : old)
            if (s != 0)
                slots_[find(s - 1)] = s;
    }

    std::vector<std::uint64_t> slots_;
    std::size_t size_ = 0;
    std::size_t initialSlots_;
    /** 64 - log2(slot count): the hash's shift. */
    unsigned shift_ = 64;
};

} // namespace rsel

#endif // RSEL_SUPPORT_FLAT_KEY_SET_HPP
