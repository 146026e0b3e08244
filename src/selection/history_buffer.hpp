/**
 * @file
 * Circular branch-history buffer for LEI (paper Section 3.1).
 *
 * Holds the most recently interpreted taken branches as (source,
 * target) pairs. A hash table over targets makes cycle detection
 * (the target of the current branch already being in the buffer)
 * O(1) per branch. Entries are addressed by a monotonically
 * increasing sequence number; wrapping and the truncation performed
 * after trace formation (Figure 5, line 13) are expressed by
 * shrinking the valid window.
 *
 * The target hash is a fixed open-addressed table (linear probing,
 * backward-shift deletion) preallocated at twice the most keys it can
 * ever hold, min(capacity, maxTargets): insert+find touch one cache
 * line in the common case and never rehash. LEI bounds the distinct
 * targets by the program's block count, since every target is a
 * block start, so a 10-block program carries a 32-slot table instead
 * of the 1024 slots a 500-entry buffer needs in general. Each key
 * owns at most one slot, so the table size never changes what find()
 * answers. Hash entries are purged eagerly — when eviction
 * overwrites the entry they point at, when truncateAfter() drops it,
 * and when find() rejects one as stale — so the table holds at most
 * one entry per live buffer slot (hashedTargets() <= capacity()).
 * Earlier revisions rejected stale entries lazily and never erased
 * them, which leaked without bound on truncate-heavy workloads.
 */

#ifndef RSEL_SELECTION_HISTORY_BUFFER_HPP
#define RSEL_SELECTION_HISTORY_BUFFER_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "isa/types.hpp"

namespace rsel {

/** Circular buffer of interpreted taken branches with target hash. */
class HistoryBuffer
{
  public:
    /** One recorded taken branch. */
    struct Entry
    {
        /** Address of the branch instruction. */
        Addr src = invalidAddr;
        /** Branch target (a block start address). */
        Addr tgt = invalidAddr;
        /** True if this transfer was an exit from the code cache. */
        bool fromCacheExit = false;
    };

    /** No bound on distinct targets: size the table by capacity. */
    static constexpr std::size_t unboundedTargets = ~std::size_t{0};

    /**
     * @param capacity   maximum live entries (the paper uses 500).
     * @param maxTargets most distinct target addresses the caller
     *                   will ever hash (@pre); the table holds
     *                   min(capacity, maxTargets) keys at a load
     *                   factor under 1/2.
     */
    explicit HistoryBuffer(std::size_t capacity,
                           std::size_t maxTargets = unboundedTargets);

    /**
     * Find the most recent in-window occurrence of `tgt` recorded in
     * the hash, or nullopt. Call before insert(): this is the
     * Figure 5 line 6 lookup, which must see the pre-insert state.
     */
    std::optional<std::uint64_t> find(Addr tgt) const;

    /**
     * Append a branch, evicting the oldest entry when full.
     * @return the new entry's sequence number.
     */
    std::uint64_t insert(const Entry &entry);

    /** Point the target hash at a specific occurrence. */
    void setHashLocation(Addr tgt, std::uint64_t seq);

    /** Entry by sequence number. @pre inWindow(seq). */
    const Entry &at(std::uint64_t seq) const;

    /** True if `seq` addresses a live entry. */
    bool inWindow(std::uint64_t seq) const;

    /** Sequence number of the most recent entry. @pre !empty(). */
    std::uint64_t lastSeq() const;

    /**
     * Drop all entries strictly after `seq` (Figure 5, line 13).
     * Hash entries pointing past the cut are purged now — the
     * dropped sequence numbers will be reused by future inserts, so
     * leaving them would both leak and demand content re-checks.
     */
    void truncateAfter(std::uint64_t seq);

    /** Drop every entry and the target hash (used when a formed
     *  cycle filled the whole buffer and no anchor entry survives).
     *  Sequence numbers keep increasing across clears. */
    void clear();

    /** Live target-hash entries (exposed so tests can assert the
     *  purge discipline: always <= capacity()). */
    std::size_t hashedTargets() const { return hashCount_; }

    /** Number of live entries. */
    std::size_t size() const { return count_; }

    /** True when no live entries exist. */
    bool empty() const { return count_ == 0; }

    /** Capacity in entries. */
    std::size_t capacity() const { return storage_.size(); }

  private:
    /** One open-addressed table slot; invalidAddr key = empty. */
    struct HashSlot
    {
        Addr key = invalidAddr;
        std::uint64_t seq = 0;
    };

    /** Home slot of a key (Fibonacci hash into the table). */
    std::size_t idealSlot(Addr key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ull) >> tableShift_);
    }

    /** Index of `key`'s slot, or npos when absent. */
    std::size_t findSlot(Addr key) const;

    /** Remove slot `i`, backward-shifting the probe chain. */
    void eraseSlot(std::size_t i) const;

    /** Purge the hash entry for `tgt` iff it points at `seq`. */
    void eraseHashIfAt(Addr tgt, std::uint64_t seq);

    std::vector<Entry> storage_;
    /** Mutable so find() (const) can purge entries it rejects. */
    mutable std::vector<HashSlot> table_;
    std::size_t tableMask_ = 0;
    unsigned tableShift_ = 0;
    mutable std::size_t hashCount_ = 0;
    /** Sequence number the next insert will get. */
    std::uint64_t nextSeq_ = 0;
    /** Live entries: sequence numbers [nextSeq_-count_, nextSeq_). */
    std::size_t count_ = 0;
};

} // namespace rsel

#endif // RSEL_SELECTION_HISTORY_BUFFER_HPP
