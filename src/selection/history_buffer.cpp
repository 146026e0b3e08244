#include "selection/history_buffer.hpp"

#include <algorithm>
#include <bit>

#include "support/error.hpp"

namespace rsel {

namespace {
constexpr std::size_t npos = ~std::size_t{0};
} // namespace

HistoryBuffer::HistoryBuffer(std::size_t capacity,
                             std::size_t maxTargets)
    : storage_(capacity)
{
    RSEL_ASSERT(capacity > 0, "history buffer needs capacity >= 1");
    // Reserve the whole table up front: power-of-two, at least twice
    // the most keys it can hold, so the load factor stays under 1/2
    // (the purge discipline bounds live entries by the capacity; a
    // key owns one slot, so the target bound caps them too) and
    // inserts never rehash.
    const std::size_t slots = std::max<std::size_t>(
        8, std::bit_ceil(2 * std::min(capacity, maxTargets)));
    table_.assign(slots, HashSlot{});
    tableMask_ = slots - 1;
    tableShift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
}

bool
HistoryBuffer::inWindow(std::uint64_t seq) const
{
    return seq < nextSeq_ && nextSeq_ - seq <= count_;
}

std::size_t
HistoryBuffer::findSlot(Addr key) const
{
    std::size_t i = idealSlot(key);
    while (table_[i].key != invalidAddr) {
        if (table_[i].key == key)
            return i;
        i = (i + 1) & tableMask_;
    }
    return npos;
}

void
HistoryBuffer::eraseSlot(std::size_t i) const
{
    // Backward-shift deletion: pull each displaced follower of the
    // probe chain into the hole so lookups never need tombstones.
    --hashCount_;
    std::size_t j = i;
    for (;;) {
        j = (j + 1) & tableMask_;
        if (table_[j].key == invalidAddr)
            break;
        const std::size_t h = idealSlot(table_[j].key);
        if (((i - h) & tableMask_) < ((j - h) & tableMask_)) {
            table_[i] = table_[j];
            i = j;
        }
    }
    table_[i] = HashSlot{};
}

void
HistoryBuffer::eraseHashIfAt(Addr tgt, std::uint64_t seq)
{
    const std::size_t i = findSlot(tgt);
    if (i != npos && table_[i].seq == seq)
        eraseSlot(i);
}

std::optional<std::uint64_t>
HistoryBuffer::find(Addr tgt) const
{
    const std::size_t i = findSlot(tgt);
    if (i == npos)
        return std::nullopt;
    const std::uint64_t seq = table_[i].seq;
    // The hash tracks locations, not content; an entry can outlive
    // what it points at (a caller re-binding locations out of
    // order). Purge instead of merely rejecting, so stale entries
    // cannot accumulate.
    if (!inWindow(seq) || storage_[seq % storage_.size()].tgt != tgt) {
        eraseSlot(i);
        return std::nullopt;
    }
    return seq;
}

std::uint64_t
HistoryBuffer::insert(const Entry &entry)
{
    const std::uint64_t seq = nextSeq_++;
    Entry &slot = storage_[seq % storage_.size()];
    if (count_ < storage_.size()) {
        ++count_;
    } else {
        // Evicting the oldest entry: drop its hash pointer if it
        // still points exactly at the sequence number being
        // overwritten. This keeps the table bounded by the window.
        eraseHashIfAt(slot.tgt, seq - storage_.size());
    }
    slot = entry;
    return seq;
}

void
HistoryBuffer::setHashLocation(Addr tgt, std::uint64_t seq)
{
    RSEL_ASSERT(tgt != invalidAddr,
                "cannot hash the invalid address");
    std::size_t i = idealSlot(tgt);
    while (table_[i].key != invalidAddr && table_[i].key != tgt)
        i = (i + 1) & tableMask_;
    if (table_[i].key == invalidAddr) {
        RSEL_ASSERT(hashCount_ + 1 < table_.size(),
                    "history-buffer hash overfilled (purge broken?)");
        table_[i].key = tgt;
        ++hashCount_;
    }
    table_[i].seq = seq;
}

const HistoryBuffer::Entry &
HistoryBuffer::at(std::uint64_t seq) const
{
    RSEL_ASSERT(inWindow(seq), "history-buffer sequence out of window");
    return storage_[seq % storage_.size()];
}

std::uint64_t
HistoryBuffer::lastSeq() const
{
    RSEL_ASSERT(count_ > 0, "history buffer is empty");
    return nextSeq_ - 1;
}

void
HistoryBuffer::truncateAfter(std::uint64_t seq)
{
    RSEL_ASSERT(inWindow(seq), "cannot truncate to an evicted entry");
    // Purge hash entries pointing into the dropped range before the
    // window moves: those sequence numbers will be handed out again
    // by future inserts (nextSeq_ rewinds below), so a surviving
    // pointer would alias a different branch.
    for (std::uint64_t s = seq + 1; s < nextSeq_; ++s)
        eraseHashIfAt(storage_[s % storage_.size()].tgt, s);
    count_ -= static_cast<std::size_t>(nextSeq_ - 1 - seq);
    nextSeq_ = seq + 1;
}

void
HistoryBuffer::clear()
{
    count_ = 0;
    // Without this the target hash keeps every address ever hashed,
    // growing its probe chains across clears; the stale entries are
    // out-of-window (so find() was already correct) but the
    // occupancy is pure leak.
    if (hashCount_ != 0) {
        std::fill(table_.begin(), table_.end(), HashSlot{});
        hashCount_ = 0;
    }
}

} // namespace rsel
