/**
 * @file
 * Unit tests for LEI's circular branch-history buffer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "selection/history_buffer.hpp"
#include "support/error.hpp"
#include "support/random.hpp"

namespace rsel {
namespace {

HistoryBuffer::Entry
entry(Addr src, Addr tgt, bool exitFlag = false)
{
    return {src, tgt, exitFlag};
}

TEST(HistoryBufferTest, InsertFindAndUpdate)
{
    HistoryBuffer buf(8);
    EXPECT_TRUE(buf.empty());
    EXPECT_FALSE(buf.find(0x100).has_value());

    const auto s0 = buf.insert(entry(0x10, 0x100));
    buf.setHashLocation(0x100, s0);
    EXPECT_EQ(buf.size(), 1u);
    ASSERT_TRUE(buf.find(0x100).has_value());
    EXPECT_EQ(*buf.find(0x100), s0);
    EXPECT_EQ(buf.at(s0).src, 0x10u);
    EXPECT_FALSE(buf.at(s0).fromCacheExit);

    // A second occurrence: find() sees the recorded location until
    // the hash is repointed.
    const auto s1 = buf.insert(entry(0x20, 0x100));
    EXPECT_EQ(*buf.find(0x100), s0);
    buf.setHashLocation(0x100, s1);
    EXPECT_EQ(*buf.find(0x100), s1);
}

TEST(HistoryBufferTest, EvictionInvalidatesOldEntries)
{
    HistoryBuffer buf(4);
    const auto s0 = buf.insert(entry(0x10, 0x100));
    buf.setHashLocation(0x100, s0);
    for (Addr a = 0; a < 4; ++a) {
        const auto s = buf.insert(entry(0x20, 0x200 + a));
        buf.setHashLocation(0x200 + a, s);
    }
    // 0x100's entry has been overwritten by the wrap.
    EXPECT_FALSE(buf.find(0x100).has_value());
    EXPECT_FALSE(buf.inWindow(s0));
    EXPECT_EQ(buf.size(), 4u);
}

TEST(HistoryBufferTest, TruncateDropsSuffix)
{
    HistoryBuffer buf(8);
    const auto s0 = buf.insert(entry(0x1, 0xA));
    buf.setHashLocation(0xA, s0);
    const auto s1 = buf.insert(entry(0x2, 0xB));
    buf.setHashLocation(0xB, s1);
    const auto s2 = buf.insert(entry(0x3, 0xC));
    buf.setHashLocation(0xC, s2);

    buf.truncateAfter(s0);
    EXPECT_EQ(buf.size(), 1u);
    EXPECT_TRUE(buf.inWindow(s0));
    EXPECT_FALSE(buf.inWindow(s1));
    EXPECT_FALSE(buf.inWindow(s2));
    // Stale hash entries are rejected lazily.
    EXPECT_FALSE(buf.find(0xB).has_value());
    EXPECT_TRUE(buf.find(0xA).has_value());
}

TEST(HistoryBufferTest, ReuseAfterTruncationChecksContent)
{
    HistoryBuffer buf(8);
    const auto s0 = buf.insert(entry(0x1, 0xA));
    buf.setHashLocation(0xA, s0);
    const auto s1 = buf.insert(entry(0x2, 0xB));
    buf.setHashLocation(0xB, s1);
    buf.truncateAfter(s0);

    // The slot that held 0xB is re-filled by a different target;
    // 0xB's stale hash entry must not match it.
    const auto s2 = buf.insert(entry(0x3, 0xC));
    buf.setHashLocation(0xC, s2);
    EXPECT_EQ(s2, s1); // sequence numbers restart after the cut
    EXPECT_FALSE(buf.find(0xB).has_value());
    EXPECT_EQ(*buf.find(0xC), s2);
}

TEST(HistoryBufferTest, CacheExitFlagIsPreserved)
{
    HistoryBuffer buf(4);
    const auto s = buf.insert(entry(0x9, 0x90, true));
    EXPECT_TRUE(buf.at(s).fromCacheExit);
}

TEST(HistoryBufferTest, LastSeqTracksNewestEntry)
{
    HistoryBuffer buf(4);
    buf.insert(entry(0x1, 0xA));
    const auto s1 = buf.insert(entry(0x2, 0xB));
    EXPECT_EQ(buf.lastSeq(), s1);
}

TEST(HistoryBufferTest, ClearEmptiesBufferAndTargetHash)
{
    HistoryBuffer buf(4);
    for (Addr a = 0; a < 8; ++a) {
        const auto s = buf.insert(entry(0x10 + a, 0x100 + a));
        buf.setHashLocation(0x100 + a, s);
    }
    EXPECT_EQ(buf.size(), 4u);
    EXPECT_GT(buf.hashedTargets(), 0u);

    buf.clear();
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(buf.size(), 0u);
    // The regression: clear() used to leave the target hash fully
    // populated, so it grew without bound across clears.
    EXPECT_EQ(buf.hashedTargets(), 0u);
    for (Addr a = 0; a < 8; ++a)
        EXPECT_FALSE(buf.find(0x100 + a).has_value());

    // The buffer is fully usable after a clear, and repeated
    // clear cycles do not accumulate hash entries.
    for (int round = 0; round < 3; ++round) {
        const auto s = buf.insert(entry(0x20, 0x200));
        buf.setHashLocation(0x200, s);
        EXPECT_EQ(*buf.find(0x200), s);
        EXPECT_EQ(buf.hashedTargets(), 1u);
        buf.clear();
        EXPECT_EQ(buf.hashedTargets(), 0u);
        EXPECT_FALSE(buf.find(0x200).has_value());
    }
}

TEST(HistoryBufferTest, TruncationDoesNotLeakHashEntries)
{
    // Regression: truncateAfter() rewinds the sequence counter but
    // used to leave the dropped entries' target-hash pointers in
    // place. Each truncate-heavy cycle with fresh target addresses
    // then grew the hash by a few entries, without bound. The purge
    // discipline keeps the live hash bounded by the buffer capacity.
    constexpr std::size_t cap = 16;
    HistoryBuffer buf(cap);
    Addr nextTgt = 0x1000;
    for (int round = 0; round < 10000; ++round) {
        // Grow a few entries with never-before-seen targets...
        const auto anchor = buf.insert(entry(0x10, nextTgt));
        buf.setHashLocation(nextTgt, anchor);
        nextTgt += 8;
        for (int k = 0; k < 3; ++k) {
            const auto s = buf.insert(entry(0x20, nextTgt));
            buf.setHashLocation(nextTgt, s);
            nextTgt += 8;
        }
        // ...then cut back to the anchor, as LEI does after forming
        // a trace (Figure 5, line 13).
        buf.truncateAfter(anchor);
        ASSERT_LE(buf.hashedTargets(), cap)
            << "hash leaked after " << round << " truncations";
    }
    // The buffer itself stays fully functional.
    const auto s = buf.insert(entry(0x30, 0x42));
    buf.setHashLocation(0x42, s);
    EXPECT_EQ(*buf.find(0x42), s);
}

TEST(HistoryBufferTest, EvictionBoundsHashOccupancy)
{
    // Same bound for the wrap-around path: evicting the oldest entry
    // drops its hash pointer, so streaming distinct targets through
    // the buffer never accumulates more than capacity() entries.
    constexpr std::size_t cap = 8;
    HistoryBuffer buf(cap);
    for (Addr a = 0; a < 4096; ++a) {
        const auto s = buf.insert(entry(0x10, 0x1000 + a * 8));
        buf.setHashLocation(0x1000 + a * 8, s);
        ASSERT_LE(buf.hashedTargets(), cap);
    }
    EXPECT_EQ(buf.size(), cap);
}

/**
 * Brute-force reference for a HistoryBuffer: the live window as a
 * plain list of (sequence number, target) and the target hash as a
 * map, each operation spelled out the slow, obvious way.
 */
class WindowModel
{
  public:
    explicit WindowModel(std::size_t capacity) : capacity_(capacity) {}

    std::optional<std::uint64_t>
    find(Addr tgt)
    {
        const auto it = hash_.find(tgt);
        if (it == hash_.end())
            return std::nullopt;
        const std::uint64_t seq = it->second;
        for (const auto &[s, t] : window_)
            if (s == seq && t == tgt)
                return seq;
        hash_.erase(it); // stale: find() purges what it rejects
        return std::nullopt;
    }

    std::uint64_t
    insert(Addr tgt)
    {
        if (window_.size() == capacity_) {
            const auto [s, t] = window_.front();
            window_.pop_front();
            unhashIfAt(t, s);
        }
        window_.emplace_back(nextSeq_, tgt);
        return nextSeq_++;
    }

    void setHashLocation(Addr tgt, std::uint64_t seq) { hash_[tgt] = seq; }

    void
    truncateAfter(std::uint64_t seq)
    {
        while (window_.back().first > seq) {
            const auto [s, t] = window_.back();
            window_.pop_back();
            unhashIfAt(t, s);
        }
        nextSeq_ = seq + 1;
    }

    void
    clear()
    {
        window_.clear();
        hash_.clear();
    }

    /** The i-th oldest live sequence number. */
    std::uint64_t seqAt(std::size_t i) const { return window_[i].first; }
    std::size_t size() const { return window_.size(); }
    std::size_t hashed() const { return hash_.size(); }

  private:
    void
    unhashIfAt(Addr tgt, std::uint64_t seq)
    {
        const auto it = hash_.find(tgt);
        if (it != hash_.end() && it->second == seq)
            hash_.erase(it);
    }

    std::size_t capacity_;
    std::uint64_t nextSeq_ = 0;
    std::deque<std::pair<std::uint64_t, Addr>> window_;
    std::map<Addr, std::uint64_t> hash_;
};

TEST(HistoryBufferTest, BoundedTargetTableMatchesBruteForceModel)
{
    // A bound of 7 targets shrinks the table to 16 slots (from 1024
    // for capacity 500). The seven targets all hash to the last
    // slot, so every probe chain wraps around the table's end and
    // every erase backward-shifts through it.
    constexpr std::size_t cap = 500;
    constexpr std::size_t bound = 7;
    std::vector<Addr> targets;
    for (Addr a = 0x1000; targets.size() < bound; a += 4)
        if (((a * 0x9E3779B97F4A7C15ull) >> 60) == 15)
            targets.push_back(a);

    HistoryBuffer buf(cap, bound);
    WindowModel model(cap);
    Rng rng(15);
    const auto anyTarget = [&] { return targets[rng.nextBelow(bound)]; };
    const auto liveSeq = [&] {
        return model.seqAt(rng.nextBelow(model.size()));
    };
    // Cut near the end, as LEI does after a short cycle, so the
    // window still fills up and wraps.
    const auto recentSeq = [&] {
        const std::size_t back = rng.nextBelow(
            std::min<std::size_t>(model.size(), 8));
        return model.seqAt(model.size() - 1 - back);
    };
    std::size_t widest = 0;
    for (int op = 0; op < 100'000; ++op) {
        const std::uint64_t roll = rng.nextBelow(10'000);
        if (roll < 5000) {
            // LEI's step: look the target up, record, re-point.
            const Addr tgt = anyTarget();
            ASSERT_EQ(buf.find(tgt), model.find(tgt)) << "op " << op;
            const std::uint64_t seq = buf.insert(entry(0x10, tgt));
            ASSERT_EQ(seq, model.insert(tgt));
            buf.setHashLocation(tgt, seq);
            model.setHashLocation(tgt, seq);
        } else if (roll < 6500) {
            const Addr tgt = anyTarget();
            ASSERT_EQ(buf.find(tgt), model.find(tgt)) << "op " << op;
        } else if (roll < 7500) {
            const Addr tgt = anyTarget();
            ASSERT_EQ(buf.insert(entry(0x20, tgt)), model.insert(tgt));
        } else if (roll < 8700 && model.size() != 0) {
            // Point a target at an arbitrary live entry, usually one
            // holding another target: find() must reject and purge.
            const Addr tgt = anyTarget();
            const std::uint64_t seq = liveSeq();
            buf.setHashLocation(tgt, seq);
            model.setHashLocation(tgt, seq);
        } else if (roll < 9998 && model.size() != 0) {
            const std::uint64_t seq = recentSeq();
            buf.truncateAfter(seq);
            model.truncateAfter(seq);
        } else if (roll >= 9998) {
            buf.clear();
            model.clear();
        }
        ASSERT_EQ(buf.size(), model.size()) << "op " << op;
        ASSERT_EQ(buf.hashedTargets(), model.hashed()) << "op " << op;
        ASSERT_LE(buf.hashedTargets(), bound) << "op " << op;
        widest = std::max(widest, model.size());
    }
    EXPECT_EQ(widest, cap) << "the window never filled";
}

TEST(HistoryBufferTest, GuardsAgainstMisuse)
{
    HistoryBuffer buf(4);
    EXPECT_THROW(buf.lastSeq(), PanicError);
    EXPECT_THROW(buf.at(0), PanicError);
    EXPECT_THROW(HistoryBuffer(0), PanicError);
}

} // namespace
} // namespace rsel
