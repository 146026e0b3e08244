/**
 * @file
 * Instruction-cache model over the code-cache layout.
 *
 * The paper's central motivation for better region selection is
 * instruction-fetch locality: "Separation degrades performance
 * because it reduces locality of execution — and therefore
 * instruction cache performance — as control jumps between distant
 * traces." Region transitions are the paper's proxy; this model
 * measures the effect directly. Regions are laid out contiguously
 * in the code cache in selection order (each trailing its exit
 * stubs, as DynamoRIO does), and every instruction fetched from the
 * cache is run through a set-associative I-cache.
 *
 * The default geometry (4 KiB, 2-way, 64-byte lines) is scaled down
 * ~8x from a typical 32 KiB L1I to match the synthetic workloads'
 * ~100x-smaller code footprints; benches can sweep it.
 */

#ifndef RSEL_RUNTIME_ICACHE_HPP
#define RSEL_RUNTIME_ICACHE_HPP

#include <cstdint>
#include <limits>
#include <vector>

#include "isa/types.hpp"

namespace rsel {

/** Geometry of the modelled instruction cache. */
struct ICacheConfig
{
    /** Total capacity in bytes. */
    std::uint32_t sizeBytes = 4096;
    /** Line size in bytes. */
    std::uint32_t lineBytes = 64;
    /** Associativity (ways per set). */
    std::uint32_t ways = 2;
};

/** A set-associative, LRU instruction cache fed by byte ranges. */
class ICacheModel
{
  public:
    /**
     * Where one fetch's lines were found, keyed by the miss count
     * they were found at. Only a miss writes a tag, so while the
     * model's miss count is unchanged every line still sits in its
     * memoized slot: the fetch is a hit on every line, and all it
     * changes is the recency stamps. A memo covers spans of one or
     * two lines (a block that fits in a line, or straddles two).
     */
    struct FetchMemo
    {
        /** The model's miss count + 1 when the slots were taken; 0
         *  for none (a count past 2^32 - 2 is never memoized). */
        std::uint32_t key = 0;
        /** Slot (set * ways + way) of the span's first line. */
        std::uint32_t first = 0;
        /** Slot of its last line; `first` for a one-line span. */
        std::uint32_t last = 0;
    };

    explicit ICacheModel(ICacheConfig cfg = {});

    /**
     * Fetch `bytes` bytes starting at `addr`: one access per line
     * touched. @return the number of misses incurred. Defined inline
     * — it runs once per cached-block event on the per-event path,
     * and the line/set math reduces to shifts (geometry is asserted
     * power-of-two).
     */
    std::uint32_t
    fetchRange(Addr addr, std::uint32_t bytes)
    {
        if (bytes == 0)
            return 0;
        const std::uint64_t first = addr >> lineShift_;
        const std::uint64_t last = (addr + bytes - 1) >> lineShift_;
        std::uint32_t missCount = 0;
        for (std::uint64_t line = first; line <= last; ++line)
            missCount += accessLine(hot_, line) ? 1 : 0;
        return missCount;
    }

    /** The run loop's bulk form of fetchRange (defined below). */
    class Run;

    /** Line accesses so far. */
    std::uint64_t accesses() const { return hot_.accesses; }

    /** Line misses so far. */
    std::uint64_t misses() const { return hot_.misses; }

    /** Miss rate in [0, 1]; 0 when nothing was fetched. */
    double missRate() const;

    /** The geometry in use. */
    const ICacheConfig &config() const { return cfg_; }

    /** Testing probe: tags, indexed set * ways + way; ~0 = invalid. */
    const std::vector<std::uint64_t> &tags() const { return tags_; }

    /** Testing probe: LRU stamps parallel to tags(). */
    const std::vector<std::uint64_t> &stamps() const { return stamps_; }

  private:
    /** What every access changes besides the tags and stamps. */
    struct Hot
    {
        std::uint64_t clock = 0;
        std::uint64_t accesses = 0;
        std::uint64_t misses = 0;
        /**
         * MRU shortcut: the line of the previous access and the way
         * it occupies. An access repeating the previous line is a
         * guaranteed hit (nothing was evicted in between) and only
         * refreshes the LRU stamp — identical counters to the full
         * scan.
         */
        std::uint64_t lastLine = ~std::uint64_t{0};
        std::size_t lastWay = 0;
    };

    /** Lines the byte span [addr, addr + bytes) touches. */
    std::uint32_t
    linesSpanned(Addr addr, std::uint64_t bytes) const
    {
        if (bytes == 0)
            return 0;
        return static_cast<std::uint32_t>(((addr + bytes - 1) >> lineShift_) -
                                          (addr >> lineShift_) + 1);
    }

    /**
     * Run::fetch's slow path, out of line: the per-access model over
     * the byte span [addr, addr + bytes), counting into `h` (a Run's
     * copy of the hot state, passed and returned by value so the Run
     * keeps its copy in registers), then a fresh `memo`.
     */
    Hot fetchAndMemoize(Hot h, Addr addr, std::uint64_t bytes,
                        FetchMemo &memo);

    /**
     * One line access, the per-access model, counting into `h` (the
     * model's own state, or a Run's copy of it). @return true on
     * miss.
     */
    bool
    accessLine(Hot &h, std::uint64_t lineAddr)
    {
        ++h.accesses;
        ++h.clock;
        if (lineAddr == h.lastLine) {
            // Same line as the previous access: it still sits where
            // we left it (only accesses mutate the arrays, and the
            // previous one stamped this way most-recently-used, so no
            // later eviction could have picked it). Refresh the stamp
            // exactly as the scan below would.
            stamps_[h.lastWay] = h.clock;
            return false;
        }
        const std::uint32_t set =
            static_cast<std::uint32_t>(lineAddr & (sets_ - 1));
        const std::uint64_t tag = lineAddr >> setShift_;
        const std::size_t base =
            static_cast<std::size_t>(set) * cfg_.ways;

        std::size_t victim = base;
        for (std::size_t w = base; w < base + cfg_.ways; ++w) {
            if (tags_[w] == tag) {
                stamps_[w] = h.clock;
                h.lastLine = lineAddr;
                h.lastWay = w;
                return false; // hit
            }
            if (stamps_[w] < stamps_[victim])
                victim = w;
        }
        ++h.misses;
        tags_[victim] = tag;
        stamps_[victim] = h.clock;
        h.lastLine = lineAddr;
        h.lastWay = victim;
        return true;
    }

    ICacheConfig cfg_;
    std::uint32_t sets_;
    /** log2(lineBytes) / log2(sets_): the divisions as shifts. */
    std::uint32_t lineShift_ = 0;
    std::uint32_t setShift_ = 0;
    /** tags_[set * ways + way]; ~0 = invalid. */
    std::vector<std::uint64_t> tags_;
    /** LRU stamps parallel to tags_. */
    std::vector<std::uint64_t> stamps_;
    Hot hot_;
};

/**
 * A run of memoized fetches: the batch loop's bulk form of
 * fetchRange. It works on a copy of the model's hot state (clock,
 * counters, MRU line), which the compiler keeps in registers, and
 * writes it back when the run ends. While a run is open, only it may
 * touch the model.
 */
class ICacheModel::Run
{
  public:
    explicit Run(ICacheModel &model) : model_(model), hot_(model.hot_) {}

    Run(const Run &) = delete;
    Run &operator=(const Run &) = delete;

    ~Run() { model_.hot_ = hot_; }

    /**
     * fetchRange over the byte span from `addr` on, served from
     * `memo` while it is current: then each line costs a clock tick
     * and one stamp write. Otherwise `spanBytes()` gives the span's
     * length, the span takes the per-access model and the memo is
     * refreshed. Counters, tags and stamps end exactly as
     * fetchRange's would for the same span.
     */
    template <typename SpanBytes>
    void
    fetch(Addr addr, FetchMemo &memo, SpanBytes spanBytes)
    {
        ICacheModel &m = model_;
        if (memo.key != hot_.misses + 1) {
            hot_ = m.fetchAndMemoize(hot_, addr, spanBytes(), memo);
            return;
        }
        // accessLine's hits, without a branch: a one-line span
        // writes its one stamp twice, with the same value.
        const std::uint64_t lines = memo.last != memo.first ? 2 : 1;
        m.stamps_[memo.first] = hot_.clock + 1;
        m.stamps_[memo.last] = hot_.clock + lines;
        hot_.clock += lines;
        hot_.accesses += lines;
        hot_.lastLine = (addr >> m.lineShift_) + lines - 1;
        hot_.lastWay = memo.last;
    }

  private:
    ICacheModel &model_;
    Hot hot_;
};

} // namespace rsel

#endif // RSEL_RUNTIME_ICACHE_HPP
