#include "runtime/icache.hpp"

#include <bit>
#include <limits>

#include "support/error.hpp"

namespace rsel {

namespace {

constexpr std::uint64_t invalidTag =
    std::numeric_limits<std::uint64_t>::max();

bool
isPowerOfTwo(std::uint32_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

ICacheModel::ICacheModel(ICacheConfig cfg)
    : cfg_(cfg)
{
    RSEL_ASSERT(isPowerOfTwo(cfg_.lineBytes),
                "line size must be a power of two");
    RSEL_ASSERT(cfg_.ways >= 1, "need at least one way");
    RSEL_ASSERT(cfg_.sizeBytes >= cfg_.lineBytes * cfg_.ways,
                "cache must hold at least one set");
    sets_ = cfg_.sizeBytes / (cfg_.lineBytes * cfg_.ways);
    RSEL_ASSERT(isPowerOfTwo(sets_),
                "set count must be a power of two");
    lineShift_ =
        static_cast<std::uint32_t>(std::countr_zero(cfg_.lineBytes));
    setShift_ = static_cast<std::uint32_t>(std::countr_zero(sets_));
    tags_.assign(static_cast<std::size_t>(sets_) * cfg_.ways,
                 invalidTag);
    stamps_.assign(tags_.size(), 0);
}

ICacheModel::Hot
ICacheModel::fetchAndMemoize(Hot h, Addr addr, std::uint64_t bytes,
                             FetchMemo &memo)
{
    const std::uint32_t lines = linesSpanned(addr, bytes);
    std::uint64_t line = addr >> lineShift_;
    for (std::uint32_t k = 0; k < lines; ++k, ++line) {
        accessLine(h, line);
        if (k == 0)
            memo.first = static_cast<std::uint32_t>(h.lastWay);
    }
    memo.last = static_cast<std::uint32_t>(h.lastWay);
    // The two lines of a two-line span sit in different sets when
    // there are at least two, so the second's access cannot have
    // evicted the first: both are resident, in the slots noted, at
    // today's miss count.
    const bool fits =
        (lines == 1 || (lines == 2 && sets_ >= 2)) &&
        h.misses + 1 < std::numeric_limits<std::uint32_t>::max();
    memo.key = fits ? static_cast<std::uint32_t>(h.misses + 1) : 0;
    return h;
}

double
ICacheModel::missRate() const
{
    if (hot_.accesses == 0)
        return 0.0;
    return static_cast<double>(hot_.misses) /
           static_cast<double>(hot_.accesses);
}

} // namespace rsel
