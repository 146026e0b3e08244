#include "support/random.hpp"

#include "support/error.hpp"

namespace rsel {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
}

void
Rng::zeroBound()
{
    panic("nextBelow requires a positive bound");
}

std::uint64_t
Rng::nextRange(std::uint64_t lo, std::uint64_t hi)
{
    RSEL_ASSERT(lo <= hi, "nextRange requires lo <= hi");
    return lo + nextBelow(hi - lo + 1);
}

std::size_t
Rng::nextWeighted(std::span<const double> weights)
{
    double total = 0.0;
    for (double w : weights) {
        RSEL_ASSERT(w >= 0.0, "weights must be non-negative");
        total += w;
    }
    RSEL_ASSERT(total > 0.0, "at least one weight must be positive");

    double r = nextDouble() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        r -= weights[i];
        if (r < 0.0)
            return i;
    }
    return weights.size() - 1;
}

} // namespace rsel
