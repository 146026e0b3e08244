/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * We implement xoshiro256** directly rather than relying on
 * std::mt19937 so that workload streams are bit-identical across
 * standard libraries and platforms — reproducibility of the synthetic
 * SPEC-like suite is a correctness requirement for the benchmarks.
 */

#ifndef RSEL_SUPPORT_RANDOM_HPP
#define RSEL_SUPPORT_RANDOM_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "support/error.hpp"

namespace rsel {

/**
 * xoshiro256** 1.0 pseudo-random generator (Blackman & Vigna).
 *
 * Seeded through splitmix64 so that small consecutive seeds yield
 * uncorrelated streams.
 */
class Rng
{
  public:
    /** Construct a generator from a 64-bit seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    // The draws are defined inline, as the hottest leaf calls of the
    // whole simulation: the executor draws once per conditional or
    // indirect branch event, and an armed FaultInjector three times
    // per event. There the bound is a constant, so the inlined
    // nextBelow multiplies instead of dividing.

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t
    nextBelow(std::uint64_t bound)
    {
        RSEL_ASSERT(bound != 0, "nextBelow requires a positive bound");
        // Rejection sampling to avoid modulo bias.
        const std::uint64_t threshold = -bound % bound;
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi. */
    std::uint64_t
    nextRange(std::uint64_t lo, std::uint64_t hi)
    {
        RSEL_ASSERT(lo <= hi, "nextRange requires lo <= hi");
        return lo + nextBelow(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial: true with probability p (clamped to [0,1]). */
    bool
    nextBool(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

    /**
     * Pick an index according to a discrete weight vector: scale one
     * nextDouble() by `total`, then subtract the weights in order.
     * @param weights non-negative weights.
     * @param total   their sum, added left to right from 0.0 (the
     *                caller computes it once per weight row, not
     *                once per draw); must be positive.
     * @return index in [0, weights.size()).
     */
    std::size_t
    nextWeighted(std::span<const double> weights, double total)
    {
        RSEL_ASSERT(total > 0.0, "at least one weight must be positive");
        double r = nextDouble() * total;
        for (std::size_t i = 0; i < weights.size(); ++i) {
            r -= weights[i];
            if (r < 0.0)
                return i;
        }
        return weights.size() - 1;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

} // namespace rsel

#endif // RSEL_SUPPORT_RANDOM_HPP
