/**
 * @file
 * Small statistics helpers used by the metrics and bench layers.
 */

#ifndef RSEL_SUPPORT_STATS_HPP
#define RSEL_SUPPORT_STATS_HPP

#include <cstdint>
#include <vector>

namespace rsel {

/** Arithmetic mean. @return 0 for an empty vector. */
double mean(const std::vector<double> &values);

/**
 * Safe ratio: numerator / denominator, or `ifZero` when the
 * denominator is zero. Used for relative-to-baseline figures where a
 * degenerate workload could produce a zero baseline.
 */
double ratio(double numerator, double denominator, double ifZero = 1.0);

} // namespace rsel

#endif // RSEL_SUPPORT_STATS_HPP
