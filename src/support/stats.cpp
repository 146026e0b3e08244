#include "support/stats.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace rsel {

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
maxOf(const std::vector<double> &values)
{
    RSEL_ASSERT(!values.empty(), "maxOf requires a non-empty vector");
    return *std::max_element(values.begin(), values.end());
}

double
ratio(double numerator, double denominator, double ifZero)
{
    if (denominator == 0.0)
        return ifZero;
    return numerator / denominator;
}

} // namespace rsel
