#include "support/stats.hpp"

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
ratio(double numerator, double denominator, double ifZero)
{
    if (denominator == 0.0)
        return ifZero;
    return numerator / denominator;
}

} // namespace rsel
