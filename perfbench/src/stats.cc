#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double
Median(std::vector<double> values)
{
    return ComputeQuartiles(std::move(values)).median;
}

Quartiles
ComputeQuartiles(std::vector<double> values)
{
    Quartiles q;
    const size_t n = values.size();
    if (n == 0) {
        return q;
    }
    std::sort(values.begin(), values.end());
    if (n == 1) {
        q.q1 = q.median = q.q3 = values[0];
        return q;
    }
    // statistics.quantiles, method="exclusive": m = n + 1 and cut point i
    // sits at position i*m/4 (1-based), clamped to [1, n-1] and then
    // interpolated (or, past the ends, extrapolated) from its neighbours.
    const auto cut = [&](long long i) {
        const long long last = static_cast<long long>(n) - 1;
        const long long m = static_cast<long long>(n) + 1;
        const long long j = std::clamp(i * m / 4, 1LL, last);
        const long long delta = i * m - j * 4;
        return (values[j - 1] * static_cast<double>(4 - delta) +
                values[j] * static_cast<double>(delta)) /
               4.0;
    };
    q.q1 = cut(1);
    q.median = cut(2);
    q.q3 = cut(3);
    return q;
}

namespace {

/** Nearest rank: the smallest 1-based rank covering level% of n samples. */
size_t
NearestRank(size_t n, double level)
{
    return std::max<size_t>(
        1, static_cast<size_t>(
               std::ceil(level / 100.0 * static_cast<double>(n) - 1e-9)));
}

}  // namespace

double
Percentile(std::vector<double> values, double level)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    return values[NearestRank(values.size(), level) - 1];
}

TailPercentile
HighestTailPercentile(std::vector<double> values, size_t min_beyond)
{
    TailPercentile tail;
    const size_t n = values.size();
    if (n == 0) {
        return tail;
    }
    std::sort(values.begin(), values.end());
    for (const double level : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        const size_t rank = NearestRank(n, level);
        const size_t beyond = n - rank;
        if (beyond >= min_beyond) {
            tail.level = level;
            tail.value = values[rank - 1];
            tail.beyond = beyond;
            return tail;
        }
    }
    return tail;
}

}  // namespace perfbench
