/**
 * @file
 * Order statistics the benchmark reports: the median, the quartiles (the
 * same "exclusive" method as Python's statistics.quantiles, so the
 * steadiness tool and the benchmark agree), nearest-rank percentiles, and
 * the highest percentile that still has at least ten samples beyond it.
 */
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/** Median of @p values; 0 for an empty set. */
double Median(std::vector<double> values);

/** First quartile, median and third quartile. */
struct Quartiles {
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
};

/**
 * Quartiles by statistics.quantiles(values, n=4) (method "exclusive").
 * A single value is its own quartiles; an empty set gives zeros.
 */
Quartiles ComputeQuartiles(std::vector<double> values);

/**
 * The nearest-rank @p level percentile of @p values (0 < level <= 100):
 * the smallest sample with at least level% of the samples at or below it;
 * 0 for an empty set.
 */
double Percentile(std::vector<double> values, double level);

/** A percentile of a sample set and how many samples lie beyond it. */
struct TailPercentile {
    /** Percentile level, e.g. 90 or 99; 0 when no level qualifies. */
    double level = 0.0;
    double value = 0.0;
    size_t beyond = 0;
};

/**
 * The highest level of {99.9, 99, 95, 90, 75, 50} whose nearest-rank
 * percentile has at least @p min_beyond samples strictly above its rank.
 * Returns level 0 when even the median has fewer.
 */
TailPercentile HighestTailPercentile(std::vector<double> values,
                                     size_t min_beyond = 10);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
