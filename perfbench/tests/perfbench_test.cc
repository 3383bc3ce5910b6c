// Self-tests of the benchmark's own arithmetic: order statistics, span
// self time, job accounting and the strict command line.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "cli.h"
#include "report.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(StatsTest, MedianOfOddAndEvenSets)
{
    EXPECT_DOUBLE_EQ(Median({5, 1, 3}), 3.0);
    EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(Median({7}), 7.0);
    EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

// Expected values are Python's statistics.quantiles(values, n=4).
TEST(StatsTest, QuartilesMatchPythonExclusiveMethod)
{
    const Quartiles a = ComputeQuartiles({3, 1, 4, 1, 5, 9, 2, 6, 5, 3});
    EXPECT_DOUBLE_EQ(a.q1, 1.75);
    EXPECT_DOUBLE_EQ(a.median, 3.5);
    EXPECT_DOUBLE_EQ(a.q3, 5.25);

    const Quartiles b = ComputeQuartiles({1, 2, 3});
    EXPECT_DOUBLE_EQ(b.q1, 1.0);
    EXPECT_DOUBLE_EQ(b.median, 2.0);
    EXPECT_DOUBLE_EQ(b.q3, 3.0);

    // Two points: the cut points extrapolate past the ends, as in Python.
    const Quartiles c = ComputeQuartiles({2, 1});
    EXPECT_DOUBLE_EQ(c.q1, 0.75);
    EXPECT_DOUBLE_EQ(c.median, 1.5);
    EXPECT_DOUBLE_EQ(c.q3, 2.25);

    const Quartiles d = ComputeQuartiles({10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
    EXPECT_DOUBLE_EQ(d.q1, 27.5);
    EXPECT_DOUBLE_EQ(d.median, 55.0);
    EXPECT_DOUBLE_EQ(d.q3, 82.5);
}

std::vector<double>
Ramp(size_t n)
{
    std::vector<double> values;
    for (size_t i = 0; i < n; ++i) {
        values.push_back(static_cast<double>(n - i));  // unsorted on purpose
    }
    return values;
}

TEST(StatsTest, TailPercentileKeepsTenSamplesBeyond)
{
    // 19 samples: even the median has only 9 beyond it.
    EXPECT_EQ(HighestTailPercentile(Ramp(19)).level, 0.0);

    const TailPercentile p50 = HighestTailPercentile(Ramp(20));
    EXPECT_EQ(p50.level, 50.0);
    EXPECT_EQ(p50.beyond, 10u);
    EXPECT_DOUBLE_EQ(p50.value, 10.0);

    const TailPercentile p90 = HighestTailPercentile(Ramp(100));
    EXPECT_EQ(p90.level, 90.0);
    EXPECT_EQ(p90.beyond, 10u);
    EXPECT_DOUBLE_EQ(p90.value, 90.0);

    EXPECT_EQ(HighestTailPercentile(Ramp(199)).level, 90.0);
    EXPECT_EQ(HighestTailPercentile(Ramp(200)).level, 95.0);
    EXPECT_EQ(HighestTailPercentile(Ramp(1000)).level, 99.0);

    const TailPercentile p999 = HighestTailPercentile(Ramp(10000));
    EXPECT_EQ(p999.level, 99.9);
    EXPECT_EQ(p999.beyond, 10u);
    EXPECT_DOUBLE_EQ(p999.value, 9990.0);
}

TEST(StatsTest, PercentileTakesTheNearestRank)
{
    EXPECT_EQ(Percentile({}, 10.0), 0.0);
    EXPECT_DOUBLE_EQ(Percentile({7.0}, 10.0), 7.0);
    // 30 samples: p10 is the 3rd smallest, p90 the 27th.
    EXPECT_DOUBLE_EQ(Percentile(Ramp(30), 10.0), 3.0);
    EXPECT_DOUBLE_EQ(Percentile(Ramp(30), 90.0), 27.0);
    // 25 samples: 10% of them is 2.5, so the rank rounds up to 3.
    EXPECT_DOUBLE_EQ(Percentile(Ramp(25), 10.0), 3.0);
    EXPECT_DOUBLE_EQ(Percentile(Ramp(20), 100.0), 20.0);
}

Span
MakeSpan(int64_t start, int64_t end)
{
    Span span;
    span.start_ns = start;
    span.end_ns = end;
    return span;
}

TEST(TraceTest, SelfTimeSubtractsNestedChildrenOnce)
{
    const Span parent = MakeSpan(0, 1000);
    EXPECT_DOUBLE_EQ(SelfSeconds(parent, {}), 1000e-9);
    // [100, 300] contains [150, 200]: 200 ns covered, not 250.
    EXPECT_DOUBLE_EQ(SelfSeconds(parent, {MakeSpan(100, 300), MakeSpan(150, 200)}),
                     800e-9);
}

TEST(TraceTest, SelfTimeMergesOverlappingChildren)
{
    const Span parent = MakeSpan(0, 1000);
    // Parallel workers: [100, 500] and [400, 700] cover 600 ns together.
    EXPECT_DOUBLE_EQ(SelfSeconds(parent, {MakeSpan(400, 700), MakeSpan(100, 500)}),
                     400e-9);
    // Disjoint children add up.
    EXPECT_DOUBLE_EQ(SelfSeconds(parent, {MakeSpan(0, 100), MakeSpan(900, 1000)}),
                     800e-9);
    // Only the part inside the parent counts; touching intervals merge.
    EXPECT_DOUBLE_EQ(SelfSeconds(parent, {MakeSpan(-50, 50), MakeSpan(50, 100),
                                          MakeSpan(950, 1200)}),
                     850e-9);
    // Children covering everything leave no self time.
    EXPECT_DOUBLE_EQ(SelfSeconds(parent, {MakeSpan(0, 600), MakeSpan(500, 1000)}),
                     0.0);
}

TEST(TraceTest, ScopesNestOnOneThreadAndRecordNothingWhenOff)
{
    Tracer tracer(true);
    tracer.set_trace_id(3);
    uint32_t outer_id = 0;
    {
        const Tracer::Scope outer(&tracer, "outer");
        outer_id = outer.id();
        const Tracer::Scope inner(&tracer, "inner");
        const Tracer::Scope remote(&tracer, "remote", 77);
    }
    const std::vector<Span> inner = tracer.Find("inner", 3);
    ASSERT_EQ(inner.size(), 1u);
    EXPECT_EQ(inner[0].parent, outer_id);
    EXPECT_EQ(tracer.Find("remote", 3).front().parent, 77u);
    EXPECT_EQ(tracer.ChildrenOf(outer_id).size(), 1u);
    EXPECT_TRUE(tracer.Find("outer", 4).empty());

    Tracer off(false);
    {
        const Tracer::Scope span(&off, "x");
        EXPECT_EQ(span.id(), 0u);
    }
    const Tracer::Scope null_span(nullptr, "y");
    EXPECT_TRUE(off.spans().empty());
}

TEST(ReportTest, FailedShareCountsInvariantBreaksButNotAsFailedJobs)
{
    JobAccount chaos;
    chaos.attempted = 64;
    chaos.invariant_broken = 7;
    EXPECT_EQ(chaos.failed(), 0u);
    EXPECT_DOUBLE_EQ(chaos.failed_share(), 7.0 / 64.0);
    EXPECT_DOUBLE_EQ(chaos.ok_share(), 57.0 / 64.0);

    JobAccount broken;
    broken.attempted = 18;
    broken.threw = 1;
    broken.check_failed = 2;
    EXPECT_EQ(broken.failed(), 3u);
    EXPECT_DOUBLE_EQ(broken.failed_share(), 3.0 / 18.0);

    JobAccount total;
    total += chaos;
    total += broken;
    EXPECT_EQ(total.attempted, 82u);
    EXPECT_EQ(total.failed(), 3u);
    EXPECT_DOUBLE_EQ(total.failed_share(), 10.0 / 82.0);

    EXPECT_DOUBLE_EQ(JobAccount().failed_share(), 0.0);
}

TEST(ReportTest, ResultLineIsCorrectOnlyWithoutFailures)
{
    JobAccount ok;
    ok.attempted = 3;
    const std::vector<Metric> metrics = {{"wall_s", 1.5, "s"}, {"n", 2, "count"}};
    EXPECT_TRUE(IsCorrect(ok, metrics));
    EXPECT_EQ(ResultLine(ok, metrics),
              "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
              "{\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}, "
              "\"n\": {\"value\": 2, \"unit\": \"count\"}}}");

    JobAccount failed = ok;
    failed.check_failed = 1;
    EXPECT_FALSE(IsCorrect(failed, metrics));
    EXPECT_EQ(ResultLine(failed, {}).rfind("{\"correct\": false, \"attempted\": 3, "
                                           "\"failed\": 1",
                                           0),
              0u);

    EXPECT_FALSE(IsCorrect(JobAccount(), metrics));
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(IsCorrect(ok, {{"x", nan, "s"}}));
}

const std::vector<std::string> kNames = {"alpha", "beta"};

ParseResult
Parse(std::vector<std::string> argv)
{
    return ParseArgs(argv, kNames);
}

TEST(CliTest, AcceptsBothFlagForms)
{
    const ParseResult a = Parse(
        {"--workload", "beta", "--seed", "42", "--seconds", "7", "--trace", "1"});
    ASSERT_TRUE(a.ok) << a.error;
    EXPECT_EQ(a.args.workload, "beta");
    EXPECT_EQ(a.args.seed, 42u);
    EXPECT_EQ(a.args.seconds, 7);
    EXPECT_TRUE(a.args.trace);
    EXPECT_EQ(a.args.jobs, 0);

    const ParseResult b = Parse({"--workload=alpha", "--seed=18446744073709551615",
                                 "--seconds=25", "--jobs=4", "--trace=0"});
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_EQ(b.args.seed, 18446744073709551615ull);
    EXPECT_EQ(b.args.jobs, 4);
    EXPECT_FALSE(b.args.trace);
    EXPECT_EQ(b.args.seconds, 25);
}

TEST(CliTest, RejectsUnknownFlagsAndNames)
{
    using Argv = std::vector<std::string>;
    for (const Argv& argv : std::vector<Argv>{
             {"--workload", "alpha", "--seed", "1", "--seconds", "5", "--help"},
             {"--workload", "alpha", "--seed", "1", "--seconds", "5", "--job=4"},
             {"--workload", "alpha", "--seed", "1", "--seconds", "5", "--fast"},
             {"--workload", "gamma", "--seed", "1", "--seconds", "5"},
             {"--workload", "Alpha", "--seed", "1", "--seconds", "5"},
             {"alpha", "--seed", "1", "--seconds", "5"},
             {"--workload", "alpha", "--seed", "1", "--seconds", "5", "extra"},
         }) {
        EXPECT_FALSE(Parse(argv).ok) << argv.back();
    }
}

TEST(CliTest, RejectsMalformedNumbers)
{
    for (const char* seed :
         {"", "-1", "+1", " 1", "1 ", "12x", "0x10", "1e3", "1.0",
          "18446744073709551616"}) {
        EXPECT_FALSE(
            Parse({"--workload", "alpha", "--seconds", "5", "--seed", seed}).ok)
            << seed;
    }
    for (const char* seconds : {"0", "3601", "-5", "ten"}) {
        EXPECT_FALSE(
            Parse({"--workload", "alpha", "--seed", "1", "--seconds", seconds}).ok)
            << seconds;
    }
    for (const char* trace : {"2", "true", "", "01"}) {
        EXPECT_FALSE(
            Parse({"--workload", "alpha", "--seed", "1", "--seconds", "5", "--trace",
                   trace})
                .ok)
            << trace;
    }
    EXPECT_FALSE(
        Parse({"--workload", "alpha", "--seed", "1", "--seconds", "5", "--jobs", "0"})
            .ok);
}

TEST(CliTest, RejectsMissingRepeatedAndDanglingValues)
{
    EXPECT_FALSE(Parse({"--seed", "1", "--seconds", "5"}).ok);
    EXPECT_FALSE(Parse({"--workload", "alpha", "--seconds", "5"}).ok);
    EXPECT_FALSE(Parse({"--workload", "alpha", "--seed", "1"}).ok);
    EXPECT_FALSE(Parse({"--workload", "alpha", "--seconds", "5", "--seed"}).ok);
    EXPECT_FALSE(
        Parse({"--workload", "alpha", "--seed", "1", "--seconds", "5", "--seed", "2"})
            .ok);
    EXPECT_FALSE(Parse({}).ok);
    const ParseResult r = Parse(
        {"--workload", "alpha", "--seed", "1", "--seconds", "5", "--bogus", "3"});
    EXPECT_NE(r.error.find("--bogus"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
