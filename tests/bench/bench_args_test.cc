#include "bench_common.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace aeo::bench {
namespace {

/** Runs ParseBenchArgs over "bench" followed by @p flags. */
BenchArgs
Parse(std::vector<std::string> flags)
{
    flags.insert(flags.begin(), "bench");
    std::vector<char*> argv;
    for (std::string& flag : flags) {
        argv.push_back(flag.data());
    }
    return ParseBenchArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchArgsTest, NoFlagsGivesDefaults)
{
    const BenchArgs args = Parse({});
    EXPECT_FALSE(args.fast);
    EXPECT_EQ(args.batch.jobs, 0);
    EXPECT_EQ(args.ProfileRuns(), 3);
    EXPECT_EQ(args.SeedOr(7), 7u);
    EXPECT_EQ(args.JsonPath("BENCH_x.json"), "BENCH_x.json");
    EXPECT_EQ(args.OutputPath("x.csv"), "x.csv");
    EXPECT_EQ(args.campaigns, 0);
    EXPECT_TRUE(args.replay.empty());
    EXPECT_TRUE(args.bundle.empty());
}

TEST(BenchArgsTest, ParsesEveryFlag)
{
    const BenchArgs args =
        Parse({"--fast", "--jobs=4", "--runs=2", "--seed=18446744073709551615",
               "--out=o.csv", "--json=j.json", "--baseline=lulzactive",
               "--campaigns=3", "--replay=r.json", "--bundle=b.json"});
    EXPECT_TRUE(args.fast);
    EXPECT_EQ(args.batch.jobs, 4);
    EXPECT_EQ(args.ProfileRuns(), 2);
    EXPECT_EQ(args.SeedOr(7), 18446744073709551615ull);
    EXPECT_EQ(args.OutputPath("x.csv"), "o.csv");
    EXPECT_EQ(args.JsonPath("BENCH_x.json"), "j.json");
    EXPECT_EQ(args.baseline, "lulzactive");
    EXPECT_EQ(args.campaigns, 3);
    EXPECT_EQ(args.replay, "r.json");
    EXPECT_EQ(args.bundle, "b.json");
}

TEST(BenchArgsTest, UnknownFlagsExitTwo)
{
    for (const char* flag : {"--help", "--job=4", "--fast=1", "-j4", "fast"}) {
        SCOPED_TRACE(flag);
        EXPECT_EXIT(Parse({flag}), ::testing::ExitedWithCode(2), "");
    }
    EXPECT_EXIT(Parse({"--job=4"}), ::testing::ExitedWithCode(2),
                "unknown flag '--job=4'");
}

TEST(BenchArgsTest, MalformedOrOutOfRangeValuesExitTwo)
{
    for (const char* flag :
         {"--jobs", "--jobs=x", "--jobs=", "--jobs=0", "--jobs=-1", "--jobs=4x",
          "--jobs= 4", "--jobs=257", "--runs=0", "--runs=1.5",
          "--seed=0", "--seed=-1", "--seed=18446744073709551616",
          "--campaigns=0", "--campaigns=two", "--out=", "--json", "--json=",
          "--baseline=", "--replay=", "--bundle="}) {
        SCOPED_TRACE(flag);
        EXPECT_EXIT(Parse({flag}), ::testing::ExitedWithCode(2), "bad value");
    }
}

}  // namespace
}  // namespace aeo::bench
