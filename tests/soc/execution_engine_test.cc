#include "soc/execution_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <tuple>

#include "common/random.h"
#include "soc/nexus6.h"

namespace aeo {
namespace {

WorkloadDemand
SelfPaced(double ipc, double par, double bpi)
{
    WorkloadDemand demand;
    demand.ipc = ipc;
    demand.parallelism = par;
    demand.mem_bytes_per_instr = bpi;
    return demand;
}

ClusterOperatingPoint
Op(double ghz, double perf_scale, int cores)
{
    ClusterOperatingPoint op;
    op.frequency = Gigahertz(ghz);
    op.perf_scale = perf_scale;
    op.online_cores = cores;
    return op;
}

/** A one-cluster SoC (the Nexus 6 shape): the LITTLE cluster has no cores. */
HetExecutionRates
OneCluster(const ExecutionEngine& engine, const WorkloadDemand& fg,
           const WorkloadDemand& bg, Gigahertz freq,
           MegabytesPerSecond bandwidth, int cores)
{
    return engine.ComputeShared(fg, bg, Op(freq.value(), 1.0, cores),
                                Op(1.0, 1.0, 0), ThreadPlacement::kBigOnly,
                                0.08, bandwidth);
}

/** A workload running alone on one cluster. An idle background (demand 0)
 * takes no cores or bandwidth, so this is exact, not an approximation. */
ExecutionRates
Alone(const ExecutionEngine& engine, const WorkloadDemand& demand,
      Gigahertz freq, MegabytesPerSecond bandwidth, int cores)
{
    WorkloadDemand idle;
    idle.demand_gips = 0.0;
    return OneCluster(engine, demand, idle, freq, bandwidth, cores).foreground;
}

TEST(ExecutionEngineTest, ComputeBoundScalesWithFrequency)
{
    const ExecutionEngine engine;
    const WorkloadDemand demand = SelfPaced(1.0, 2.0, 0.0);
    const auto slow =
        Alone(engine, demand, Gigahertz(0.5), MegabytesPerSecond(762), 4);
    const auto fast =
        Alone(engine, demand, Gigahertz(2.0), MegabytesPerSecond(762), 4);
    EXPECT_NEAR(fast.gips / slow.gips, 4.0, 1e-9);
}

TEST(ExecutionEngineTest, MemoryBoundSaturatesWithBandwidth)
{
    const ExecutionEngine engine;
    const WorkloadDemand demand = SelfPaced(2.0, 4.0, 8.0);  // heavy traffic
    const auto narrow =
        Alone(engine, demand, Gigahertz(2.0), MegabytesPerSecond(762), 4);
    const auto wide =
        Alone(engine, demand, Gigahertz(2.0), MegabytesPerSecond(16250), 4);
    // Bandwidth-dominated: doubling frequency barely helps, bandwidth does.
    EXPECT_GT(wide.gips / narrow.gips, 5.0);
    const auto faster_clock =
        Alone(engine, demand, Gigahertz(2.6496), MegabytesPerSecond(762), 4);
    EXPECT_LT(faster_clock.gips / narrow.gips, 1.1);
}

TEST(ExecutionEngineTest, DemandCapLimitsRateAndLoad)
{
    const ExecutionEngine engine;
    WorkloadDemand demand = SelfPaced(1.0, 2.0, 0.0);
    demand.demand_gips = 0.5;
    const auto rates =
        Alone(engine, demand, Gigahertz(2.0), MegabytesPerSecond(762), 4);
    EXPECT_DOUBLE_EQ(rates.gips, 0.5);
    EXPECT_GT(rates.capacity_gips, 3.9);
    // Busy time shrinks proportionally when demand-capped.
    EXPECT_NEAR(rates.busy_cores, 0.5 / rates.capacity_gips * 2.0, 1e-9);
    EXPECT_LT(rates.LoadFraction(4), 0.1);
}

TEST(ExecutionEngineTest, SaturatedWorkloadBusiesItsCores)
{
    const ExecutionEngine engine;
    const WorkloadDemand demand = SelfPaced(0.172, 2.5, 0.06);  // AngryBirds-like
    const auto rates =
        Alone(engine, demand, Gigahertz(0.3), MegabytesPerSecond(762), 4);
    EXPECT_NEAR(rates.busy_cores, 2.5, 1e-9);
    EXPECT_DOUBLE_EQ(rates.gips, rates.capacity_gips);
}

TEST(ExecutionEngineTest, TrafficFollowsRateAndPrefetch)
{
    const ExecutionEngine engine;
    const WorkloadDemand demand = SelfPaced(1.0, 1.0, 0.5);
    const auto rates =
        Alone(engine, demand, Gigahertz(1.0), MegabytesPerSecond(8056), 4);
    // Demand traffic (gips × bytes/instr) plus the prefetcher streams that
    // scale with busy cores — the traffic cpubw_hwmon actually sees.
    const double prefetch = engine.params().prefetch_gbps_per_busy_core;
    EXPECT_NEAR(rates.mem_gbps, rates.gips * 0.5 + rates.busy_cores * prefetch, 1e-12);
}

TEST(ExecutionEngineTest, ParallelismIsCappedByCores)
{
    const ExecutionEngine engine;
    const WorkloadDemand demand = SelfPaced(1.0, 8.0, 0.0);
    const auto rates =
        Alone(engine, demand, Gigahertz(1.0), MegabytesPerSecond(762), 4);
    EXPECT_NEAR(rates.capacity_gips, 4.0, 1e-9);
    EXPECT_NEAR(rates.busy_cores, 4.0, 1e-9);
}

TEST(ExecutionEngineTest, BackgroundStealsBandwidth)
{
    const ExecutionEngine engine;
    const WorkloadDemand fg = SelfPaced(2.0, 4.0, 4.0);  // memory hungry
    WorkloadDemand bg = SelfPaced(0.6, 1.0, 2.0);
    bg.demand_gips = 0.05;
    const auto alone = Alone(engine, fg, Gigahertz(1.0), MegabytesPerSecond(762), 4);
    const auto shared =
        OneCluster(engine, fg, bg, Gigahertz(1.0), MegabytesPerSecond(762), 4);
    EXPECT_LT(shared.foreground.gips, alone.gips);
    EXPECT_GT(shared.background.gips, 0.0);
}

TEST(ExecutionEngineTest, LoadFractionClamps)
{
    ExecutionRates rates;
    rates.busy_cores = 5.0;
    EXPECT_DOUBLE_EQ(rates.LoadFraction(4), 1.0);
    EXPECT_DOUBLE_EQ(rates.LoadFraction(0), 0.0);
}

/** Property sweep: GIPS is monotonically non-decreasing in both frequency
 * and bandwidth across the full Nexus 6 grid, for several workload mixes. */
class MonotonicityTest
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(MonotonicityTest, GipsMonotoneOverGrid)
{
    const auto [ipc, par, bpi] = GetParam();
    const ExecutionEngine engine;
    const FrequencyTable freqs = MakeNexus6FrequencyTable();
    const BandwidthTable bws = MakeNexus6BandwidthTable();
    const WorkloadDemand demand = SelfPaced(ipc, par, bpi);

    for (int bw = 0; bw < bws.size(); ++bw) {
        double prev = 0.0;
        for (int f = 0; f < freqs.size(); ++f) {
            const auto rates = Alone(engine, demand, freqs.FrequencyAt(f),
                                              bws.BandwidthAt(bw), 4);
            EXPECT_GE(rates.gips, prev - 1e-12)
                << "f level " << f << " bw level " << bw;
            prev = rates.gips;
        }
    }
    for (int f = 0; f < freqs.size(); ++f) {
        double prev = 0.0;
        for (int bw = 0; bw < bws.size(); ++bw) {
            const auto rates = Alone(engine, demand, freqs.FrequencyAt(f),
                                              bws.BandwidthAt(bw), 4);
            EXPECT_GE(rates.gips, prev - 1e-12)
                << "f level " << f << " bw level " << bw;
            prev = rates.gips;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadMixes, MonotonicityTest,
    ::testing::Values(std::make_tuple(0.55, 3.0, 0.10),   // VidCon-like
                      std::make_tuple(0.80, 3.0, 0.45),   // MobileBench-like
                      std::make_tuple(0.172, 2.5, 0.06),  // AngryBirds-like
                      std::make_tuple(0.12, 1.0, 0.35),   // MXPlayer-like
                      std::make_tuple(1.00, 4.0, 2.00),   // memory-heavy
                      std::make_tuple(1.50, 1.0, 0.00))); // pure compute

/** Rates of the closed-form homogeneous model on one cluster. */
struct HomogeneousRates {
    ExecutionRates foreground;
    ExecutionRates background;
};

/**
 * The reference: the closed-form single-cluster model, written out in the
 * arithmetic order the one-cluster call must reproduce bit for bit.
 *
 *     t_instr = 1 / (f · ipc · usable_cores) + bytes_per_instr / gbps
 *
 * The background is capped at its share of (f · ipc · parallelism) and
 * runs on that share of the cores and bandwidth; the foreground gets the
 * rest, with at least a quarter core.
 */
HomogeneousRates
HomogeneousReference(const ExecutionModelParams& params,
                     const WorkloadDemand& fg, const WorkloadDemand& bg,
                     double freq_ghz, double bandwidth_mbps, int cores)
{
    const auto run_alone = [&](const WorkloadDemand& demand, double gbps,
                               double max_cores) {
        ExecutionRates rates;
        const double usable = std::min(demand.parallelism, max_cores);
        if (usable <= 0.0 || gbps <= 0.0) {
            return rates;
        }
        const double t_cpu_ns = 1.0 / (freq_ghz * demand.ipc * usable);
        const double t_mem_ns = demand.mem_bytes_per_instr / gbps;
        rates.capacity_gips = 1.0 / (t_cpu_ns + t_mem_ns);
        rates.gips = std::min(demand.demand_gips, rates.capacity_gips);
        rates.busy_cores = rates.gips / rates.capacity_gips * usable;
        rates.mem_gbps = rates.gips * demand.mem_bytes_per_instr +
                         rates.busy_cores * params.prefetch_gbps_per_busy_core;
        return rates;
    };
    HomogeneousRates out;
    const double total_gbps =
        bandwidth_mbps / 1000.0 * params.bandwidth_efficiency;
    const double num_cores = static_cast<double>(cores);
    WorkloadDemand capped = bg;
    capped.demand_gips =
        std::min(bg.demand_gips,
                 params.background_share * (freq_ghz * bg.ipc * bg.parallelism));
    out.background = run_alone(capped, total_gbps * params.background_share,
                               num_cores * params.background_share);
    out.foreground = run_alone(
        fg, std::max(1e-9, total_gbps - out.background.mem_gbps),
        std::max(0.25, num_cores - out.background.busy_cores));
    return out;
}

double
CoreLoad(const ExecutionRates& rates)
{
    return rates.capacity_gips <= 0.0
               ? 0.0
               : std::min(1.0, rates.gips / rates.capacity_gips);
}

void
ExpectSameRates(const ExecutionRates& actual, const ExecutionRates& expected)
{
    EXPECT_EQ(actual.gips, expected.gips);
    EXPECT_EQ(actual.busy_cores, expected.busy_cores);
    EXPECT_EQ(actual.mem_gbps, expected.mem_gbps);
    EXPECT_EQ(actual.capacity_gips, expected.capacity_gips);
}

/**
 * The one-cluster reduction, bit for bit: on random operating points and
 * workloads every field of the single execution path equals the closed-form
 * homogeneous model. A reordered sum or product fails here rather than as a
 * bench snapshot diff. Backgrounds keep parallelism <= 1 core, as every
 * background load does (apps/background_load.cc), so the background cap's
 * min(parallelism, cores) is the parallelism itself.
 */
TEST(HetExecutionTest, OneClusterIsBitIdenticalToHomogeneousModel)
{
    const ExecutionEngine engine;
    const FrequencyTable freqs = MakeNexus6FrequencyTable();
    const BandwidthTable bws = MakeNexus6BandwidthTable();
    const double inf = std::numeric_limits<double>::infinity();
    Rng rng(0x0C1D5EEDull);
    for (int trial = 0; trial < 20000; ++trial) {
        const double freq =
            rng.Bernoulli(0.5)
                ? freqs.FrequencyAt(static_cast<int>(rng.UniformInt(
                                        0, freqs.size() - 1)))
                      .value()
                : rng.Uniform(0.1, 3.0);
        const double mbps =
            rng.Bernoulli(0.5)
                ? bws.BandwidthAt(static_cast<int>(
                                      rng.UniformInt(0, bws.size() - 1)))
                      .value()
                : rng.Uniform(100.0, 20000.0);
        const int cores = static_cast<int>(rng.UniformInt(1, 4));

        const double fg_bpi = rng.Bernoulli(0.2) ? 0.0 : rng.Uniform(0.0, 6.0);
        WorkloadDemand fg =
            SelfPaced(rng.Uniform(0.05, 2.5), rng.Uniform(0.25, 6.0), fg_bpi);
        fg.demand_gips = rng.Bernoulli(0.4) ? inf : rng.Uniform(0.0, 5.0);
        WorkloadDemand bg = SelfPaced(rng.Uniform(0.05, 2.0),
                                      rng.Uniform(0.1, 1.0),
                                      rng.Uniform(0.0, 3.0));
        const double bg_pick = rng.NextDouble();
        bg.demand_gips = bg_pick < 0.2   ? 0.0
                         : bg_pick < 0.4 ? inf
                                         : rng.Uniform(0.0, 1.0);

        const HetExecutionRates actual =
            OneCluster(engine, fg, bg, Gigahertz(freq), MegabytesPerSecond(mbps),
                       cores);
        const HomogeneousRates expected = HomogeneousReference(
            engine.params(), fg, bg, freq, mbps, cores);
        SCOPED_TRACE(::testing::Message() << "trial " << trial);
        ExpectSameRates(actual.foreground, expected.foreground);
        ExpectSameRates(actual.background, expected.background);
        EXPECT_EQ(actual.big_busy_cores, expected.foreground.busy_cores +
                                             expected.background.busy_cores);
        EXPECT_EQ(actual.little_busy_cores, 0.0);
        EXPECT_EQ(actual.big_max_core_load,
                  std::max(CoreLoad(expected.foreground),
                           CoreLoad(expected.background)));
        EXPECT_EQ(actual.little_max_core_load, 0.0);
        if (::testing::Test::HasFailure()) {
            break;
        }
    }
}

TEST(HetExecutionTest, BothPlacementBeatsBigOnlyForParallelWork)
{
    const ExecutionEngine engine;
    const WorkloadDemand fg = SelfPaced(1.0, 8.0, 0.05);
    const WorkloadDemand bg = SelfPaced(0.5, 0.5, 0.1);

    const auto big_only = engine.ComputeShared(
        fg, bg, Op(1.9, 1.0, 4), Op(1.3, 0.58, 4), ThreadPlacement::kBigOnly,
        0.08, MegabytesPerSecond(8132));
    const auto both = engine.ComputeShared(
        fg, bg, Op(1.9, 1.0, 4), Op(1.3, 0.58, 4), ThreadPlacement::kBoth,
        0.08, MegabytesPerSecond(8132));
    EXPECT_GT(both.foreground.gips, big_only.foreground.gips * 1.05);
    EXPECT_GT(both.little_busy_cores, big_only.little_busy_cores);
}

TEST(HetExecutionTest, SpanPenaltyCostsThroughput)
{
    const ExecutionEngine engine;
    const WorkloadDemand fg = SelfPaced(1.0, 8.0, 0.0);
    const WorkloadDemand bg;  // negligible

    const auto free_span = engine.ComputeShared(
        fg, bg, Op(1.9, 1.0, 4), Op(1.3, 0.58, 4), ThreadPlacement::kBoth,
        0.0, MegabytesPerSecond(8132));
    const auto costly_span = engine.ComputeShared(
        fg, bg, Op(1.9, 1.0, 4), Op(1.3, 0.58, 4), ThreadPlacement::kBoth,
        0.20, MegabytesPerSecond(8132));
    EXPECT_LT(costly_span.foreground.gips, free_span.foreground.gips);
}

TEST(HetExecutionTest, LittleOnlyIsSlowerAndKeepsBigIdle)
{
    const ExecutionEngine engine;
    const WorkloadDemand fg = SelfPaced(1.0, 3.0, 0.05);
    const WorkloadDemand bg = SelfPaced(0.5, 0.25, 0.0);

    const auto little_only = engine.ComputeShared(
        fg, bg, Op(1.9, 1.0, 4), Op(1.3, 0.58, 4),
        ThreadPlacement::kLittleOnly, 0.08, MegabytesPerSecond(8132));
    const auto big_only = engine.ComputeShared(
        fg, bg, Op(1.9, 1.0, 4), Op(1.3, 0.58, 4), ThreadPlacement::kBigOnly,
        0.08, MegabytesPerSecond(8132));
    EXPECT_LT(little_only.foreground.gips, big_only.foreground.gips);
    // Foreground is confined to LITTLE; only the background may touch big.
    EXPECT_LE(little_only.big_busy_cores, bg.parallelism + 1e-9);
}

TEST(HetExecutionTest, BackgroundFillsLittleFirst)
{
    const ExecutionEngine engine;
    WorkloadDemand fg = SelfPaced(1.0, 1.0, 0.0);
    fg.demand_gips = 0.1;
    WorkloadDemand bg = SelfPaced(0.6, 1.0, 0.1);
    bg.demand_gips = 0.2;

    const auto het = engine.ComputeShared(
        fg, bg, Op(1.9, 1.0, 4), Op(1.3, 0.58, 4), ThreadPlacement::kBoth,
        0.08, MegabytesPerSecond(8132));
    EXPECT_GT(het.background.gips, 0.0);
    // With one bg thread and plenty of LITTLE capacity, bg load lands there.
    EXPECT_GT(het.little_busy_cores, 0.0);
}

TEST(HetExecutionTest, BusyCoreSplitSumsToWorkloadBusyCores)
{
    const ExecutionEngine engine;
    const WorkloadDemand fg = SelfPaced(0.8, 5.0, 0.3);
    const WorkloadDemand bg = SelfPaced(0.5, 1.5, 0.2);

    const auto het = engine.ComputeShared(
        fg, bg, Op(1.5, 1.0, 4), Op(1.0, 0.58, 4), ThreadPlacement::kBoth,
        0.08, MegabytesPerSecond(5421));
    EXPECT_NEAR(het.big_busy_cores + het.little_busy_cores,
                het.foreground.busy_cores + het.background.busy_cores, 1e-9);
    EXPECT_GE(het.big_max_core_load, 0.0);
    EXPECT_LE(het.big_max_core_load, 1.0);
    EXPECT_GE(het.little_max_core_load, 0.0);
    EXPECT_LE(het.little_max_core_load, 1.0);
}

TEST(HetExecutionTest, HigherLittleClockHelpsLittleConfinedWork)
{
    const ExecutionEngine engine;
    const WorkloadDemand fg = SelfPaced(1.0, 4.0, 0.02);
    const WorkloadDemand bg;

    const auto slow = engine.ComputeShared(
        fg, bg, Op(0.7, 1.0, 4), Op(0.4, 0.58, 4),
        ThreadPlacement::kLittleOnly, 0.08, MegabytesPerSecond(8132));
    const auto fast = engine.ComputeShared(
        fg, bg, Op(0.7, 1.0, 4), Op(1.3, 0.58, 4),
        ThreadPlacement::kLittleOnly, 0.08, MegabytesPerSecond(8132));
    EXPECT_NEAR(fast.foreground.gips / slow.foreground.gips, 1.3 / 0.4, 0.5);
    EXPECT_GT(fast.foreground.gips, slow.foreground.gips * 2.0);
}

}  // namespace
}  // namespace aeo
