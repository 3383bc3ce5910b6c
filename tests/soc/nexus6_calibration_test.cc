/**
 * @file
 * Locks the model calibration to the paper's published anchor points:
 *
 *  - Table I (AngryBirds profile): (0.3 GHz, 762 MBps) ≈ 1623.57 mW at
 *    speedup 1.0; (0.3, 1525) ≈ 1682.83 mW; (0.3, 3051) ≈ 1742.09 mW;
 *    (0.8832, 762) ≈ 2219.22 mW at speedup 1.837;
 *  - §III-B3 base speeds: AngryBirds 0.129 GIPS, VidCon 0.471 GIPS at the
 *    lowest configuration.
 *
 * If these drift, every downstream experiment drifts with them, so the
 * tolerances here are deliberately tight (a few percent).
 */
#include <gtest/gtest.h>

#include "apps/workloads.h"
#include "device/device.h"

namespace aeo {
namespace {

struct Anchor {
    int cpu_level;  // 0-based
    int bw_level;   // 0-based
    double paper_power_mw;
    double paper_speedup;
};

/** Measures AngryBirds pinned at a configuration under baseline load. */
RunResult
MeasureAngryBirds(int cpu_level, int bw_level)
{
    DeviceConfig config;
    config.seed = 20170201 + static_cast<uint64_t>(cpu_level * 100 + bw_level);
    Device device(config);
    device.SetBackground(MakeBackgroundEnv(BackgroundKind::kBaseline));
    device.PinHetConfiguration(HetConfig{cpu_level, 0, bw_level});
    device.LaunchApp(MakeAngryBirdsSpec());
    device.RunFor(SimTime::FromSeconds(30));
    return device.CollectResult("calibration");
}

class TableIAnchorTest : public ::testing::TestWithParam<Anchor> {};

TEST_P(TableIAnchorTest, PowerMatchesPaper)
{
    const Anchor anchor = GetParam();
    const RunResult result = MeasureAngryBirds(anchor.cpu_level, anchor.bw_level);
    EXPECT_NEAR(result.measured_avg_power_mw.value(), anchor.paper_power_mw,
                anchor.paper_power_mw * 0.05)
        << "config (" << anchor.cpu_level + 1 << ", " << anchor.bw_level + 1 << ")";
}

TEST_P(TableIAnchorTest, SpeedupMatchesPaper)
{
    const Anchor anchor = GetParam();
    const RunResult base = MeasureAngryBirds(0, 0);
    const RunResult result = MeasureAngryBirds(anchor.cpu_level, anchor.bw_level);
    const double speedup = result.avg_gips / base.avg_gips;
    EXPECT_NEAR(speedup, anchor.paper_speedup, anchor.paper_speedup * 0.06)
        << "config (" << anchor.cpu_level + 1 << ", " << anchor.bw_level + 1 << ")";
}

INSTANTIATE_TEST_SUITE_P(
    TableI, TableIAnchorTest,
    ::testing::Values(Anchor{0, 0, 1623.57, 1.0},      // row 1
                      Anchor{0, 2, 1682.83, 1.0038},   // row 2
                      Anchor{0, 4, 1742.09, 1.0077},   // row 3
                      Anchor{4, 0, 2219.22, 1.837}));  // row 31

TEST(BaseSpeedCalibrationTest, AngryBirdsBaseSpeed)
{
    const RunResult result = MeasureAngryBirds(0, 0);
    EXPECT_NEAR(result.avg_gips, 0.129, 0.129 * 0.05);
}

TEST(BaseSpeedCalibrationTest, VidConBaseSpeed)
{
    DeviceConfig config;
    config.seed = 20170202;
    Device device(config);
    device.SetBackground(MakeBackgroundEnv(BackgroundKind::kBaseline));
    device.PinHetConfiguration(HetConfig{0, 0, 0});
    device.LaunchApp(MakeVidConSpec());
    device.RunFor(SimTime::FromSeconds(30));
    const RunResult result = device.CollectResult("calibration");
    // §III-B3: VidCon's base speed is 0.471 GIPS.
    EXPECT_NEAR(result.avg_gips, 0.471, 0.471 * 0.06);
}

}  // namespace
}  // namespace aeo
