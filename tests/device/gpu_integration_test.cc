/**
 * @file
 * GPU integration with the device model: render demand tracks app progress,
 * a slow GPU co-bottlenecks the application, and the §VII extended
 * configuration controls it end to end.
 */
#include <gtest/gtest.h>

#include "core/online_controller.h"
#include "platform/sim_platform.h"
#include "device/device.h"

namespace aeo {
namespace {

/** 60 fps app needing ~390 MHz-equivalents of render work. */
AppSpec
GpuHeavySpec()
{
    AppSpec spec;
    spec.name = "gpu-heavy";
    spec.loop = true;
    AppPhase race;
    race.name = "race";
    race.kind = PhaseKind::kFrame;
    race.demand.ipc = 0.30;
    race.demand.parallelism = 2.0;
    race.demand.mem_bytes_per_instr = 0.10;
    race.duration = SimTime::FromSeconds(30);
    race.frame_work_gi = 0.005;
    race.frame_period = SimTime::Micros(16667);
    race.slack_demand.demand_gips = 0.004;
    race.gpu_units_per_gi = 1300.0;
    spec.phases.push_back(race);
    return spec;
}

TEST(GpuIntegrationTest, SlowGpuCoBottlenecksTheApp)
{
    Device device;
    device.PinHetConfiguration(HetConfig{9, 0, 4});  // plenty of CPU
    device.LaunchApp(GpuHeavySpec());
    // GPU pinned at the lowest clock (no governor started): capacity 200
    // units/s against ~390 of demand → the app runs at roughly half rate.
    device.RunFor(SimTime::FromSeconds(10));
    const double slow_gips = device.CollectResult("slow").avg_gips;

    Device fast;
    fast.PinHetConfiguration(HetConfig{9, 0, 4});
    fast.sysfs().Write(std::string(kGpuSysfsRoot) + "/governor", "performance");
    fast.LaunchApp(GpuHeavySpec());
    fast.RunFor(SimTime::FromSeconds(10));
    const double fast_gips = fast.CollectResult("fast").avg_gips;

    EXPECT_GT(fast_gips, slow_gips * 1.6);
    EXPECT_NEAR(fast_gips, 0.3, 0.05);
}

TEST(GpuIntegrationTest, AdrenoTzServesTheGameByDefault)
{
    Device device;
    device.UseDefaultGovernors();
    device.LaunchApp(GpuHeavySpec());
    device.RunFor(SimTime::FromSeconds(20));
    const RunResult result = device.CollectResult("default");
    // The GPU governor ramps off the bottom; the coupled governors settle
    // on a vsync plateau — the jitter-free spec locks onto 30 fps (half
    // rate), which is exactly the kind of stable sub-optimal equilibrium
    // real interactive governors exhibit on borderline game loads.
    EXPECT_GE(device.gpu().level(), 2);
    EXPECT_GT(result.avg_gips, 0.14);
}

TEST(GpuIntegrationTest, GpuAppsDrawGpuPower)
{
    const auto run = [](const AppSpec& spec) {
        Device device;
        device.UseDefaultGovernors();
        device.LaunchApp(spec);
        device.RunFor(SimTime::FromSeconds(10));
        return device.CollectResult("x").avg_power_mw.value();
    };
    AppSpec without = GpuHeavySpec();
    without.phases[0].gpu_units_per_gi = 0.0;
    EXPECT_GT(run(GpuHeavySpec()), run(without) + 300.0);
}

TEST(GpuIntegrationTest, ExtendedControllerDrivesGpuThroughSysfs)
{
    Device device;
    device.LaunchApp(GpuHeavySpec());
    std::vector<ProfileEntry> entries = {
        {SystemConfig{2, 0, 2}, 1.0, Milliwatts(2000.0)},
        {SystemConfig{4, 0, 3}, 1.3, Milliwatts(2500.0)},
    };
    ControllerConfig config;
    config.target_gips = 0.25;
    platform::SimPlatform plat(&device);
    OnlineController controller(&plat, ProfileTable("x", entries, 0.2), config);
    controller.Start();
    EXPECT_EQ(device.gpufreq().governor_name(), "userspace");
    device.RunFor(SimTime::FromSeconds(10));
    controller.Stop();
    // The controller drove the GPU to one of its table levels.
    EXPECT_GE(device.gpu().transition_count(), 1u);
}

}  // namespace
}  // namespace aeo
