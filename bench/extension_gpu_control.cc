/**
 * @file
 * E12 — the §VII extension: "Our next steps are to include GPU frequencies
 * ... into the control system framework."
 *
 * A GPU-bound 3D game ("Racer3D": 60 fps frames whose render load tracks
 * game progress) is run three ways:
 *
 *  1. Android defaults (interactive + cpubw_hwmon + msm-adreno-tz);
 *  2. the paper's controller (CPU + bandwidth; GPU left to msm-adreno-tz);
 *  3. the extended controller with GPU frequency in the coordinated
 *     configuration tuple.
 *
 * The busy-threshold GPU governor over-provisions the clock exactly like
 * the CPU governors do, and the extended controller recovers that margin.
 */
#include <cstdio>

#include "bench_common.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/text_table.h"
#include "core/offline_profiler.h"
#include "core/online_controller.h"
#include "platform/sim_platform.h"

namespace {

using namespace aeo;

/** A GPU-heavy 60 fps racing game. */
AppSpec
MakeRacer3DSpec()
{
    AppSpec spec;
    spec.name = "Racer3D";
    spec.loop = true;
    spec.jitter_rel = 0.08;

    AppPhase race;
    race.name = "race";
    race.kind = PhaseKind::kFrame;
    race.demand.ipc = 0.30;
    race.demand.parallelism = 2.0;
    race.demand.mem_bytes_per_instr = 0.10;
    race.duration = SimTime::FromSeconds(30);
    race.frame_work_gi = 0.005;          // ~0.3 GIPS of game logic
    race.frame_period = SimTime::Micros(16667);
    race.slack_demand.demand_gips = 0.004;
    race.gpu_units_per_gi = 1300.0;      // ~390 MHz-equivalents of render
    race.component_mw = 120.0;           // display pipeline
    spec.phases.push_back(race);
    return spec;
}

RunResult
RunDefault(uint64_t seed)
{
    DeviceConfig config;
    config.seed = seed;
    Device device(config);
    device.UseDefaultGovernors();
    device.LaunchApp(MakeRacer3DSpec());
    device.RunFor(SimTime::FromSeconds(120));
    return device.CollectResult("default");
}

RunResult
RunControlled(const ProfileTable& table, double target, uint64_t seed,
              const char* label)
{
    DeviceConfig config;
    config.seed = seed;
    Device device(config);
    device.LaunchApp(MakeRacer3DSpec());
    ControllerConfig controller_config;
    controller_config.target_gips = target;
    platform::SimPlatform plat(&device);
    OnlineController controller(&plat, table, controller_config);
    controller.Start();
    device.RunFor(SimTime::FromSeconds(120));
    controller.Stop();
    return device.CollectResult(label);
}

}  // namespace

int
main(int argc, char** argv)
{
    // No options of its own, but a mistyped flag still exits 2.
    bench::ParseBenchArgs(argc, argv);
    SetLogLevel(LogLevel::kWarn);
    bench::PrintHeader("E12 / §VII extension",
                       "Coordinated GPU-frequency control (Racer3D)");

    const RunResult base = RunDefault(91);

    OfflineProfiler profiler;
    ProfilerOptions paper_options;
    paper_options.cpu_levels = {0, 2, 4, 6};
    paper_options.runs = 3;
    paper_options.measure_duration = SimTime::FromSeconds(20);
    paper_options.seed = 92;
    ProfileTable paper_table =
        profiler.Profile(MakeRacer3DSpec(), paper_options).PruneEpsilonDominated(0.01);

    ProfilerOptions ext_options = paper_options;
    ext_options.gpu_levels = {1, 2, 3, 4};
    ProfileTable ext_table =
        profiler.Profile(MakeRacer3DSpec(), ext_options).PruneEpsilonDominated(0.01);

    const RunResult paper_run =
        RunControlled(paper_table, base.avg_gips, 93, "controller-cpu-bw");
    const RunResult ext_run =
        RunControlled(ext_table, base.avg_gips, 94, "controller-cpu-bw-gpu");

    TextTable table({"policy", "GIPS", "avg power (mW)", "energy savings"});
    table.AddRow({"default governors", StrFormat("%.3f", base.avg_gips),
                  StrFormat("%.0f", base.measured_avg_power_mw.value()), "--"});
    table.AddRow({"controller (CPU+BW, paper)", StrFormat("%.3f", paper_run.avg_gips),
                  StrFormat("%.0f", paper_run.measured_avg_power_mw.value()),
                  StrFormat("%.1f%%", paper_run.EnergySavingsPercent(base))});
    table.AddRow({"controller (CPU+BW+GPU, SVII)", StrFormat("%.3f", ext_run.avg_gips),
                  StrFormat("%.0f", ext_run.measured_avg_power_mw.value()),
                  StrFormat("%.1f%%", ext_run.EnergySavingsPercent(base))});
    std::printf("%s\n", table.ToString().c_str());
    std::printf("Adding the GPU to the configuration tuple recovers the margin\n"
                "the busy-threshold msm-adreno-tz governor leaves on the table,\n"
                "with no change to the controller itself — only the profile\n"
                "grid grows, as the paper anticipates in SVII.\n");
    return 0;
}
