/**
 * @file
 * E2 — Table I: the offline profile table for AngryBirds. Prints the
 * profiled (speedup, power) rows and compares the paper's four published
 * anchor rows against the reproduction.
 */
#include <cstdio>

#include "apps/app_registry.h"
#include "bench_common.h"
#include "common/logging.h"
#include "core/offline_profiler.h"
#include "core/scenarios.h"
#include "paper_data.h"
#include "stats/comparison.h"

int
main(int argc, char** argv)
{
    using namespace aeo;
    // No options of its own, but a mistyped flag still exits 2.
    bench::ParseBenchArgs(argc, argv);
    SetLogLevel(LogLevel::kWarn);
    bench::PrintHeader("E2 / Table I", "AngryBirds offline profile");

    const AppScenario scenario = GetAppScenario("AngryBirds");
    OfflineProfiler profiler;
    ProfilerOptions options;
    options.cpu_levels = scenario.profile_cpu_levels;
    options.measure_duration = scenario.profile_duration;
    options.runs = 3;
    options.seed = 20170201;
    const ProfileTable table =
        profiler.Profile(MakeAppSpecByName("AngryBirds"), options);
    std::printf("%s\n", table.ToString().c_str());

    ComparisonReport speedups("Table I anchors — speedup");
    ComparisonReport powers("Table I anchors — power (mW)");
    for (const auto& row : paper::TableI()) {
        const SystemConfig config{row.cpu_level_1based - 1, row.bw_level_1based - 1};
        for (const ProfileEntry& entry : table.entries()) {
            if (entry.config == config) {
                speedups.Add(config.ToString(), row.speedup, entry.speedup, "x");
                powers.Add(config.ToString(), row.power_mw.value(), entry.power_mw.value(), "mW");
            }
        }
    }
    std::printf("%s\n%s\n", speedups.ToString().c_str(), powers.ToString().c_str());
    std::printf("Base speed: paper 0.129 GIPS, measured %.4f GIPS\n",
                table.base_speed_gips());
    return 0;
}
