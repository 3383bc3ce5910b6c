/**
 * @file
 * R3 — Chaos campaigns: seeded compound-fault scenarios against the hardened
 * controller, with runtime invariant monitors and automatic failure
 * minimization (no paper counterpart; see DESIGN.md §12).
 *
 * Fans N seeded campaigns over the batch layer (`--jobs=N` changes only
 * wall-clock, never a report bit), prints a violations-per-campaign table,
 * and emits robustness_chaos_campaign.csv plus BENCH_chaos_campaign.json —
 * the machine-readable snapshot CI diffs against the committed copy.
 *
 * When a campaign violates an invariant, the first failing scenario is
 * delta-debugged to a minimal reproducing fault list and written as a
 * replayable crash bundle (chaos_crash_bundle.json). Replay one with:
 *
 *     robustness_chaos_campaign --replay=chaos_crash_bundle.json
 *
 * which re-runs the bundle and checks the recorded first-violation cycle
 * reproduces exactly. Exit status is non-zero when any campaign violates
 * (campaign mode) or the replay diverges (replay mode).
 */
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "apps/app_registry.h"
#include "bench_common.h"
#include "chaos/campaign.h"
#include "chaos/crash_bundle.h"
#include "chaos/scenario_generator.h"
#include "chaos/scenario_shrinker.h"
#include "common/csv.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/text_table.h"
#include "core/batch_runner.h"
#include "core/offline_profiler.h"
#include "core/scenarios.h"
#include "device/device.h"

namespace aeo {
namespace {

constexpr const char kApp[] = "AngryBirds";
constexpr uint64_t kDefaultSeed = 2017;

/** Campaign shape for this bench (short in --fast for the CI smoke run). */
chaos::CampaignSpec
BenchSpec(bool fast)
{
    chaos::CampaignSpec spec;
    spec.duration_s = fast ? 40.0 : 120.0;
    spec.bursts_per_minute = 3.0;
    spec.phase_anchor_period_s = 10.0;
    return spec;
}

/** Scenario seed for campaign @p index under root @p seed (stable). */
uint64_t
CampaignSeed(uint64_t seed, int index)
{
    return seed + 1000003ull * static_cast<uint64_t>(index + 1);
}

/**
 * The snapshot holds the structural outcome of every campaign — counters
 * and verdicts, which are exact integer results of the seeded simulation —
 * plus %.6g-rounded energy/performance. CI regenerates it with the same
 * flags and diffs byte-for-byte against the committed copy.
 */
JsonValue
SnapshotJson(const bench::BenchArgs& args, uint64_t seed, bool fast,
             const std::vector<chaos::CampaignReport>& reports)
{
    JsonValue doc = JsonValue::MakeObject();
    doc.Set("schema", 1);
    doc.Set("bench", "robustness_chaos_campaign");
    doc.Set("app", kApp);
    doc.Set("root_seed", chaos::SeedToJson(seed));
    doc.Set("fast", fast);
    doc.Set("profile_runs", args.ProfileRuns());
    JsonValue campaigns = JsonValue::MakeArray();
    for (const chaos::CampaignReport& report : reports) {
        JsonValue entry = JsonValue::MakeObject();
        entry.Set("seed", chaos::SeedToJson(report.seed));
        entry.Set("cycles", report.cycles);
        entry.Set("fault_events", report.fault_events);
        entry.Set("degraded_cycles", report.degraded_cycles);
        entry.Set("safe_mode_cycles", report.safe_mode_cycles);
        entry.Set("reengage_count", report.reengage_count);
        entry.Set("fallback", report.fallback);
        entry.Set("total_violations", report.total_violations);
        entry.Set("first_violation_cycle", report.first_violation_cycle);
        entry.Set("first_violation_monitor",
                  report.first_violation_monitor);
        entry.Set("energy_j", StrFormat("%.6g", report.energy_j));
        entry.Set("avg_gips", StrFormat("%.6g", report.avg_gips));
        campaigns.Append(std::move(entry));
    }
    doc.Set("campaigns", std::move(campaigns));
    return doc;
}

/** Rebuilds the clean profile table a campaign or replay regulates with. */
ProfileTable
BuildTable(const std::string& app, int runs, uint64_t profile_seed,
           const BatchOptions& batch)
{
    const AppScenario scenario = GetAppScenario(app);
    ProfilerOptions profiler_options;
    profiler_options.runs = runs;
    profiler_options.cpu_levels = scenario.profile_cpu_levels;
    profiler_options.measure_duration = scenario.profile_duration;
    profiler_options.seed = profile_seed;
    profiler_options.batch = batch;
    return OfflineProfiler().Profile(MakeAppSpecByName(app),
                                     profiler_options);
}

int
RunReplay(const std::string& path, const bench::BenchArgs& args)
{
    bench::PrintHeader("R3 / chaos replay",
                       "Crash-bundle replay: reproduce a recorded "
                       "first violation");
    const chaos::CrashBundleReadResult read = chaos::ReadCrashBundle(path);
    if (!read.ok) {
        std::printf("Cannot replay %s: %s\n", path.c_str(),
                    read.error.c_str());
        return 1;
    }
    const chaos::CrashBundle& bundle = read.bundle;
    std::printf("Bundle: app=%s seed=%llu actions=%zu recorded first "
                "violation at cycle %lld (%s)\n\n",
                bundle.app.c_str(),
                static_cast<unsigned long long>(bundle.scenario.seed),
                bundle.scenario.actions.size(),
                static_cast<long long>(bundle.report.first_violation_cycle),
                bundle.report.first_violation_monitor.c_str());

    const ProfileTable table = BuildTable(
        bundle.app, bundle.profile_runs, bundle.profile_seed, args.batch);
    chaos::CampaignOptions options;
    options.app = bundle.app;
    options.table = &table;
    options.target_gips = bundle.target_gips;
    options.device_seed = bundle.device_seed;
    options.spec = bundle.spec;
    options.enable_thermal = bundle.enable_thermal;
    options.controller.readback_verification = bundle.readback_verification;
    options.controller.cap_confirm_cycles = bundle.cap_confirm_cycles;
    options.controller.reengage = bundle.reengage;
    const chaos::CampaignReport replay =
        chaos::RunCampaign(options, bundle.scenario);

    const bool reproduced =
        replay.first_violation_cycle == bundle.report.first_violation_cycle &&
        replay.first_violation_monitor == bundle.report.first_violation_monitor;
    std::printf("Replay: first violation at cycle %lld (%s) — %s\n",
                static_cast<long long>(replay.first_violation_cycle),
                replay.first_violation_monitor.empty()
                    ? "none"
                    : replay.first_violation_monitor.c_str(),
                reproduced ? "REPRODUCED" : "DIVERGED");
    return reproduced ? 0 : 1;
}

}  // namespace
}  // namespace aeo

int
main(int argc, char** argv)
{
    using namespace aeo;
    SetLogLevel(LogLevel::kQuiet);
    const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
    const bool fast = args.fast;
    const uint64_t seed = args.SeedOr(kDefaultSeed);

    if (!args.replay.empty()) {
        return RunReplay(args.replay, args);
    }
    const int campaigns = args.campaigns > 0 ? args.campaigns : (fast ? 4 : 8);
    const std::string json_path = args.JsonPath("BENCH_chaos_campaign.json");
    const std::string bundle_path =
        args.bundle.empty() ? "chaos_crash_bundle.json" : args.bundle;

    bench::PrintHeader("R3 / chaos campaigns",
                       "Seeded compound-fault scenarios vs the invariant-"
                       "monitored controller");

    // Clean profile and target, as the §V procedure would obtain them.
    const AppScenario app_scenario = GetAppScenario(kApp);
    const ProfileTable table =
        BuildTable(kApp, args.ProfileRuns(), seed + 1000, args.batch);
    DeviceConfig default_config;
    default_config.seed = seed;
    Device default_device(default_config);
    default_device.UseDefaultGovernors();
    default_device.LaunchApp(MakeAppSpecByName(kApp));
    default_device.RunFor(app_scenario.run_duration);
    const double target = default_device.CollectResult("default").avg_gips;

    chaos::CampaignOptions options;
    options.app = kApp;
    options.table = &table;
    options.target_gips = target;
    options.spec = BenchSpec(fast);

    // Each campaign is seeded and self-contained: fan them out.
    std::vector<std::function<chaos::CampaignReport()>> tasks;
    for (int i = 0; i < campaigns; ++i) {
        const uint64_t campaign_seed = CampaignSeed(seed, i);
        tasks.push_back([&options, campaign_seed] {
            const chaos::ChaosScenario scenario =
                chaos::GenerateScenario(options.spec, campaign_seed);
            return chaos::RunCampaign(options, scenario);
        });
    }
    const std::vector<chaos::CampaignReport> reports =
        BatchRunner(args.batch).RunOrdered(std::move(tasks));

    TextTable text({"Campaign", "Seed", "Cycles", "Faults", "Degraded",
                    "Safe", "Fallback", "Violations", "First violation"});
    CsvWriter csv({"campaign", "seed", "cycles", "fault_events",
                   "degraded_cycles", "safe_mode_cycles", "reengage_count",
                   "fallback", "total_violations", "first_violation_monitor",
                   "first_violation_cycle", "energy_j", "avg_gips"});
    int first_failing = -1;
    for (size_t i = 0; i < reports.size(); ++i) {
        const chaos::CampaignReport& report = reports[i];
        if (!report.clean() && first_failing < 0) {
            first_failing = static_cast<int>(i);
        }
        const std::string first =
            report.first_violation_cycle >= 0
                ? StrFormat("%s @ cycle %lld",
                            report.first_violation_monitor.c_str(),
                            static_cast<long long>(
                                report.first_violation_cycle))
                : "-";
        text.AddRow(
            {StrFormat("%zu", i),
             StrFormat("%llu", static_cast<unsigned long long>(report.seed)),
             StrFormat("%llu", static_cast<unsigned long long>(report.cycles)),
             StrFormat("%llu",
                       static_cast<unsigned long long>(report.fault_events)),
             StrFormat("%llu", static_cast<unsigned long long>(
                                   report.degraded_cycles)),
             StrFormat("%llu", static_cast<unsigned long long>(
                                   report.safe_mode_cycles)),
             report.fallback ? "YES" : "no",
             StrFormat("%llu", static_cast<unsigned long long>(
                                   report.total_violations)),
             first});
        csv.AddRow(
            {StrFormat("%zu", i),
             StrFormat("%llu", static_cast<unsigned long long>(report.seed)),
             StrFormat("%llu", static_cast<unsigned long long>(report.cycles)),
             StrFormat("%llu",
                       static_cast<unsigned long long>(report.fault_events)),
             StrFormat("%llu", static_cast<unsigned long long>(
                                   report.degraded_cycles)),
             StrFormat("%llu", static_cast<unsigned long long>(
                                   report.safe_mode_cycles)),
             StrFormat("%llu", static_cast<unsigned long long>(
                                   report.reengage_count)),
             report.fallback ? "1" : "0",
             StrFormat("%llu", static_cast<unsigned long long>(
                                   report.total_violations)),
             report.first_violation_monitor,
             StrFormat("%lld", static_cast<long long>(
                                   report.first_violation_cycle)),
             StrFormat("%.6g", report.energy_j),
             StrFormat("%.6g", report.avg_gips)});
    }
    std::printf("%s\n", text.ToString().c_str());

    const std::string csv_path =
        args.OutputPath("robustness_chaos_campaign.csv");
    csv.WriteFile(csv_path);
    std::printf("Wrote %s\n", csv_path.c_str());

    std::ofstream snapshot(json_path);
    snapshot << SnapshotJson(args, seed, fast, reports).Dump(2) << "\n";
    snapshot.close();
    std::printf("Wrote %s\n\n", json_path.c_str());

    if (first_failing < 0) {
        std::printf("All %d campaigns clean: every invariant held.\n",
                    campaigns);
        return 0;
    }

    // --- Minimize the first failure and leave a replayable bundle ---------
    const uint64_t failing_seed = CampaignSeed(seed, first_failing);
    const chaos::ChaosScenario failing =
        chaos::GenerateScenario(options.spec, failing_seed);
    std::printf("Campaign %d violated — shrinking %zu actions...\n",
                first_failing, failing.actions.size());
    const chaos::ShrinkResult shrunk = chaos::ShrinkScenario(
        failing, [&options](const chaos::ChaosScenario& candidate) {
            return !chaos::RunCampaign(options, candidate).clean();
        });
    const chaos::CampaignReport minimal_report =
        chaos::RunCampaign(options, shrunk.scenario);

    chaos::CrashBundle bundle;
    bundle.app = kApp;
    bundle.target_gips = target;
    bundle.profile_seed = seed + 1000;
    bundle.profile_runs = args.ProfileRuns();
    bundle.device_seed = failing_seed ^ 0x5eedc0de5eedc0deull;
    bundle.enable_thermal = options.enable_thermal;
    bundle.readback_verification = options.controller.readback_verification;
    bundle.cap_confirm_cycles = options.controller.cap_confirm_cycles;
    bundle.reengage = options.controller.reengage;
    bundle.spec = options.spec;
    bundle.scenario = shrunk.scenario;
    bundle.report = minimal_report;
    if (chaos::WriteCrashBundle(bundle_path, bundle)) {
        std::printf("Shrunk to %zu action(s) in %llu probes; wrote %s\n"
                    "Replay: robustness_chaos_campaign --replay=%s\n",
                    shrunk.scenario.actions.size(),
                    static_cast<unsigned long long>(shrunk.probes),
                    bundle_path.c_str(), bundle_path.c_str());
    } else {
        std::printf("Shrunk to %zu action(s) but could not write %s\n",
                    shrunk.scenario.actions.size(), bundle_path.c_str());
    }
    return 1;
}
