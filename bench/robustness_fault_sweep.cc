/**
 * @file
 * R1 — Robustness: the hardened controller under injected kernel-interface
 * and instrumentation faults (no paper counterpart; see DESIGN.md §"Failure
 * model & degraded mode").
 *
 * Sweeps a transient fault rate applied simultaneously to sysfs actuation
 * (EBUSY + latency spikes), PMU reads (drops + stale values) and the power
 * meter (missed windows), and reports the controller's performance
 * violation, energy relative to the fault-free run, and the hardening
 * machinery's counters. A final 100 % sticky-failure case demonstrates the
 * watchdog reverting to the stock governors within K = 3 control cycles.
 *
 * Emits robustness_fault_sweep.csv alongside the text table.
 */
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "apps/app_registry.h"
#include "bench_common.h"
#include "common/csv.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/text_table.h"
#include "core/batch_runner.h"
#include "core/offline_profiler.h"
#include "core/online_controller.h"
#include "core/scenarios.h"
#include "device/device.h"
#include "platform/sim_platform.h"

namespace aeo {
namespace {

constexpr const char kApp[] = "AngryBirds";
constexpr uint64_t kDefaultSeed = 2017;

std::vector<FaultRule>
TransientFaults(double rate)
{
    std::vector<FaultRule> rules;

    FaultRule actuation;  // EBUSY + latency spikes + lying writes (cpufreq)
    actuation.path_prefix = kCpufreqSysfsRoot;
    actuation.fail_probability = rate;
    actuation.errc = FaultErrc::kBusy;
    actuation.latency_spike_probability = rate;
    actuation.silent_clamp_probability = rate;
    rules.push_back(actuation);
    actuation.path_prefix = kDevfreqSysfsRoot;
    rules.push_back(actuation);

    FaultRule pmu;  // dropped and stale performance-counter reads
    pmu.path_prefix = kPmuFaultPath;
    pmu.fail_probability = rate;
    pmu.errc = FaultErrc::kIo;
    pmu.stale_probability = rate;
    rules.push_back(pmu);

    FaultRule meter;  // missed power-meter sample windows
    meter.path_prefix = kMonsoonFaultPath;
    meter.fail_probability = rate;
    meter.errc = FaultErrc::kIo;
    rules.push_back(meter);

    return rules;
}

struct SweepRow {
    double rate = 0.0;
    double energy_j = 0.0;
    double avg_gips = 0.0;
    double violation_pct = 0.0;   // shortfall of delivered vs target perf
    double degraded_frac = 0.0;   // cycles run in degraded mode
    uint64_t retries = 0;
    uint64_t failed_ops = 0;
    uint64_t silent_clamps = 0;
    uint64_t readback_failures = 0;
    uint64_t dropped_pmu = 0;
    uint64_t stale_pmu = 0;
    uint64_t dropped_meter = 0;
    uint64_t fault_events = 0;
    bool fallback = false;
};

SweepRow
RunAtRate(const ProfileTable& table, double target_gips, double rate,
          uint64_t seed)
{
    const AppScenario scenario = GetAppScenario(kApp);
    DeviceConfig device_config;
    device_config.seed = seed + 2000;
    device_config.fault_rules = TransientFaults(rate);
    Device device(device_config);
    device.LaunchApp(MakeAppSpecByName(kApp));

    ControllerConfig config;
    config.target_gips = target_gips;
    platform::SimPlatform plat(&device);
    OnlineController controller(&plat, table, config);
    controller.Start();
    device.RunFor(scenario.run_duration);
    controller.Stop();

    const RunResult result = device.CollectResult("controller+faults");
    SweepRow row;
    row.rate = rate;
    row.energy_j = result.energy_j;
    row.avg_gips = result.avg_gips;
    row.violation_pct =
        std::max(0.0, target_gips - result.avg_gips) / target_gips * 100.0;
    row.degraded_frac =
        controller.cycle_count() > 0
            ? static_cast<double>(controller.degraded_cycle_count()) /
                  static_cast<double>(controller.cycle_count())
            : 0.0;
    row.retries = controller.actuator().stats().retries;
    row.failed_ops = controller.actuator().stats().failed_ops;
    row.silent_clamps = controller.actuator().stats().silent_clamps;
    row.readback_failures = controller.actuator().stats().readback_failures;
    row.dropped_pmu = device.perf().dropped_sample_count();
    row.stale_pmu = device.perf().stale_sample_count();
    row.dropped_meter = device.monitor().dropped_sample_count();
    row.fault_events = device.fault_injector() != nullptr
                           ? device.fault_injector()->trace().size()
                           : 0;
    row.fallback = controller.fallback_engaged();
    return row;
}

void
StickyFailureDemo(const ProfileTable& table, double target_gips,
                  uint64_t seed)
{
    FaultRule sticky;
    sticky.path_prefix = std::string(kCpufreqSysfsRoot) + "/scaling_setspeed";
    sticky.fail_probability = 1.0;
    sticky.errc = FaultErrc::kIo;
    sticky.duration = FaultDuration::kSticky;

    DeviceConfig device_config;
    device_config.seed = seed + 3000;
    device_config.fault_rules = {sticky};
    Device device(device_config);
    device.LaunchApp(MakeAppSpecByName(kApp));

    ControllerConfig config;
    config.target_gips = target_gips;
    platform::SimPlatform plat(&device);
    OnlineController controller(&plat, table, config);
    controller.Start();
    device.RunFor(GetAppScenario(kApp).run_duration);
    controller.Stop();

    std::printf(
        "100%% sticky actuation failure: watchdog %s after %zu control "
        "cycle(s)\n  (K = %d; Start's initial apply is the first strike), "
        "governors now %s/%s.\n",
        controller.fallback_engaged() ? "reverted to stock governors"
                                      : "DID NOT ENGAGE",
        controller.cycle_count(), config.watchdog_threshold,
        device.cpufreq().governor_name().c_str(),
        device.devfreq().governor_name().c_str());
}

/**
 * The snapshot holds the structural outcome of the sweep — the counters are
 * exact integer results of the seeded simulation, the continuous values are
 * %.6g-rounded. CI regenerates it at --jobs=1 and --jobs=4 and diffs
 * byte-for-byte against the committed copy.
 */
JsonValue
SnapshotJson(const bench::BenchArgs& args, uint64_t seed, bool fast,
             const std::vector<SweepRow>& rows)
{
    JsonValue doc = JsonValue::MakeObject();
    doc.Set("schema", 1);
    doc.Set("bench", "robustness_fault_sweep");
    doc.Set("app", kApp);
    doc.Set("root_seed", StrFormat("%llu",
                                   static_cast<unsigned long long>(seed)));
    doc.Set("fast", fast);
    doc.Set("profile_runs", args.ProfileRuns());
    JsonValue sweep = JsonValue::MakeArray();
    for (const SweepRow& row : rows) {
        JsonValue entry = JsonValue::MakeObject();
        entry.Set("fault_rate", StrFormat("%.2f", row.rate));
        entry.Set("energy_j", StrFormat("%.6g", row.energy_j));
        entry.Set("avg_gips", StrFormat("%.6g", row.avg_gips));
        entry.Set("violation_pct", StrFormat("%.6g", row.violation_pct));
        entry.Set("degraded_frac", StrFormat("%.6g", row.degraded_frac));
        entry.Set("retries", row.retries);
        entry.Set("failed_ops", row.failed_ops);
        entry.Set("silent_clamps", row.silent_clamps);
        entry.Set("readback_failures", row.readback_failures);
        entry.Set("dropped_pmu", row.dropped_pmu);
        entry.Set("stale_pmu", row.stale_pmu);
        entry.Set("dropped_meter", row.dropped_meter);
        entry.Set("fault_events", row.fault_events);
        entry.Set("fallback", row.fallback);
        sweep.Append(std::move(entry));
    }
    doc.Set("sweep", std::move(sweep));
    return doc;
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
    const std::string json_path = args.JsonPath("BENCH_fault_sweep.json");
    bench::PrintHeader("R1 / robustness",
                       "Fault-rate sweep: hardened controller vs injected "
                       "sysfs/PMU/meter failures");

    // Clean profile and target, exactly as the §V procedure would obtain
    // them (faults perturb the controlled run, not the offline data).
    const AppScenario scenario = GetAppScenario(kApp);
    ProfilerOptions profiler_options;
    profiler_options.runs = args.ProfileRuns();
    profiler_options.cpu_levels = scenario.profile_cpu_levels;
    profiler_options.measure_duration = scenario.profile_duration;
    profiler_options.seed = seed + 1000;
    profiler_options.batch = args.batch;
    const ProfileTable table =
        OfflineProfiler().Profile(MakeAppSpecByName(kApp), profiler_options);

    DeviceConfig default_config;
    default_config.seed = seed;
    Device default_device(default_config);
    default_device.UseDefaultGovernors();
    default_device.LaunchApp(MakeAppSpecByName(kApp));
    default_device.RunFor(scenario.run_duration);
    const double target = default_device.CollectResult("default").avg_gips;

    const std::vector<double> rates =
        fast ? std::vector<double>{0.0, 0.05, 0.25}
             : std::vector<double>{0.0, 0.01, 0.02, 0.05, 0.10, 0.25, 0.50};

    // "Failed/Lied": writes the kernel *rejected* vs writes it *accepted but
    // did not apply* (silent clamps caught by read-back) — distinct failure
    // modes with distinct controller responses (retry/watchdog vs masking).
    TextTable text({"Fault rate", "Energy (J)", "vs fault-free", "Violation",
                    "Degraded", "Retries", "Failed/Lied", "PMU drop/stale",
                    "Meter drop", "Fallback"});
    CsvWriter csv({"fault_rate", "energy_j", "energy_vs_fault_free_pct",
                   "avg_gips", "violation_pct", "degraded_cycle_frac",
                   "retries", "failed_ops", "silent_clamps",
                   "readback_failures", "dropped_pmu", "stale_pmu",
                   "dropped_meter", "fault_events", "fallback_engaged"});

    // Each rate's controlled run is seeded and self-contained: fan them out,
    // then do the vs-fault-free math in rate order (0.0 is first).
    std::vector<std::function<SweepRow()>> sweep_tasks;
    for (const double rate : rates) {
        sweep_tasks.push_back(
            [&table, target, rate, seed] {
                return RunAtRate(table, target, rate, seed);
            });
    }
    const std::vector<SweepRow> sweep_rows =
        BatchRunner(args.batch).RunOrdered(std::move(sweep_tasks));

    double fault_free_energy = 0.0;
    double fault_free_violation = 0.0;
    double violation_at_5pct = -1.0;
    for (const SweepRow& row : sweep_rows) {
        const double rate = row.rate;
        if (rate == 0.0) {
            fault_free_energy = row.energy_j;
            fault_free_violation = row.violation_pct;
        }
        if (rate == 0.05) {
            violation_at_5pct = row.violation_pct;
        }
        const double energy_delta_pct =
            fault_free_energy > 0.0
                ? (row.energy_j / fault_free_energy - 1.0) * 100.0
                : 0.0;
        text.AddRow({StrFormat("%.0f%%", rate * 100.0),
                     StrFormat("%.1f", row.energy_j),
                     StrFormat("%+.2f%%", energy_delta_pct),
                     StrFormat("%.2f%%", row.violation_pct),
                     StrFormat("%.0f%%", row.degraded_frac * 100.0),
                     StrFormat("%llu", static_cast<unsigned long long>(row.retries)),
                     StrFormat("%llu/%llu",
                               static_cast<unsigned long long>(row.failed_ops),
                               static_cast<unsigned long long>(row.silent_clamps)),
                     StrFormat("%llu/%llu",
                               static_cast<unsigned long long>(row.dropped_pmu),
                               static_cast<unsigned long long>(row.stale_pmu)),
                     StrFormat("%llu", static_cast<unsigned long long>(row.dropped_meter)),
                     row.fallback ? "YES" : "no"});
        csv.AddRow({StrFormat("%.2f", rate), StrFormat("%.6g", row.energy_j),
                    StrFormat("%.6g", energy_delta_pct),
                    StrFormat("%.6g", row.avg_gips),
                    StrFormat("%.6g", row.violation_pct),
                    StrFormat("%.6g", row.degraded_frac),
                    StrFormat("%llu", static_cast<unsigned long long>(row.retries)),
                    StrFormat("%llu", static_cast<unsigned long long>(row.failed_ops)),
                    StrFormat("%llu", static_cast<unsigned long long>(row.silent_clamps)),
                    StrFormat("%llu", static_cast<unsigned long long>(row.readback_failures)),
                    StrFormat("%llu", static_cast<unsigned long long>(row.dropped_pmu)),
                    StrFormat("%llu", static_cast<unsigned long long>(row.stale_pmu)),
                    StrFormat("%llu", static_cast<unsigned long long>(row.dropped_meter)),
                    StrFormat("%llu", static_cast<unsigned long long>(row.fault_events)),
                    row.fallback ? "1" : "0"});
        std::fflush(stdout);
    }
    std::printf("%s\n", text.ToString().c_str());

    const std::string csv_path =
        args.OutputPath("robustness_fault_sweep.csv");
    csv.WriteFile(csv_path);
    std::printf("Wrote %s\n", csv_path.c_str());

    std::ofstream snapshot(json_path);
    snapshot << SnapshotJson(args, seed, fast, sweep_rows).Dump(2) << "\n";
    snapshot.close();
    std::printf("Wrote %s\n\n", json_path.c_str());

    if (violation_at_5pct >= 0.0) {
        // The acceptance bar: violation at a 5 % fault rate within 2× the
        // fault-free violation (with a 1 % absolute floor, since the
        // fault-free controller regulates to well under a percent), plus
        // the physically-unavoidable loss from lying writes: a dwell whose
        // write was silently clamped really ran at clamp_factor × the
        // requested frequency, and a rate regulator cannot retroactively
        // mint the instructions that dwell never executed. Worst case that
        // loss is rate × (1 − factor) of delivered performance.
        const FaultRule reference = TransientFaults(0.05).front();
        const double physical_loss_pct = 0.05 *
            (1.0 - reference.silent_clamp_factor) * 100.0;
        const double bound =
            std::max(2.0 * fault_free_violation, 1.0) + physical_loss_pct;
        std::printf("Acceptance: violation at 5%% faults = %.2f%% "
                    "(fault-free %.2f%%, clamp-loss allowance %.2f%%, "
                    "bound %.2f%%) — %s\n\n",
                    violation_at_5pct, fault_free_violation,
                    physical_loss_pct, bound,
                    violation_at_5pct <= bound ? "PASS" : "FAIL");
    }

    StickyFailureDemo(table, target, seed);
    return 0;
}
