/**
 * @file
 * R4 — Timing soak: the deadline-aware control loop under a grid of
 * tick-timing adversity (no paper counterpart; see DESIGN.md §13).
 *
 * Sweeps jitter intensity (tick-jitter storms, handler overruns, clock
 * skew) against suspend intensity (suspend/resume windows) and runs seeded
 * chaos campaigns restricted to the timing fault classes in every cell.
 * The invariant-monitor catalogue rides along, so a stale actuation or an
 * unbounded deadline-miss run in any cell fails the bench (non-zero exit).
 *
 * Reports per-cell deadline accounting — jitter/missed/suspend-gap ticks,
 * stale-guard quarantines, fallbacks — and emits robustness_timing_soak.csv
 * plus BENCH_timing_soak.json, the machine-readable snapshot CI regenerates
 * at --jobs=1 and --jobs=4 and diffs byte-for-byte against the committed
 * copy (results are bit-identical at any worker count).
 */
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "apps/app_registry.h"
#include "bench_common.h"
#include "chaos/campaign.h"
#include "chaos/scenario_generator.h"
#include "common/csv.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/text_table.h"
#include "core/batch_runner.h"
#include "core/offline_profiler.h"
#include "core/scenarios.h"

namespace aeo {
namespace {

constexpr const char kApp[] = "AngryBirds";
constexpr uint64_t kDefaultSeed = 2017;
/** Between AngryBirds' base and saturation speed (as the thermal soak). */
constexpr double kTargetGips = 0.22;

/** One grid cell: relative intensity of each timing-adversity axis. */
struct Cell {
    double jitter = 0.0;   // tick jitter storms, overruns, clock skew
    double suspend = 0.0;  // suspend/resume windows
};

/** A timing-classes-only campaign spec for @p cell. */
chaos::CampaignSpec
CellSpec(const Cell& cell, bool fast)
{
    chaos::CampaignSpec spec;
    spec.duration_s = fast ? 40.0 : 120.0;
    spec.bursts_per_minute = 4.0;
    spec.base_intensity = 0.5;
    spec.intensity_ramp = 0.2;
    spec.class_weights =
        std::vector<double>(chaos::kFaultClassCount, 0.0);
    auto weight = [&spec](chaos::FaultClass cls, double value) {
        spec.class_weights[static_cast<size_t>(cls)] = value;
    };
    weight(chaos::FaultClass::kTickJitterStorm, cell.jitter);
    weight(chaos::FaultClass::kTickOverrun, cell.jitter);
    weight(chaos::FaultClass::kClockSkew, 0.5 * cell.jitter);
    weight(chaos::FaultClass::kSuspendResume, cell.suspend);
    return spec;
}

/** Scenario seed for run @p run of cell @p cell under @p root (stable). */
uint64_t
CellSeed(uint64_t root, size_t cell, int run)
{
    return root + 104729ull * (16ull * cell +
                               static_cast<uint64_t>(run) + 1ull);
}

/**
 * The scenario a cell run injects. The (0, 0) baseline cell has every
 * class weight at zero, which the generator's weighted draw cannot
 * represent — the baseline is the *empty* scenario, i.e. the clean control
 * loop on the same seeded device.
 */
chaos::ChaosScenario
CellScenario(const Cell& cell, const chaos::CampaignSpec& spec,
             uint64_t scenario_seed)
{
    if (cell.jitter <= 0.0 && cell.suspend <= 0.0) {
        chaos::ChaosScenario empty;
        empty.seed = scenario_seed;
        return empty;
    }
    return chaos::GenerateScenario(spec, scenario_seed);
}

/** Structural outcome of every run, for the byte-diffed CI snapshot. */
JsonValue
SnapshotJson(const bench::BenchArgs& args, uint64_t seed, bool fast,
             const std::vector<Cell>& cells, int runs_per_cell,
             const std::vector<chaos::CampaignReport>& reports)
{
    JsonValue doc = JsonValue::MakeObject();
    doc.Set("schema", 1);
    doc.Set("bench", "robustness_timing_soak");
    doc.Set("app", kApp);
    doc.Set("root_seed", chaos::SeedToJson(seed));
    doc.Set("fast", fast);
    doc.Set("profile_runs", args.ProfileRuns());
    doc.Set("runs_per_cell", runs_per_cell);
    JsonValue cell_array = JsonValue::MakeArray();
    for (size_t c = 0; c < cells.size(); ++c) {
        JsonValue entry = JsonValue::MakeObject();
        entry.Set("jitter_intensity", StrFormat("%.2f", cells[c].jitter));
        entry.Set("suspend_intensity", StrFormat("%.2f", cells[c].suspend));
        JsonValue runs = JsonValue::MakeArray();
        for (int r = 0; r < runs_per_cell; ++r) {
            const chaos::CampaignReport& report =
                reports[c * static_cast<size_t>(runs_per_cell) +
                        static_cast<size_t>(r)];
            JsonValue run = JsonValue::MakeObject();
            run.Set("seed", chaos::SeedToJson(report.seed));
            run.Set("cycles", report.cycles);
            run.Set("jitter_ticks", report.jitter_ticks);
            run.Set("missed_ticks", report.missed_ticks);
            run.Set("suspend_gap_ticks", report.suspend_gap_ticks);
            run.Set("stale_guard_cycles", report.stale_guard_cycles);
            run.Set("degraded_cycles", report.degraded_cycles);
            run.Set("fallback", report.fallback);
            run.Set("reengage_count", report.reengage_count);
            run.Set("total_violations", report.total_violations);
            run.Set("first_violation_cycle", report.first_violation_cycle);
            run.Set("first_violation_monitor",
                    report.first_violation_monitor);
            run.Set("energy_j", StrFormat("%.6g", report.energy_j));
            run.Set("avg_gips", StrFormat("%.6g", report.avg_gips));
            runs.Append(std::move(run));
        }
        entry.Set("runs", std::move(runs));
        cell_array.Append(std::move(entry));
    }
    doc.Set("cells", std::move(cell_array));
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

    const std::string json_path = args.JsonPath("BENCH_timing_soak.json");

    bench::PrintHeader("R4 / timing soak",
                       "Deadline-aware control under jitter x suspend "
                       "adversity grids");

    // Clean profile, as the §V procedure would obtain it (timing faults
    // perturb the controlled run, never the offline data).
    const AppScenario scenario = GetAppScenario(kApp);
    ProfilerOptions profiler_options;
    profiler_options.runs = args.ProfileRuns();
    profiler_options.cpu_levels = scenario.profile_cpu_levels;
    profiler_options.measure_duration = scenario.profile_duration;
    profiler_options.seed = seed + 1000;
    profiler_options.batch = args.batch;
    const ProfileTable table =
        OfflineProfiler().Profile(MakeAppSpecByName(kApp), profiler_options);

    const std::vector<Cell> cells =
        fast ? std::vector<Cell>{{0.0, 0.0}, {0.8, 0.0}, {0.0, 1.0},
                                 {0.8, 1.0}}
             : std::vector<Cell>{{0.0, 0.0}, {0.4, 0.0}, {0.8, 0.0},
                                 {0.0, 0.5}, {0.0, 1.0}, {0.4, 0.5},
                                 {0.8, 0.5}, {0.4, 1.0}, {0.8, 1.0}};
    const int runs_per_cell = fast ? 2 : 3;

    // Every cell run is seeded and self-contained: fan the whole grid out.
    std::vector<std::function<chaos::CampaignReport()>> tasks;
    std::vector<chaos::CampaignOptions> cell_options(cells.size());
    for (size_t c = 0; c < cells.size(); ++c) {
        chaos::CampaignOptions& options = cell_options[c];
        options.app = kApp;
        options.table = &table;
        options.target_gips = kTargetGips;
        options.spec = CellSpec(cells[c], fast);
        for (int r = 0; r < runs_per_cell; ++r) {
            const uint64_t scenario_seed = CellSeed(seed, c, r);
            const Cell cell = cells[c];
            tasks.push_back([&options, cell, scenario_seed] {
                return chaos::RunCampaign(
                    options,
                    CellScenario(cell, options.spec, scenario_seed));
            });
        }
    }
    const std::vector<chaos::CampaignReport> reports =
        BatchRunner(args.batch).RunOrdered(std::move(tasks));

    TextTable text({"Jitter", "Suspend", "Cycles", "Jit/Miss/Gap ticks",
                    "Stale-guard", "Degraded", "Fallback", "Violations"});
    CsvWriter csv({"jitter_intensity", "suspend_intensity", "run", "seed",
                   "cycles", "jitter_ticks", "missed_ticks",
                   "suspend_gap_ticks", "stale_guard_cycles",
                   "degraded_cycles", "fallback", "reengage_count",
                   "total_violations", "first_violation_monitor",
                   "first_violation_cycle", "energy_j", "avg_gips"});
    uint64_t total_violations = 0;
    for (size_t c = 0; c < cells.size(); ++c) {
        uint64_t cycles = 0, jit = 0, miss = 0, gap = 0, stale = 0, deg = 0;
        uint64_t violations = 0;
        int fallbacks = 0;
        for (int r = 0; r < runs_per_cell; ++r) {
            const chaos::CampaignReport& report =
                reports[c * static_cast<size_t>(runs_per_cell) +
                        static_cast<size_t>(r)];
            cycles += report.cycles;
            jit += report.jitter_ticks;
            miss += report.missed_ticks;
            gap += report.suspend_gap_ticks;
            stale += report.stale_guard_cycles;
            deg += report.degraded_cycles;
            violations += report.total_violations;
            fallbacks += report.fallback ? 1 : 0;
            csv.AddRow(
                {StrFormat("%.2f", cells[c].jitter),
                 StrFormat("%.2f", cells[c].suspend), StrFormat("%d", r),
                 StrFormat("%llu",
                           static_cast<unsigned long long>(report.seed)),
                 StrFormat("%llu",
                           static_cast<unsigned long long>(report.cycles)),
                 StrFormat("%llu", static_cast<unsigned long long>(
                                       report.jitter_ticks)),
                 StrFormat("%llu", static_cast<unsigned long long>(
                                       report.missed_ticks)),
                 StrFormat("%llu", static_cast<unsigned long long>(
                                       report.suspend_gap_ticks)),
                 StrFormat("%llu", static_cast<unsigned long long>(
                                       report.stale_guard_cycles)),
                 StrFormat("%llu", static_cast<unsigned long long>(
                                       report.degraded_cycles)),
                 report.fallback ? "1" : "0",
                 StrFormat("%llu", static_cast<unsigned long long>(
                                       report.reengage_count)),
                 StrFormat("%llu", static_cast<unsigned long long>(
                                       report.total_violations)),
                 report.first_violation_monitor,
                 StrFormat("%lld", static_cast<long long>(
                                       report.first_violation_cycle)),
                 StrFormat("%.6g", report.energy_j),
                 StrFormat("%.6g", report.avg_gips)});
        }
        total_violations += violations;
        text.AddRow(
            {StrFormat("%.2f", cells[c].jitter),
             StrFormat("%.2f", cells[c].suspend),
             StrFormat("%llu", static_cast<unsigned long long>(cycles)),
             StrFormat("%llu/%llu/%llu",
                       static_cast<unsigned long long>(jit),
                       static_cast<unsigned long long>(miss),
                       static_cast<unsigned long long>(gap)),
             StrFormat("%llu", static_cast<unsigned long long>(stale)),
             StrFormat("%llu", static_cast<unsigned long long>(deg)),
             fallbacks > 0 ? StrFormat("%d", fallbacks) : "no",
             StrFormat("%llu", static_cast<unsigned long long>(violations))});
    }
    std::printf("%s\n", text.ToString().c_str());

    const std::string csv_path =
        args.OutputPath("robustness_timing_soak.csv");
    csv.WriteFile(csv_path);
    std::printf("Wrote %s\n", csv_path.c_str());

    std::ofstream snapshot(json_path);
    snapshot << SnapshotJson(args, seed, fast, cells, runs_per_cell, reports)
                    .Dump(2)
             << "\n";
    snapshot.close();
    std::printf("Wrote %s\n\n", json_path.c_str());

    if (total_violations > 0) {
        std::printf("%llu invariant violation(s) across the grid — FAIL.\n",
                    static_cast<unsigned long long>(total_violations));
        return 1;
    }
    std::printf("All %zu cells clean: every invariant held under timing "
                "adversity.\n",
                cells.size());
    return 0;
}
