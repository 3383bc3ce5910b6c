/**
 * @file
 * E7 — Table IV: controller performance and energy savings when the runtime
 * background load differs from the profiling load (§V-C). Profiling always
 * happens under the baseline load (BL); the controller is then evaluated
 * under BL, no-load (NL) and heavier-load (HL) conditions against the
 * default governors in the same condition.
 *
 * Emits BENCH_table4.json (override with --json=PATH): a deterministic,
 * jobs-invariant snapshot of the app x load grid, %.6g-rounded, diffed
 * byte-for-byte in CI against bench/snapshots/BENCH_table4.json. Wall time
 * and simulated-event throughput go to the <snapshot>.perf.json sidecar.
 */
#include <cstdio>

#include "bench_common.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/text_table.h"
#include "core/experiment.h"
#include "paper_data.h"
#include "sim/event_queue.h"

int
main(int argc, char** argv)
{
    using namespace aeo;
    SetLogLevel(LogLevel::kWarn);
    const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
    bench::PrintHeader("E7 / Table IV",
                       "Background-load sensitivity (profiled under BL)");

    ExperimentHarness harness;

    struct LoadCase {
        BackgroundKind kind;
        const std::vector<paper::AppRow>& paper_rows;
    };
    const LoadCase cases[] = {
        {BackgroundKind::kBaseline, paper::TableIV_BL()},
        {BackgroundKind::kNoLoad, paper::TableIV_NL()},
        {BackgroundKind::kHeavy, paper::TableIV_HL()},
    };

    // Fan the 6 apps × 3 loads grid across the batch layer, then render the
    // rows in the original (app-major) order.
    std::vector<ComparisonJob> jobs;
    for (const std::string& app : EvaluationAppNames()) {
        for (const LoadCase& load_case : cases) {
            ExperimentOptions options;
            options.profile_runs = args.ProfileRuns();
            options.seed = 2017;
            options.profile_load = BackgroundKind::kBaseline;  // §V-C: BL data
            options.run_load = load_case.kind;
            // Off by default: the gated snapshot compares vs interactive.
            options.baseline_cpu_governor = args.baseline;
            jobs.push_back(ComparisonJob{app, options});
        }
    }
    const uint64_t events_before = TotalExecutedEvents();
    const double wall_start = bench::MonotonicSeconds();
    const std::vector<ExperimentOutcome> outcomes =
        harness.RunComparisons(std::move(jobs), args.batch);
    const double wall_seconds = bench::MonotonicSeconds() - wall_start;
    const uint64_t events_executed = TotalExecutedEvents() - events_before;

    TextTable table({"Application", "Load", "Perf (paper)", "Perf (ours)",
                     "Energy (paper)", "Energy (ours)"});
    size_t i = 0;
    for (const std::string& app : EvaluationAppNames()) {
        for (const LoadCase& load_case : cases) {
            const ExperimentOutcome& outcome = outcomes[i++];
            double paper_perf = 0.0;
            double paper_energy = 0.0;
            for (const auto& row : load_case.paper_rows) {
                if (row.app == app) {
                    paper_perf = row.perf_delta_pct;
                    paper_energy = row.energy_savings_pct;
                }
            }
            table.AddRow({app, ToString(load_case.kind),
                          StrFormat("%+.1f%%", paper_perf),
                          StrFormat("%+.1f%%", outcome.perf_delta_pct),
                          StrFormat("%.1f%%", paper_energy),
                          StrFormat("%.1f%%", outcome.energy_savings_pct)});
        }
        table.AddSeparator();
    }
    std::printf("%s\n", table.ToString().c_str());
    std::printf("Profiling data and targets always come from the baseline load;\n"
                "mismatched runtime loads reduce savings (most visibly for\n"
                "Spotify), as the paper reports.\n\n");

    JsonValue doc = JsonValue::MakeObject();
    doc.Set("schema", 1);
    doc.Set("bench", "table4_background_loads");
    doc.Set("root_seed", "2017");
    doc.Set("fast", args.fast);
    doc.Set("profile_runs", args.ProfileRuns());
    JsonValue rows = JsonValue::MakeArray();
    size_t j = 0;
    for (const std::string& app : EvaluationAppNames()) {
        for (const LoadCase& load_case : cases) {
            const ExperimentOutcome& outcome = outcomes[j++];
            JsonValue entry = JsonValue::MakeObject();
            entry.Set("app", app);
            entry.Set("load", ToString(load_case.kind));
            entry.Set("perf_delta_pct",
                      StrFormat("%.6g", outcome.perf_delta_pct));
            entry.Set("energy_savings_pct",
                      StrFormat("%.6g", outcome.energy_savings_pct));
            entry.Set("default_energy_j",
                      StrFormat("%.6g", outcome.default_run.energy_j));
            entry.Set("controller_energy_j",
                      StrFormat("%.6g", outcome.controller_run.energy_j));
            rows.Append(std::move(entry));
        }
    }
    doc.Set("rows", std::move(rows));
    const std::string json_path = args.JsonPath("BENCH_table4.json");
    bench::WriteSnapshotFile(json_path, doc.Dump(2) + "\n");
    bench::WritePerfMeta(json_path, wall_seconds, events_executed);
    return 0;
}
