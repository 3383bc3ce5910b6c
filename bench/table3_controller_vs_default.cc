/**
 * @file
 * E4 — Table III: performance difference and energy savings obtained by the
 * coordinated controller vs the default governors on all six applications
 * under the baseline background load.
 *
 * Emits BENCH_table3.json (override with --json=PATH): a deterministic,
 * jobs-invariant snapshot of the per-app outcomes, %.6g-rounded, diffed
 * byte-for-byte in CI against bench/snapshots/BENCH_table3.json. Wall time
 * and simulated-event throughput go to the non-deterministic sidecar
 * <snapshot>.perf.json so the gated bytes never depend on machine speed.
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
    bench::PrintHeader("E4 / Table III",
                       "Controller vs default governors (baseline load)");

    ExperimentHarness harness;
    ExperimentOptions options;
    options.profile_runs = args.ProfileRuns();
    options.seed = 2017;
    // Off by default: the gated snapshot compares against interactive.
    options.baseline_cpu_governor = args.baseline;

    // One batch job per application; outcomes land in TableIII row order.
    std::vector<ComparisonJob> jobs;
    for (const auto& row : paper::TableIII()) {
        jobs.push_back(ComparisonJob{row.app, options});
    }
    const uint64_t events_before = TotalExecutedEvents();
    const double wall_start = bench::MonotonicSeconds();
    const std::vector<ExperimentOutcome> outcomes =
        harness.RunComparisons(std::move(jobs), args.batch);
    const double wall_seconds = bench::MonotonicSeconds() - wall_start;
    const uint64_t events_executed = TotalExecutedEvents() - events_before;

    TextTable table({"Application", "Perf (paper)", "Perf (ours)",
                     "Energy (paper)", "Energy (ours)"});
    size_t i = 0;
    for (const auto& row : paper::TableIII()) {
        const ExperimentOutcome& outcome = outcomes[i++];
        table.AddRow({row.app, StrFormat("%+.1f%%", row.perf_delta_pct),
                      StrFormat("%+.1f%%", outcome.perf_delta_pct),
                      StrFormat("%.1f%%", row.energy_savings_pct),
                      StrFormat("%.1f%%", outcome.energy_savings_pct)});
    }
    std::printf("%s\n", table.ToString().c_str());
    std::printf("Positive performance = controller faster than default;\n"
                "positive energy = controller saves energy (paper: 4-31%% savings\n"
                "with worst-case performance loss < 1%%).\n\n");

    JsonValue doc = JsonValue::MakeObject();
    doc.Set("schema", 1);
    doc.Set("bench", "table3_controller_vs_default");
    doc.Set("root_seed", "2017");
    doc.Set("fast", args.fast);
    doc.Set("profile_runs", options.profile_runs);
    JsonValue rows = JsonValue::MakeArray();
    size_t j = 0;
    for (const auto& row : paper::TableIII()) {
        const ExperimentOutcome& outcome = outcomes[j++];
        JsonValue entry = JsonValue::MakeObject();
        entry.Set("app", row.app);
        entry.Set("perf_delta_pct", StrFormat("%.6g", outcome.perf_delta_pct));
        entry.Set("energy_savings_pct",
                  StrFormat("%.6g", outcome.energy_savings_pct));
        entry.Set("default_energy_j",
                  StrFormat("%.6g", outcome.default_run.energy_j));
        entry.Set("controller_energy_j",
                  StrFormat("%.6g", outcome.controller_run.energy_j));
        entry.Set("default_avg_gips",
                  StrFormat("%.6g", outcome.default_run.avg_gips));
        entry.Set("controller_avg_gips",
                  StrFormat("%.6g", outcome.controller_run.avg_gips));
        rows.Append(std::move(entry));
    }
    doc.Set("rows", std::move(rows));
    const std::string json_path = args.JsonPath("BENCH_table3.json");
    bench::WriteSnapshotFile(json_path, doc.Dump(2) + "\n");
    bench::WritePerfMeta(json_path, wall_seconds, events_executed);
    return 0;
}
