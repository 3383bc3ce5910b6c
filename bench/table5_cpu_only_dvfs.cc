/**
 * @file
 * E8 — Table V: the CPU-only DVFS ablation (§V-D). The controller manages
 * only the CPU frequency; the memory bus stays with cpubw_hwmon, taking
 * decisions "in an independent and isolated manner". The paper reports that
 * coordinated control saves substantially more energy (≈53 % lower energy
 * consumption on average) because the default bandwidth governor holds a
 * higher-than-necessary bandwidth for most of the runtime.
 *
 * Emits BENCH_table5.json (override with --json=PATH): a deterministic,
 * jobs-invariant snapshot of the ablation vs coordinated outcomes,
 * %.6g-rounded, diffed byte-for-byte in CI against
 * bench/snapshots/BENCH_table5.json. Wall time and simulated-event
 * throughput go to the <snapshot>.perf.json sidecar.
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
    bench::PrintHeader("E8 / Table V", "CPU-only DVFS controller vs default");

    ExperimentHarness harness;

    // Per app, the CPU-only ablation then the coordinated comparison: two
    // batch jobs, interleaved in submission order.
    std::vector<ComparisonJob> jobs;
    for (const auto& row : paper::TableV()) {
        ExperimentOptions cpu_only;
        cpu_only.profile_runs = args.ProfileRuns();
        cpu_only.seed = 2017;
        cpu_only.cpu_only = true;
        jobs.push_back(ComparisonJob{row.app, cpu_only});

        ExperimentOptions coordinated = cpu_only;
        coordinated.cpu_only = false;
        jobs.push_back(ComparisonJob{row.app, coordinated});
    }
    const uint64_t events_before = TotalExecutedEvents();
    const double wall_start = bench::MonotonicSeconds();
    const std::vector<ExperimentOutcome> outcomes =
        harness.RunComparisons(std::move(jobs), args.batch);
    const double wall_seconds = bench::MonotonicSeconds() - wall_start;
    const uint64_t events_executed = TotalExecutedEvents() - events_before;

    TextTable table({"Application", "Perf (paper)", "Perf (ours)",
                     "Energy (paper)", "Energy (ours)", "Coordinated (ours)"});
    double coordinated_sum = 0.0;
    double cpu_only_sum = 0.0;
    size_t i = 0;
    for (const auto& row : paper::TableV()) {
        const ExperimentOutcome& ablation = outcomes[i++];
        const ExperimentOutcome& full = outcomes[i++];

        coordinated_sum += full.energy_savings_pct;
        cpu_only_sum += ablation.energy_savings_pct;

        table.AddRow({row.app, StrFormat("%+.1f%%", row.perf_delta_pct),
                      StrFormat("%+.1f%%", ablation.perf_delta_pct),
                      StrFormat("%.1f%%", row.energy_savings_pct),
                      StrFormat("%.1f%%", ablation.energy_savings_pct),
                      StrFormat("%.1f%%", full.energy_savings_pct)});
    }
    std::printf("%s\n", table.ToString().c_str());
    std::printf("Average savings — coordinated: %.1f%%, CPU-only: %.1f%%.\n"
                "The paper reports CPU-only control consumes ~53%% more energy\n"
                "than the coordinated controller on average.\n\n",
                coordinated_sum / 6.0, cpu_only_sum / 6.0);

    JsonValue doc = JsonValue::MakeObject();
    doc.Set("schema", 1);
    doc.Set("bench", "table5_cpu_only_dvfs");
    doc.Set("root_seed", "2017");
    doc.Set("fast", args.fast);
    doc.Set("profile_runs", args.ProfileRuns());
    JsonValue rows = JsonValue::MakeArray();
    size_t j = 0;
    for (const auto& row : paper::TableV()) {
        const ExperimentOutcome& ablation = outcomes[j++];
        const ExperimentOutcome& full = outcomes[j++];
        JsonValue entry = JsonValue::MakeObject();
        entry.Set("app", row.app);
        entry.Set("cpu_only_perf_delta_pct",
                  StrFormat("%.6g", ablation.perf_delta_pct));
        entry.Set("cpu_only_energy_savings_pct",
                  StrFormat("%.6g", ablation.energy_savings_pct));
        entry.Set("coordinated_energy_savings_pct",
                  StrFormat("%.6g", full.energy_savings_pct));
        entry.Set("cpu_only_energy_j",
                  StrFormat("%.6g", ablation.controller_run.energy_j));
        entry.Set("coordinated_energy_j",
                  StrFormat("%.6g", full.controller_run.energy_j));
        rows.Append(std::move(entry));
    }
    doc.Set("rows", std::move(rows));
    doc.Set("avg_coordinated_savings_pct",
            StrFormat("%.6g", coordinated_sum / 6.0));
    doc.Set("avg_cpu_only_savings_pct", StrFormat("%.6g", cpu_only_sum / 6.0));
    const std::string json_path = args.JsonPath("BENCH_table5.json");
    bench::WriteSnapshotFile(json_path, doc.Dump(2) + "\n");
    bench::WritePerfMeta(json_path, wall_seconds, events_executed);
    return 0;
}
