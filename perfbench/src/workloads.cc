#include "workloads.h"

#include <cmath>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>

#include "apps/app_registry.h"
#include "chaos/campaign.h"
#include "chaos/invariant_monitor.h"
#include "chaos/scenario_generator.h"
#include "common/json.h"
#include "common/strings.h"
#include "core/batch_runner.h"
#include "core/experiment.h"
#include "core/het_config_space.h"
#include "core/offline_profiler.h"
#include "core/scenarios.h"
#include "device/device.h"
#include "paper_data.h"
#include "power/power_model.h"
#include "sim/event_queue.h"
#include "soc/exynos5433.h"

namespace perfbench {

using namespace aeo;

namespace {

/** Root seed of the committed bench snapshots. */
constexpr uint64_t kSnapshotSeed = 2017;
constexpr const char kChaosApp[] = "AngryBirds";
/** Profiling runs per configuration: the paper's 3 on the Nexus 6, and
 * Table VI's --fast setting on the het grid. */
constexpr int kNexus6ProfileRuns = 3;
constexpr int kHetProfileRuns = 1;
/** Full-length campaigns of a chaos_soak seed, all run by the warm-up,
 * and the prefix a timed repetition runs: a quarter keeps repetitions near
 * 1 s, so a run's wall_s percentile is taken over ~30 of them. */
constexpr size_t kChaosCampaigns = 128;
constexpr size_t kChaosTimedCampaigns = 32;

/** Devices the calling thread's factories have built: profiling-run
 * counts come from the delta across one (serial) profiling call. */
thread_local uint64_t t_devices_built = 0;

DeviceFactory
Counted(DeviceFactory inner)
{
    return [inner = std::move(inner)](uint64_t seed) {
        ++t_devices_built;
        return inner(seed);
    };
}

DeviceFactory
Exynos5433Factory()
{
    return Counted([](uint64_t seed) {
        DeviceConfig config;
        config.seed = seed;
        config.topology = MakeExynos5433Topology();
        config.power_params = MakeExynos5433PowerParams();
        return std::make_unique<Device>(config);
    });
}

/** FNV-1a over the bit patterns of simulated results. */
class Digest {
  public:
    Digest& Add(double value)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof(bits));
        return Add(bits);
    }
    Digest& Add(uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ = (hash_ ^ ((value >> (8 * i)) & 0xffu)) * 1099511628211ull;
        }
        return *this;
    }
    Digest& Add(const RunResult& run)
    {
        Add(run.energy_j).Add(run.measured_energy_j).Add(run.duration_s);
        Add(run.avg_gips).Add(run.executed_gi);
        Add(run.cpu_transitions).Add(run.bw_transitions);
        return Add(run.little_transitions);
    }
    Digest& Add(const ProfileTable& table)
    {
        Add(static_cast<uint64_t>(table.size()));
        for (const ProfileEntry& entry : table.entries()) {
            Add(entry.speedup).Add(entry.power_mw.value());
        }
        return *this;
    }
    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 14695981039346656037ull;
};

bool
Sane(const RunResult& run)
{
    return std::isfinite(run.energy_j) && run.energy_j > 0.0 &&
           std::isfinite(run.avg_gips) && run.avg_gips > 0.0 &&
           run.duration_s > 0.0;
}

std::string
ReadFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return in ? text.str() : std::string();
}

/** Compares @p doc with the committed snapshot @p name; one job. */
void
CheckSnapshot(const std::string& name, const JsonValue& doc, JobAccount* account)
{
    ++account->attempted;
    const std::string expected =
        ReadFile(std::string(PERFBENCH_SNAPSHOT_DIR) + "/" + name);
    const std::string actual = doc.Dump(2) + "\n";
    const bool match = !expected.empty() && actual == expected;
    std::printf("snapshot %-28s %s\n", name.c_str(),
                match ? "reproduced byte-for-byte" : "MISMATCH");
    if (!match) {
        ++account->check_failed;
    }
}

double
PaperSavings(const std::vector<paper::AppRow>& rows, const std::string& app)
{
    for (const paper::AppRow& row : rows) {
        if (row.app == app) {
            return row.energy_savings_pct;
        }
    }
    return 0.0;
}

/** The §V comparison of one Nexus 6 job, as RunComparison() runs it. */
struct Comparison {
    RunResult default_run;
    RunResult controller_run;
    ProfileTable table;
    uint64_t profile_runs = 0;
    double profile_sim_s = 0.0;
};

Comparison
RunNexus6Comparison(const ExperimentHarness& harness, const std::string& app,
                    const ExperimentOptions& options, Tracer* tracer)
{
    RunResult default_run;
    {
        const Tracer::Scope span(tracer, "harness.RunDefault");
        default_run = harness.RunDefault(app, options.run_load, options.seed,
                                         options.baseline_cpu_governor);
    }
    const uint64_t before = t_devices_built;
    Comparison out{std::move(default_run), RunResult(), [&] {
                       const Tracer::Scope span(tracer, "harness.ProfileApp");
                       return harness.ProfileApp(app, options);
                   }()};
    out.profile_runs = t_devices_built - before;
    out.profile_sim_s = static_cast<double>(out.profile_runs) *
                        GetAppScenario(app).profile_duration.seconds();
    {
        const Tracer::Scope span(tracer, "harness.RunWithController");
        out.controller_run = harness.RunWithController(
            app, out.table, out.default_run.avg_gips, options, options.seed + 2000);
    }
    return out;
}

const BackgroundKind kLoads[] = {BackgroundKind::kBaseline, BackgroundKind::kNoLoad,
                                 BackgroundKind::kHeavy};

/** One Table VI app: two baselines, het profiling, controller. */
struct HetOutcome {
    RunResult interactive_run;
    RunResult lulzactive_run;
    RunResult controller_run;
    ProfileTable table;
    double profile_sim_s = 0.0;
};

HetOutcome
RunHetApp(const ExperimentHarness& harness, const DeviceFactory& factory,
          const std::string& app, const std::vector<SystemConfig>& grid,
          int profile_runs, uint64_t seed, Tracer* tracer)
{
    RunResult interactive_run;
    RunResult lulzactive_run;
    {
        const Tracer::Scope span(tracer, "harness.RunDefault");
        interactive_run = harness.RunDefault(app, BackgroundKind::kBaseline, seed);
    }
    {
        const Tracer::Scope span(tracer, "harness.RunDefault");
        lulzactive_run =
            harness.RunDefault(app, BackgroundKind::kBaseline, seed, "lulzactive");
    }
    ProfilerOptions profiler_options;
    profiler_options.configs = grid;
    profiler_options.runs = profile_runs;
    profiler_options.measure_duration = GetAppScenario(app).profile_duration;
    profiler_options.load = BackgroundKind::kBaseline;
    profiler_options.seed = seed + 1000;
    profiler_options.batch.jobs = 1;
    HetOutcome out{std::move(interactive_run), std::move(lulzactive_run),
                   RunResult(), [&] {
                       const Tracer::Scope span(tracer, "profiler.Profile");
                       return OfflineProfiler(factory).Profile(
                           MakeAppSpecByName(app), profiler_options);
                   }()};
    out.profile_sim_s = static_cast<double>(grid.size()) * profile_runs *
                        profiler_options.measure_duration.seconds();
    out.table = out.table.PruneEpsilonDominated(0.01);
    out.table = out.table.PruneSteepTail(
        3.0, out.interactive_run.avg_gips / out.table.base_speed_gips() * 1.02);

    ExperimentOptions options;
    options.seed = seed;
    options.controller.regulator_surplus_band = 8.0;
    options.controller.regulator_max_step_down = 0.06;
    {
        const Tracer::Scope span(tracer, "harness.RunWithController");
        out.controller_run = harness.RunWithController(
            app, out.table, out.interactive_run.avg_gips, options, seed + 2000);
    }
    return out;
}

std::vector<SystemConfig>
HetGrid(std::vector<int> bw_levels, bool prune)
{
    const PowerModel model(MakeExynos5433PowerParams());
    HetSpaceOptions space;
    space.bw_levels = std::move(bw_levels);
    space.prune_convex = prune;
    return EnumerateHetConfigs(MakeExynos5433Topology(), model, space);
}

/** Table VI at its snapshot's seed and --fast grid, compared with the
 * committed BENCH_table6.json as one job in @p account. */
std::vector<HetOutcome>
CheckTable6Snapshot(const ExperimentHarness& harness, const DeviceFactory& factory,
                    const std::vector<std::string>& apps, JobAccount* account)
{
    const std::vector<SystemConfig> grid =
        HetGrid({0, 2, 4, kExynos5433BwLevels - 1}, true);
    const size_t full = HetGrid({}, false).size();
    const BatchRunner runner(BatchOptions{0});
    const std::vector<HetOutcome> outcomes =
        runner.RunIndexed<HetOutcome>(apps.size(), [&](size_t i) {
            return RunHetApp(harness, factory, apps[i], grid, kHetProfileRuns,
                             kSnapshotSeed, nullptr);
        });
    JsonValue doc = JsonValue::MakeObject();
    doc.Set("schema", 1);
    doc.Set("bench", "table6_biglittle");
    doc.Set("root_seed", "2017");
    doc.Set("fast", true);
    doc.Set("profile_runs", 1);
    doc.Set("grid_configs", static_cast<int>(grid.size()));
    doc.Set("grid_full", static_cast<int>(full));
    JsonValue rows = JsonValue::MakeArray();
    double total_int = 0.0, total_lulz = 0.0, total_ours = 0.0;
    for (size_t i = 0; i < apps.size(); ++i) {
        const HetOutcome& o = outcomes[i];
        total_int += o.interactive_run.energy_j;
        total_lulz += o.lulzactive_run.energy_j;
        total_ours += o.controller_run.energy_j;
        JsonValue entry = JsonValue::MakeObject();
        entry.Set("app", apps[i]);
        entry.Set("perf_vs_interactive_pct",
                  StrFormat("%.6g", o.controller_run.PerformanceDeltaPercent(
                                        o.interactive_run)));
        entry.Set("energy_vs_interactive_pct",
                  StrFormat("%.6g", o.controller_run.EnergySavingsPercent(
                                        o.interactive_run)));
        entry.Set("energy_vs_lulzactive_pct",
                  StrFormat("%.6g", o.controller_run.EnergySavingsPercent(
                                        o.lulzactive_run)));
        entry.Set("interactive_energy_j",
                  StrFormat("%.6g", o.interactive_run.energy_j));
        entry.Set("lulzactive_energy_j", StrFormat("%.6g", o.lulzactive_run.energy_j));
        entry.Set("controller_energy_j", StrFormat("%.6g", o.controller_run.energy_j));
        entry.Set("interactive_avg_gips",
                  StrFormat("%.6g", o.interactive_run.avg_gips));
        entry.Set("controller_avg_gips", StrFormat("%.6g", o.controller_run.avg_gips));
        rows.Append(std::move(entry));
    }
    doc.Set("rows", std::move(rows));
    doc.Set("total_energy_vs_interactive_pct",
            StrFormat("%.6g", (1.0 - total_ours / total_int) * 100.0));
    doc.Set("total_energy_vs_lulzactive_pct",
            StrFormat("%.6g", (1.0 - total_ours / total_lulz) * 100.0));
    CheckSnapshot("BENCH_table6.json", doc, account);
    return outcomes;
}

/** Clean profile and target the chaos campaigns regulate with, built as
 * the chaos-campaign bench builds them. */
struct ChaosBase {
    ProfileTable table;
    RunResult default_run;
    uint64_t profile_runs = 0;
    double profile_sim_s = 0.0;
};

ChaosBase
BuildChaosBase(uint64_t root, int runs, Tracer* tracer)
{
    const AppScenario scenario = GetAppScenario(kChaosApp);
    ProfilerOptions profiler_options;
    profiler_options.runs = runs;
    profiler_options.cpu_levels = scenario.profile_cpu_levels;
    profiler_options.measure_duration = scenario.profile_duration;
    profiler_options.seed = root + 1000;
    profiler_options.batch.jobs = 1;
    const uint64_t before = t_devices_built;
    ChaosBase base{[&] {
        const Tracer::Scope span(tracer, "profiler.Profile");
        return OfflineProfiler(Counted(MakeDefaultDeviceFactory()))
            .Profile(MakeAppSpecByName(kChaosApp), profiler_options);
    }(), RunResult()};
    base.profile_runs = t_devices_built - before;
    base.profile_sim_s =
        static_cast<double>(base.profile_runs) * scenario.profile_duration.seconds();

    const Tracer::Scope span(tracer, "device.RunFor");
    DeviceConfig config;
    config.seed = root;
    Device device(config);
    device.UseDefaultGovernors();
    device.LaunchApp(MakeAppSpecByName(kChaosApp));
    device.RunFor(scenario.run_duration);
    base.default_run = device.CollectResult("default");
    return base;
}

chaos::CampaignSpec
ChaosSpec(bool fast)
{
    chaos::CampaignSpec spec;
    spec.duration_s = fast ? 40.0 : 120.0;
    spec.bursts_per_minute = 3.0;
    spec.phase_anchor_period_s = 10.0;
    return spec;
}

uint64_t
CampaignSeed(uint64_t root, size_t index)
{
    return root + 1000003ull * static_cast<uint64_t>(index + 1);
}

chaos::CampaignOptions
ChaosOptions(const ChaosBase& base, bool fast)
{
    chaos::CampaignOptions options;
    options.app = kChaosApp;
    options.table = &base.table;
    options.target_gips = base.default_run.avg_gips;
    options.spec = ChaosSpec(fast);
    return options;
}

std::vector<ProfileTable>
Present(const std::vector<std::optional<ProfileTable>>& tables)
{
    std::vector<ProfileTable> out;
    for (const std::optional<ProfileTable>& table : tables) {
        if (table) {
            out.push_back(*table);
        }
    }
    return out;
}

/** Savings of the controlled device under faults against the clean default
 * run, compared as average power (the runs differ in length). */
double
CampaignSavingsPct(const ChaosBase& base, const chaos::CampaignOptions& options,
                   const chaos::CampaignReport& report)
{
    const double default_mw =
        base.default_run.energy_j / base.default_run.duration_s;
    const double campaign_mw = report.energy_j / options.spec.duration_s;
    return (1.0 - campaign_mw / default_mw) * 100.0;
}

/** Delivered performance against the target, percent. */
double
CampaignPerfDeltaPct(const chaos::CampaignOptions& options,
                     const chaos::CampaignReport& report)
{
    return (report.avg_gips / options.target_gips - 1.0) * 100.0;
}

/** Runs the prepared @p device for @p duration and returns its Monsoon
 * sample and event counts. */
ProbeStats
ProbeDevice(Device* device, SimTime duration, Tracer* tracer)
{
    const Tracer::Scope span(tracer, "device.RunFor");
    device->RunFor(duration);
    ProbeStats probe;
    probe.samples = device->monitor().sample_count();
    probe.events = device->sim().executed_events();
    return probe;
}

}  // namespace

struct Workload::JobOutput {
    bool threw = false;
    std::string error;
    bool sane = true;
    uint64_t digest = 0;
    std::vector<double> savings_pct;
    std::vector<double> perf_delta_pct;
    double default_sim_s = 0.0;
    double profile_sim_s = 0.0;
    double controller_sim_s = 0.0;
    uint64_t profiled_configs = 0;
    uint64_t default_cpu_transitions = 0;
    uint64_t default_bw_transitions = 0;
    bool campaign = false;
    chaos::CampaignReport report;
};

RepStats
Workload::Run(Tracer* tracer, size_t count)
{
    RepStats stats;
    const BatchRunner runner(BatchOptions{Workers()});
    stats.workers = static_cast<int>(std::min<size_t>(runner.jobs(), count));
    const uint64_t events_before = TotalExecutedEvents();
    std::vector<JobOutput> outputs;
    {
        const Tracer::Scope fanout(tracer, "batch.RunIndexed");
        const uint32_t fanout_id = fanout.id();
        outputs = runner.RunIndexed<JobOutput>(count, [&](size_t i) {
            const Tracer::Scope job(tracer, "job", fanout_id);
            try {
                return RunJob(i, tracer);
            } catch (const std::exception& e) {
                JobOutput failed;
                failed.threw = true;
                failed.error = e.what();
                return failed;
            }
        });
    }
    stats.events = TotalExecutedEvents() - events_before;
    stats.violations.assign(MonitorNames().size(), 0);
    for (size_t i = 0; i < outputs.size(); ++i) {
        const JobOutput& out = outputs[i];
        ++stats.account.attempted;
        stats.digests.push_back(out.digest);
        if (out.threw) {
            std::printf("job %zu threw: %s\n", i, out.error.c_str());
            ++stats.account.threw;
            continue;
        }
        if (!out.sane) {
            std::printf("job %zu failed its output check\n", i);
            ++stats.account.check_failed;
            continue;
        }
        stats.sim_s += out.default_sim_s + out.profile_sim_s + out.controller_sim_s;
        stats.savings_pct.insert(stats.savings_pct.end(), out.savings_pct.begin(),
                                 out.savings_pct.end());
        stats.perf_delta_pct.insert(stats.perf_delta_pct.end(),
                                    out.perf_delta_pct.begin(),
                                    out.perf_delta_pct.end());
        stats.default_sim_s += out.default_sim_s;
        stats.profile_sim_s += out.profile_sim_s;
        stats.controller_sim_s += out.controller_sim_s;
        stats.profiled_configs += out.profiled_configs;
        stats.default_cpu_transitions += out.default_cpu_transitions;
        stats.default_bw_transitions += out.default_bw_transitions;
        if (out.campaign) {
            const chaos::CampaignReport& report = out.report;
            ++stats.campaigns;
            stats.cycles += report.cycles;
            stats.degraded_cycles += report.degraded_cycles;
            stats.safe_mode_cycles += report.safe_mode_cycles;
            stats.fallback_campaigns += report.fallback ? 1 : 0;
            stats.missed_ticks += report.missed_ticks;
            stats.fault_events += report.fault_events;
            const size_t monitors =
                std::min(report.verdicts.size(), stats.violations.size());
            for (size_t m = 0; m < monitors; ++m) {
                stats.violations[m] += report.verdicts[m].violations;
            }
            if (!report.clean()) {
                ++stats.account.invariant_broken;
            }
        }
    }
    AddSetupStats(&stats);
    return stats;
}

Fidelity
Workload::CheckSnapshots(JobAccount* account)
{
    // Table IV at the snapshot's seed and --fast size: the paper-validated
    // slice every workload reproduces, and the source of paper_err_pp.
    const ExperimentHarness harness(Counted(MakeDefaultDeviceFactory()));
    const std::vector<std::string> apps = EvaluationAppNames();
    const size_t kLoadCount = sizeof(kLoads) / sizeof(kLoads[0]);
    const BatchRunner runner(BatchOptions{0});
    const std::vector<Comparison> outcomes =
        runner.RunIndexed<Comparison>(apps.size() * kLoadCount, [&](size_t i) {
            ExperimentOptions options;
            options.profile_runs = 1;
            options.seed = kSnapshotSeed;
            options.run_load = kLoads[i % kLoadCount];
            options.batch.jobs = 1;
            return RunNexus6Comparison(harness, apps[i / kLoadCount], options,
                                       nullptr);
        });
    JsonValue doc = JsonValue::MakeObject();
    doc.Set("schema", 1);
    doc.Set("bench", "table4_background_loads");
    doc.Set("root_seed", "2017");
    doc.Set("fast", true);
    doc.Set("profile_runs", 1);
    JsonValue rows = JsonValue::MakeArray();
    Fidelity fidelity;
    double error_sum = 0.0;
    const std::vector<paper::AppRow>* paper_rows[] = {
        &paper::TableIV_BL(), &paper::TableIV_NL(), &paper::TableIV_HL()};
    for (size_t i = 0; i < outcomes.size(); ++i) {
        const Comparison& c = outcomes[i];
        const double perf = c.controller_run.PerformanceDeltaPercent(c.default_run);
        const double savings = c.controller_run.EnergySavingsPercent(c.default_run);
        fidelity.savings_pct.push_back(savings);
        fidelity.perf_delta_pct.push_back(perf);
        error_sum += std::fabs(savings - PaperSavings(*paper_rows[i % kLoadCount],
                                                      apps[i / kLoadCount]));
        JsonValue entry = JsonValue::MakeObject();
        entry.Set("app", apps[i / kLoadCount]);
        entry.Set("load", ToString(kLoads[i % kLoadCount]));
        entry.Set("perf_delta_pct", StrFormat("%.6g", perf));
        entry.Set("energy_savings_pct", StrFormat("%.6g", savings));
        entry.Set("default_energy_j", StrFormat("%.6g", c.default_run.energy_j));
        entry.Set("controller_energy_j",
                  StrFormat("%.6g", c.controller_run.energy_j));
        rows.Append(std::move(entry));
    }
    doc.Set("rows", std::move(rows));
    CheckSnapshot("BENCH_table4.json", doc, account);
    fidelity.paper_err_pp = error_sum / static_cast<double>(outcomes.size());
    CheckOwnSnapshots(account, &fidelity);
    return fidelity;
}

namespace {

/** nexus6_paper: the paper's own Table IV procedure. */
class Nexus6Paper final : public Workload {
  public:
    Nexus6Paper(uint64_t seed, int jobs) : seed_(seed), jobs_(jobs) {}

    void Setup(Tracer* tracer) override
    {
        const Tracer::Scope span(tracer, "setup.jobs");
        jobs_list_.clear();
        for (const std::string& app : EvaluationAppNames()) {
            for (const BackgroundKind load : kLoads) {
                ExperimentOptions options;
                options.profile_runs = kNexus6ProfileRuns;
                options.seed = seed_;
                options.profile_load = BackgroundKind::kBaseline;
                options.run_load = load;
                options.batch.jobs = 1;
                jobs_list_.push_back(ComparisonJob{app, options});
            }
        }
        tables_.assign(jobs_list_.size(), std::nullopt);
    }

    ProbeStats Probe(Tracer* tracer) override
    {
        ProbeStats total;
        for (const std::string& app : EvaluationAppNames()) {
            DeviceConfig config;
            config.seed = seed_;
            Device device(config);
            device.SetBackground(MakeBackgroundEnv(BackgroundKind::kBaseline));
            device.UseDefaultGovernors();
            device.LaunchApp(MakeAppSpecByName(app));
            const ProbeStats probe =
                ProbeDevice(&device, GetAppScenario(app).run_duration, tracer);
            total.samples += probe.samples;
            total.events += probe.events;
        }
        return total;
    }

    std::vector<ProfileTable> Tables() const override { return Present(tables_); }

  protected:
    void CheckOwnSnapshots(JobAccount* account, Fidelity* /*fidelity*/) override
    {
        // BENCHMARK.json does not list exynos_het, so this workload also
        // reproduces the Table VI snapshot; its fidelity stays Table IV's.
        const DeviceFactory factory = Exynos5433Factory();
        CheckTable6Snapshot(ExperimentHarness(factory), factory,
                            EvaluationAppNames(), account);
    }

    size_t JobCount() const override { return jobs_list_.size(); }
    int Workers() const override { return jobs_; }

    JobOutput RunJob(size_t index, Tracer* tracer) override
    {
        const ComparisonJob& job = jobs_list_[index];
        const Comparison c =
            RunNexus6Comparison(harness_, job.app_name, job.options, tracer);
        JobOutput out;
        out.sane =
            Sane(c.default_run) && Sane(c.controller_run) && c.table.size() > 0;
        out.digest =
            Digest().Add(c.default_run).Add(c.table).Add(c.controller_run).value();
        out.default_sim_s = c.default_run.duration_s;
        out.profile_sim_s = c.profile_sim_s;
        out.controller_sim_s = c.controller_run.duration_s;
        out.profiled_configs = c.profile_runs / job.options.profile_runs;
        out.default_cpu_transitions = c.default_run.cpu_transitions;
        out.default_bw_transitions = c.default_run.bw_transitions;
        out.savings_pct.push_back(
            c.controller_run.EnergySavingsPercent(c.default_run));
        out.perf_delta_pct.push_back(
            c.controller_run.PerformanceDeltaPercent(c.default_run));
        tables_[index].emplace(c.table);
        return out;
    }

  private:
    uint64_t seed_;
    int jobs_;
    DeviceFactory factory_ = Counted(MakeDefaultDeviceFactory());
    ExperimentHarness harness_{factory_};
    std::vector<ComparisonJob> jobs_list_;
    std::vector<std::optional<ProfileTable>> tables_;
};

/** exynos_het: Table VI on the extreme-bandwidth big.LITTLE grid. */
class ExynosHet final : public Workload {
  public:
    ExynosHet(uint64_t seed, int jobs) : seed_(seed), jobs_(jobs) {}

    void Setup(Tracer* tracer) override
    {
        const Tracer::Scope span(tracer, "setup.EnumerateHetConfigs");
        // The paper's sparse profiling measures only the lowest and highest
        // bandwidth; the het grid does the same on the hull-pruned ladders.
        grid_ = HetGrid({0, kExynos5433BwLevels - 1}, true);
        apps_ = EvaluationAppNames();
        tables_.assign(apps_.size(), std::nullopt);
    }

    ProbeStats Probe(Tracer* tracer) override
    {
        // Pinned profiling dominates this workload, so the probe pins a
        // mid-grid configuration as the profiler does.
        ProbeStats total;
        const SystemConfig& config = grid_[grid_.size() / 2];
        for (const std::string& app : apps_) {
            std::unique_ptr<Device> device = factory_(seed_);
            device->SetBackground(MakeBackgroundEnv(BackgroundKind::kBaseline));
            device->PinHetConfiguration(HetConfig{
                config.cpu_level, config.little_level, config.bw_level,
                static_cast<ThreadPlacement>(config.placement)});
            device->LaunchApp(MakeAppSpecByName(app));
            const ProbeStats probe = ProbeDevice(
                device.get(), GetAppScenario(app).profile_duration, tracer);
            total.samples += probe.samples;
            total.events += probe.events;
        }
        return total;
    }

    std::vector<ProfileTable> Tables() const override { return Present(tables_); }

  protected:
    size_t JobCount() const override { return apps_.size(); }
    int Workers() const override { return jobs_; }

    JobOutput RunJob(size_t index, Tracer* tracer) override
    {
        const HetOutcome o = RunHetApp(harness_, factory_, apps_[index], grid_,
                                       kHetProfileRuns, seed_, tracer);
        JobOutput out;
        out.sane = Sane(o.interactive_run) && Sane(o.lulzactive_run) &&
                   Sane(o.controller_run) && o.table.size() > 0;
        out.digest = Digest()
                         .Add(o.interactive_run)
                         .Add(o.lulzactive_run)
                         .Add(o.table)
                         .Add(o.controller_run)
                         .value();
        out.default_sim_s =
            o.interactive_run.duration_s + o.lulzactive_run.duration_s;
        out.profile_sim_s = o.profile_sim_s;
        out.controller_sim_s = o.controller_run.duration_s;
        out.profiled_configs = grid_.size();
        out.default_cpu_transitions = o.interactive_run.cpu_transitions +
                                      o.lulzactive_run.cpu_transitions;
        out.default_bw_transitions =
            o.interactive_run.bw_transitions + o.lulzactive_run.bw_transitions;
        for (const RunResult* baseline : {&o.interactive_run, &o.lulzactive_run}) {
            out.savings_pct.push_back(
                o.controller_run.EnergySavingsPercent(*baseline));
            out.perf_delta_pct.push_back(
                o.controller_run.PerformanceDeltaPercent(*baseline));
        }
        tables_[index].emplace(o.table);
        return out;
    }

    void CheckOwnSnapshots(JobAccount* account, Fidelity* fidelity) override
    {
        const std::vector<HetOutcome> outcomes =
            CheckTable6Snapshot(harness_, factory_, apps_, account);
        fidelity->savings_pct.clear();
        fidelity->perf_delta_pct.clear();
        for (const HetOutcome& o : outcomes) {
            for (const RunResult* baseline :
                 {&o.interactive_run, &o.lulzactive_run}) {
                fidelity->savings_pct.push_back(
                    o.controller_run.EnergySavingsPercent(*baseline));
                fidelity->perf_delta_pct.push_back(
                    o.controller_run.PerformanceDeltaPercent(*baseline));
            }
        }
    }

  private:
    uint64_t seed_;
    int jobs_;
    DeviceFactory factory_ = Exynos5433Factory();
    ExperimentHarness harness_{factory_};
    std::vector<SystemConfig> grid_;
    std::vector<std::string> apps_;
    std::vector<std::optional<ProfileTable>> tables_;
};

/** chaos_soak: seeded full-length campaigns at one worker. */
class ChaosSoak final : public Workload {
  public:
    ChaosSoak(uint64_t seed, int jobs) : seed_(seed), jobs_(jobs > 0 ? jobs : 1) {}

    void Setup(Tracer* tracer) override
    {
        base_.emplace(BuildChaosBase(seed_, kNexus6ProfileRuns, tracer));
        options_ = ChaosOptions(*base_, false);
        const Tracer::Scope span(tracer, "setup.GenerateScenario");
        scenarios_.clear();
        for (size_t i = 0; i < kChaosCampaigns; ++i) {
            scenarios_.push_back(
                chaos::GenerateScenario(options_.spec, CampaignSeed(seed_, i)));
        }
    }

    ProbeStats Probe(Tracer* tracer) override
    {
        DeviceConfig config;
        config.seed = seed_;
        Device device(config);
        device.UseDefaultGovernors();
        device.LaunchApp(MakeAppSpecByName(kChaosApp));
        return ProbeDevice(&device, GetAppScenario(kChaosApp).run_duration, tracer);
    }

    std::vector<ProfileTable> Tables() const override { return {base_->table}; }

  protected:
    size_t JobCount() const override { return scenarios_.size(); }
    size_t TimedJobCount() const override
    {
        return std::min(kChaosTimedCampaigns, scenarios_.size());
    }
    int Workers() const override { return jobs_; }

    JobOutput RunJob(size_t index, Tracer* tracer) override
    {
        JobOutput out;
        {
            const Tracer::Scope span(tracer, "chaos.RunCampaign");
            out.report = chaos::RunCampaign(options_, scenarios_[index]);
        }
        const chaos::CampaignReport& r = out.report;
        out.campaign = true;
        out.sane = r.cycles > 0 && std::isfinite(r.energy_j) && r.energy_j > 0.0 &&
                   r.verdicts.size() == MonitorNames().size();
        Digest digest;
        digest.Add(r.energy_j).Add(r.avg_gips).Add(r.cycles).Add(r.degraded_cycles);
        digest.Add(r.safe_mode_cycles).Add(r.reengage_count).Add(r.fault_events);
        digest.Add(r.missed_ticks).Add(r.total_violations);
        digest.Add(static_cast<uint64_t>(r.first_violation_cycle));
        out.digest = digest.value();
        out.controller_sim_s = options_.spec.duration_s;
        out.savings_pct.push_back(CampaignSavingsPct(*base_, options_, r));
        out.perf_delta_pct.push_back(CampaignPerfDeltaPct(options_, r));
        return out;
    }

    void AddSetupStats(RepStats* stats) const override
    {
        stats->default_sim_s += base_->default_run.duration_s;
        stats->profile_sim_s += base_->profile_sim_s;
        stats->profiled_configs += base_->profile_runs / kNexus6ProfileRuns;
        stats->default_cpu_transitions += base_->default_run.cpu_transitions;
        stats->default_bw_transitions += base_->default_run.bw_transitions;
    }

    void CheckOwnSnapshots(JobAccount* account, Fidelity* fidelity) override
    {
        // The chaos-campaign bench at its snapshot's seed and --fast size.
        const ChaosBase base = BuildChaosBase(kSnapshotSeed, 1, nullptr);
        const chaos::CampaignOptions options = ChaosOptions(base, true);
        JsonValue doc = JsonValue::MakeObject();
        doc.Set("schema", 1);
        doc.Set("bench", "robustness_chaos_campaign");
        doc.Set("app", kChaosApp);
        doc.Set("root_seed", chaos::SeedToJson(kSnapshotSeed));
        doc.Set("fast", true);
        doc.Set("profile_runs", 1);
        JsonValue campaigns = JsonValue::MakeArray();
        fidelity->savings_pct.clear();
        fidelity->perf_delta_pct.clear();
        for (size_t i = 0; i < 4; ++i) {
            const chaos::CampaignReport r = chaos::RunCampaign(
                options, chaos::GenerateScenario(options.spec,
                                                 CampaignSeed(kSnapshotSeed, i)));
            fidelity->savings_pct.push_back(CampaignSavingsPct(base, options, r));
            fidelity->perf_delta_pct.push_back(CampaignPerfDeltaPct(options, r));
            JsonValue entry = JsonValue::MakeObject();
            entry.Set("seed", chaos::SeedToJson(r.seed));
            entry.Set("cycles", r.cycles);
            entry.Set("fault_events", r.fault_events);
            entry.Set("degraded_cycles", r.degraded_cycles);
            entry.Set("safe_mode_cycles", r.safe_mode_cycles);
            entry.Set("reengage_count", r.reengage_count);
            entry.Set("fallback", r.fallback);
            entry.Set("total_violations", r.total_violations);
            entry.Set("first_violation_cycle", r.first_violation_cycle);
            entry.Set("first_violation_monitor", r.first_violation_monitor);
            entry.Set("energy_j", StrFormat("%.6g", r.energy_j));
            entry.Set("avg_gips", StrFormat("%.6g", r.avg_gips));
            campaigns.Append(std::move(entry));
        }
        doc.Set("campaigns", std::move(campaigns));
        CheckSnapshot("BENCH_chaos_campaign.json", doc, account);
    }

  private:
    uint64_t seed_;
    int jobs_;
    std::optional<ChaosBase> base_;
    chaos::CampaignOptions options_;
    std::vector<chaos::ChaosScenario> scenarios_;
};

}  // namespace

std::vector<std::string>
WorkloadNames()
{
    return {"nexus6_paper", "exynos_het", "chaos_soak"};
}

const std::vector<std::string>&
MonitorNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        const chaos::MonitorConfig config;
        for (const auto& monitor : chaos::MakeDefaultMonitors(config)) {
            out.push_back(monitor->name());
        }
        return out;
    }();
    return names;
}

std::unique_ptr<Workload>
MakeWorkload(const std::string& name, uint64_t seed, int jobs)
{
    if (name == "nexus6_paper") {
        return std::make_unique<Nexus6Paper>(seed, jobs);
    }
    if (name == "exynos_het") {
        return std::make_unique<ExynosHet>(seed, jobs);
    }
    if (name == "chaos_soak") {
        return std::make_unique<ChaosSoak>(seed, jobs);
    }
    return nullptr;
}

}  // namespace perfbench
