/**
 * @file
 * The repository benchmark's entry point:
 *
 *   perfbench --workload NAME --seed N --seconds S [--trace 0|1] [--jobs N]
 *
 * Sets the workload up and runs every job once as a warm-up whose per-job
 * digests become the reference, then sets up and runs timed repetitions
 * (all jobs, or a prefix of them: see Workload::TimedJobCount) until S
 * host seconds have passed. Each set-up runs several passes when they
 * are quick (a few microseconds on the table workloads). setup_s is the
 * 10th percentile of the set-up passes and wall_s that of the repetitions
 * (see kHostPercentile); interleaving the passes with the repetitions
 * spreads both over the same stretch of host time. Every repetition must
 * reproduce the reference digests, and after the timed part the committed
 * bench snapshots the workload owns are reproduced byte-for-byte.
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 alternates traced and
 * untraced repetitions, then runs the device probe and the LP sweep, and
 * prints the per-layer metrics (medians over traced repetitions) plus the
 * tracing overhead. The last stdout line is the JSON result (report.h).
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "cli.h"
#include "common/logging.h"
#include "core/energy_optimizer.h"
#include "report.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

/** Timed repetitions at least, whatever --seconds says (traced runs need
 * two of each kind). */
constexpr size_t kMinReps = 4;
/**
 * Host times are reported as this nearest-rank percentile of a run's
 * samples, not their median. On a shared host, other tenants only ever add
 * time: repetitions of one process sit on a floor and spike above it by up
 * to 50% for tens of seconds at a time. A low percentile tracks the floor,
 * which is what a change to the program moves; the median tracks how much
 * of the run the neighbours were busy.
 */
constexpr double kHostPercentile = 10.0;
/** Set-up passes before each repetition: kSetupPasses, or fewer once they
 * have taken kSetupBudgetNs between them (a slow set-up runs once). */
constexpr int kSetupPasses = 8;
constexpr int64_t kSetupBudgetNs = 20000000;
/** Trace ids: repetition r is r (the warm-up 0); its set-up pass is
 * kSetupTraceBase + r. */
constexpr uint32_t kSetupTraceBase = 100000;
/** LP sweep: required speedups per table, and Optimize calls at least
 * (whole passes over every table). */
constexpr int kSweepPoints = 64;
constexpr uint64_t kSweepMinCalls = 200000;

struct Rep {
    double wall_s = 0.0;
    bool traced = false;
    uint32_t trace_id = 0;
    RepStats stats;
};

double
Sum(const std::vector<Span>& spans)
{
    double total = 0.0;
    for (const Span& span : spans) {
        total += span.seconds();
    }
    return total;
}

double
Ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Seconds in spans named @p names for @p trace_id, or, when the
 * repetition made no such call, in its set-up pass (chaos_soak builds its
 * default run and profile there). */
double
LayerSeconds(const Tracer& tracer, std::initializer_list<const char*> names,
             uint32_t trace_id)
{
    double total = 0.0;
    for (const char* name : names) {
        total += Sum(tracer.Find(name, trace_id));
    }
    if (total > 0.0) {
        return total;
    }
    for (const char* name : names) {
        total += Sum(tracer.Find(name, kSetupTraceBase + trace_id));
    }
    return total;
}

/** The per-layer figures of one traced repetition. */
std::vector<Metric>
LayerMetrics(const Tracer& tracer, const Rep& rep, std::vector<double>* job_seconds)
{
    const RepStats& s = rep.stats;
    const Span fanout = tracer.Find("batch.RunIndexed", rep.trace_id).front();
    const std::vector<Span> jobs = tracer.ChildrenOf(fanout.id);
    double job_total = 0.0;
    // The drain starts when the first worker finds the queue empty: the
    // earliest of the workers' last job ends.
    std::vector<std::pair<uint32_t, int64_t>> last_end;
    for (const Span& job : jobs) {
        job_total += job.seconds();
        job_seconds->push_back(job.seconds());
        auto it = std::find_if(last_end.begin(), last_end.end(),
                               [&](const auto& e) { return e.first == job.thread; });
        if (it == last_end.end()) {
            last_end.emplace_back(job.thread, job.end_ns);
        } else {
            it->second = std::max(it->second, job.end_ns);
        }
    }
    int64_t drain_start = fanout.end_ns;
    for (const auto& [thread, end] : last_end) {
        drain_start = std::min(drain_start, end);
    }
    const double default_s =
        LayerSeconds(tracer, {"harness.RunDefault", "device.RunFor"}, rep.trace_id);
    const double profile_s = LayerSeconds(
        tracer, {"harness.ProfileApp", "profiler.Profile"}, rep.trace_id);
    const double controller_s = LayerSeconds(
        tracer, {"harness.RunWithController", "chaos.RunCampaign"}, rep.trace_id);
    const double events = static_cast<double>(s.events);
    const double campaigns = static_cast<double>(s.campaigns);
    const double cycles = static_cast<double>(s.cycles);
    const auto per = [](uint64_t count, double base) {
        return Ratio(static_cast<double>(count), base);
    };
    const double drain_s = static_cast<double>(fanout.end_ns - drain_start) * 1e-9;
    const double layer_s = default_s + profile_s + controller_s;

    std::vector<Metric> m = {
        {"batch.efficiency", Ratio(job_total, s.workers * fanout.seconds()),
         "ratio"},
        {"batch.tail_s", drain_s, "s"},
        {"batch.coord_s", SelfSeconds(fanout, jobs), "s"},
        {"experiment.default_s", default_s, "s"},
        {"experiment.profile_s", profile_s, "s"},
        {"experiment.controller_s", controller_s, "s"},
        {"experiment.profile_share", Ratio(profile_s, layer_s), "ratio"},
        {"profiler.configs", static_cast<double>(s.profiled_configs), "count"},
        {"profiler.us_per_sim_s", Ratio(profile_s * 1e6, s.profile_sim_s), "us/s"},
        {"device.sim_s", s.sim_s, "s"},
        {"device.default_us_per_sim_s", Ratio(default_s * 1e6, s.default_sim_s),
         "us/s"},
        {"device.controller_us_per_sim_s",
         Ratio(controller_s * 1e6, s.controller_sim_s), "us/s"},
        {"sim.events", events, "count"},
        {"sim.events_per_sim_s", Ratio(events, s.sim_s), "1/s"},
        {"sim.ns_per_event", Ratio(job_total * 1e9, events), "ns"},
        {"kernel.cpu_transitions_per_sim_s",
         per(s.default_cpu_transitions, s.default_sim_s), "1/s"},
        {"kernel.bw_transitions_per_sim_s",
         per(s.default_bw_transitions, s.default_sim_s), "1/s"},
        {"controller.cycles", cycles, "count"},
        {"controller.degraded_share", per(s.degraded_cycles, cycles), "ratio"},
        {"controller.safe_mode_share", per(s.safe_mode_cycles, cycles), "ratio"},
        {"controller.fallback_share", per(s.fallback_campaigns, campaigns), "ratio"},
        {"controller.missed_tick_share", per(s.missed_ticks, cycles), "ratio"},
        {"fault.events_per_campaign", per(s.fault_events, campaigns), "count"},
    };
    for (size_t i = 0; i < MonitorNames().size(); ++i) {
        m.push_back({"chaos.violations." + MonitorNames()[i],
                     static_cast<double>(s.violations[i]), "count"});
    }
    return m;
}

/** Median of each metric across repetitions (same names, same order). */
std::vector<Metric>
MedianMetrics(const std::vector<std::vector<Metric>>& per_rep)
{
    std::vector<Metric> out = per_rep.front();
    for (size_t i = 0; i < out.size(); ++i) {
        std::vector<double> values;
        for (const std::vector<Metric>& rep : per_rep) {
            values.push_back(rep[i].value);
        }
        out[i].value = Median(values);
    }
    return out;
}

/** Nanoseconds per EnergyOptimizer::Optimize over a fixed speedup sweep of
 * every table; @p account gains one job, failed on a non-finite schedule. */
double
LpSweepNs(const std::vector<aeo::ProfileTable>& tables, Tracer* tracer,
          JobAccount* account)
{
    ++account->attempted;
    double checksum = 0.0;
    uint64_t calls = 0;
    const int64_t start = NowNs();
    {
        const Tracer::Scope span(tracer, "optimizer.Optimize");
        while (calls < kSweepMinCalls && !tables.empty()) {
            for (const aeo::ProfileTable& table : tables) {
                const aeo::EnergyOptimizer optimizer(&table);
                const double lo = table.min_speedup();
                const double hi = table.max_speedup();
                for (int i = 0; i < kSweepPoints; ++i) {
                    const double speedup = lo + (hi - lo) * i / (kSweepPoints - 1);
                    checksum +=
                        optimizer.Optimize(speedup, 2.0).expected_power_mw.value();
                    ++calls;
                }
            }
        }
    }
    const double ns = static_cast<double>(NowNs() - start);
    if (!std::isfinite(checksum) || calls == 0) {
        ++account->check_failed;
    }
    return Ratio(ns, static_cast<double>(calls));
}

/** Mean energy savings and worst performance loss over comparisons. */
struct Outcome {
    double mean_savings = 0.0;
    double worst_loss = 0.0;
};

Outcome
Summarize(const std::vector<double>& savings_pct,
          const std::vector<double>& perf_delta_pct)
{
    Outcome out;
    if (savings_pct.empty()) {
        return out;
    }
    out.worst_loss = -perf_delta_pct.front();
    for (size_t i = 0; i < savings_pct.size(); ++i) {
        out.mean_savings += savings_pct[i] / static_cast<double>(savings_pct.size());
        out.worst_loss = std::max(out.worst_loss, -perf_delta_pct[i]);
    }
    return out;
}

/**
 * The process's resident-set high-water mark (VmHWM), MB. getrusage's
 * ru_maxrss is not used: it keeps the parent's mark across exec, so a
 * benchmark started from a larger process would report the parent's size.
 */
double
PeakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
        }
    }
    return 0.0;
}

void
PrintMetrics(const std::vector<Metric>& metrics)
{
    for (const Metric& metric : metrics) {
        std::printf("  %-36s %16.6f %s\n", metric.name.c_str(), metric.value,
                    metric.unit.c_str());
    }
}

int
Run(const Args& args)
{
    const int64_t process_start = NowNs();
    std::unique_ptr<Workload> workload =
        MakeWorkload(args.workload, args.seed, args.jobs);
    Tracer tracer(args.trace);
    JobAccount account;

    std::vector<double> setup_s;
    const auto set_up = [&](uint32_t trace_id) {
        tracer.set_trace_id(kSetupTraceBase + trace_id);
        const int64_t first = NowNs();
        for (int pass = 0; pass < kSetupPasses; ++pass) {
            const int64_t start = NowNs();
            if (pass > 0 && start - first >= kSetupBudgetNs) {
                break;
            }
            // Only the first pass is traced, so set-up spans count once.
            workload->Setup(pass == 0 ? &tracer : nullptr);
            setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
        }
        tracer.set_trace_id(trace_id);
    };

    // Warm-up: fills caches and sets the reference digests.
    set_up(0);
    const RepStats reference = workload->RunWarmUp();
    account += reference.account;
    const double first_job_s = static_cast<double>(NowNs() - process_start) * 1e-9;

    std::vector<Rep> reps;
    const int64_t deadline =
        NowNs() + static_cast<int64_t>(args.seconds) * 1000000000;
    while (NowNs() < deadline || reps.size() < kMinReps) {
        Rep rep;
        rep.traced = args.trace && reps.size() % 2 == 0;
        rep.trace_id = static_cast<uint32_t>(reps.size() + 1);
        set_up(rep.trace_id);
        Tracer* rep_tracer = rep.traced ? &tracer : nullptr;
        const int64_t start = NowNs();
        {
            const Tracer::Scope span(rep_tracer, "rep");
            rep.stats = workload->RunRep(rep_tracer);
        }
        rep.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
        for (size_t i = 0; i < rep.stats.digests.size(); ++i) {
            if (rep.stats.digests[i] != reference.digests[i]) {
                std::printf("job %zu of repetition %u: digest differs from "
                            "warm-up\n",
                            i, rep.trace_id);
                ++rep.stats.account.check_failed;
            }
        }
        account += rep.stats.account;
        reps.push_back(std::move(rep));
    }
    const double rss_mb = PeakRssMb();

    std::vector<double> traced_wall, untraced_wall, sim_rate;
    for (const Rep& rep : reps) {
        (rep.traced ? traced_wall : untraced_wall).push_back(rep.wall_s);
        if (!rep.traced) {
            sim_rate.push_back(rep.stats.sim_s / rep.wall_s);
        }
    }

    std::vector<Metric> layer;
    if (args.trace) {
        tracer.set_trace_id(0);
        const ProbeStats probe = workload->Probe(&tracer);
        const double lp_ns = LpSweepNs(workload->Tables(), &tracer, &account);
        std::vector<std::vector<Metric>> per_rep;
        std::vector<double> job_seconds;
        for (const Rep& rep : reps) {
            if (rep.traced) {
                per_rep.push_back(LayerMetrics(tracer, rep, &job_seconds));
            }
        }
        layer = MedianMetrics(per_rep);
        // With fewer than 20 job times no percentile keeps ten beyond it;
        // the tail is then the slowest job, and the line below says so.
        TailPercentile tail = HighestTailPercentile(job_seconds);
        if (tail.level == 0.0) {
            tail.level = 100.0;
            tail.value = *std::max_element(job_seconds.begin(), job_seconds.end());
        }
        std::printf("job times: %zu samples; batch.job_s.tail is p%g "
                    "(%zu beyond it)\n",
                    job_seconds.size(), tail.level, tail.beyond);
        layer.push_back({"batch.job_s.p50", Median(job_seconds), "s"});
        layer.push_back({"batch.job_s.tail", tail.value, "s"});
        const double samples = static_cast<double>(probe.samples);
        const double overhead = Ratio(Percentile(traced_wall, kHostPercentile),
                                      Percentile(untraced_wall, kHostPercentile)) -
                                1.0;
        layer.push_back({"power.samples", samples, "count"});
        layer.push_back({"power.sample_share",
                         Ratio(samples, static_cast<double>(probe.events)),
                         "ratio"});
        layer.push_back({"lp.optimize_ns", lp_ns, "ns"});
        layer.push_back({"mem.peak_rss_mb", rss_mb, "MB"});
        layer.push_back({"trace.overhead_pct", overhead * 100.0, "%"});
    }

    const Fidelity fidelity = workload->CheckSnapshots(&account);
    const Outcome slice = Summarize(fidelity.savings_pct, fidelity.perf_delta_pct);
    const Outcome seeded =
        Summarize(reference.savings_pct, reference.perf_delta_pct);
    std::printf("seed %llu comparisons: mean savings %.4f %%, worst perf loss "
                "%.4f %% over %zu; committed-seed slice: %.4f %%, %.4f %% "
                "over %zu\n",
                static_cast<unsigned long long>(args.seed), seeded.mean_savings,
                seeded.worst_loss, reference.savings_pct.size(), slice.mean_savings,
                slice.worst_loss, fidelity.savings_pct.size());

    const Quartiles wall = ComputeQuartiles(untraced_wall);
    std::printf("workload %s seed %llu: %zu timed repetitions (%zu traced), "
                "untraced p10 %.4f q1 %.4f median %.4f q3 %.4f s; first timed "
                "job at %.3f s\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                reps.size(), traced_wall.size(),
                Percentile(untraced_wall, kHostPercentile), wall.q1, wall.median,
                wall.q3, first_job_s);
    std::printf("untraced repetitions, s:");
    for (const double s : untraced_wall) {
        std::printf(" %.4f", s);
    }
    std::printf("\n");
    std::printf("failed_share = %.6f (%llu of the warm-up's %llu jobs: %llu threw, "
                "%llu failed a check, %llu broke a chaos invariant)\n",
                reference.account.failed_share(),
                static_cast<unsigned long long>(reference.account.failed() +
                                                reference.account.invariant_broken),
                static_cast<unsigned long long>(reference.account.attempted),
                static_cast<unsigned long long>(reference.account.threw),
                static_cast<unsigned long long>(reference.account.check_failed),
                static_cast<unsigned long long>(reference.account.invariant_broken));

    std::vector<Metric> metrics;
    if (args.trace) {
        metrics = layer;
    } else {
        metrics = {
            {"setup_s", Percentile(setup_s, kHostPercentile), "s"},
            {"wall_s", Percentile(untraced_wall, kHostPercentile), "s"},
            {"sim_s_per_s", Percentile(sim_rate, 100.0 - kHostPercentile), "s/s"},
            {"energy_savings_pct", slice.mean_savings, "%"},
            {"perf_loss_pct", slice.worst_loss, "%"},
            {"paper_err_pp", fidelity.paper_err_pp, "pp"},
            {"ok_share", reference.account.ok_share(), "ratio"},
        };
    }
    PrintMetrics(metrics);
    std::printf("%s\n", ResultLine(account, metrics).c_str());
    return IsCorrect(account, metrics) ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int
main(int argc, char** argv)
{
    aeo::SetLogLevel(aeo::LogLevel::kQuiet);
    const std::vector<std::string> names = perfbench::WorkloadNames();
    const perfbench::ParseResult parsed =
        perfbench::ParseArgs(std::vector<std::string>(argv + 1, argv + argc), names);
    if (!parsed.ok) {
        std::fprintf(stderr, "perfbench: %s\n%s", parsed.error.c_str(),
                     perfbench::Usage(names).c_str());
        return 2;
    }
    try {
        return perfbench::Run(parsed.args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
