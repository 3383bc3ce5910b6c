/**
 * @file
 * The benchmark's workloads. Each one drives the aeo library only through
 * its public calls (ExperimentHarness, OfflineProfiler, BatchRunner,
 * chaos::RunCampaign, EnergyOptimizer, Device::RunFor) and opens trace
 * spans around those calls from this side of the API.
 *
 *  - nexus6_paper: Table IV — six apps × {NL, BL, HL}, each a default run,
 *    sparse profiling at 3 runs and a controller run, 18 jobs on the
 *    batch workers.
 *  - exynos_het: Table VI on the extreme-bandwidth big.LITTLE grid — six
 *    apps, interactive and lulzactive baselines, hull-pruned het profiling
 *    and the banked, slewed controller, 6 jobs on the batch workers.
 *  - chaos_soak: full-length chaos campaigns over every failure seam at
 *    one worker, against one clean profile built in set-up; the warm-up
 *    runs all of them, a timed repetition the first quarter.
 */
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/profile_table.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

/** What one repetition of a workload produced. Everything but the host
 * times the spans carry is simulated, so it repeats exactly. */
struct RepStats {
    JobAccount account;
    /** Per-job digests of the simulated results, in job order. */
    std::vector<uint64_t> digests;
    /** Batch workers the repetition fanned out to. */
    int workers = 1;
    /** Simulated device-seconds of the repetition's timed work. */
    double sim_s = 0.0;
    /** Simulated events executed (TotalExecutedEvents delta). */
    uint64_t events = 0;

    /** Controller-vs-baseline comparisons: savings and performance delta,
     * percent (positive = saves energy / runs faster). */
    std::vector<double> savings_pct;
    std::vector<double> perf_delta_pct;

    /** Default, profiling and controller device-seconds and profiled
     * configurations, including calls made in set-up (chaos_soak). */
    double default_sim_s = 0.0;
    double profile_sim_s = 0.0;
    double controller_sim_s = 0.0;
    uint64_t profiled_configs = 0;
    /** DVFS transitions of the default (baseline-governor) runs. */
    uint64_t default_cpu_transitions = 0;
    uint64_t default_bw_transitions = 0;

    /** Chaos campaigns and what their reports counted. */
    uint64_t campaigns = 0;
    uint64_t cycles = 0;
    uint64_t degraded_cycles = 0;
    uint64_t safe_mode_cycles = 0;
    uint64_t fallback_campaigns = 0;
    uint64_t missed_ticks = 0;
    uint64_t fault_events = 0;
    /** Violations per catalogue monitor, in MonitorNames() order. */
    std::vector<uint64_t> violations;
};

/**
 * The simulated outcome of the committed-seed snapshot slices. It does not
 * depend on --seed and repeats exactly, so it is the benchmark's fidelity
 * figure: any change to it is also a snapshot mismatch.
 */
struct Fidelity {
    /** Controller-vs-baseline comparisons of the workload's own slice
     * (Table IV for nexus6_paper): savings and performance delta, %. */
    std::vector<double> savings_pct;
    std::vector<double> perf_delta_pct;
    /** Mean |energy savings - paper| over the Table IV slice, points. */
    double paper_err_pp = 0.0;
};

/** The Monsoon/event counts of a workload's device probe. */
struct ProbeStats {
    uint64_t samples = 0;
    uint64_t events = 0;
};

/** One named workload. */
class Workload {
  public:
    virtual ~Workload() = default;

    /** Builds everything the timed repetitions need. The benchmark runs it
     * several times and times each pass. */
    virtual void Setup(Tracer* tracer) = 0;

    /** The warm-up: every job of the workload, fanned out on its workers.
     * Its digests are the reference and its account gives failed_share. */
    RepStats RunWarmUp() { return Run(nullptr, JobCount()); }

    /** One timed repetition: the first TimedJobCount() jobs, which must
     * reproduce the warm-up's digests. */
    RepStats RunRep(Tracer* tracer) { return Run(tracer, TimedJobCount()); }

    /**
     * Reproduces, byte-for-byte, the Table IV snapshot (every workload) and
     * the snapshot this workload owns, each at its committed seed and
     * --fast size; each slice is one job in @p account.
     */
    Fidelity CheckSnapshots(JobAccount* account);

    /** Runs the workload's dominant device mode through Device::RunFor and
     * reads the Monsoon sample count. */
    virtual ProbeStats Probe(Tracer* tracer) = 0;

    /** Profile tables of the latest repetition (or set-up), for the LP
     * sweep. */
    virtual std::vector<aeo::ProfileTable> Tables() const = 0;

  protected:
    struct JobOutput;

    /** The first @p count jobs, fanned out on the workload's workers. */
    RepStats Run(Tracer* tracer, size_t count);

    virtual size_t JobCount() const = 0;
    /** Jobs a timed repetition runs: all of them, unless a workload keeps
     * its repetitions short by timing a prefix (chaos_soak). */
    virtual size_t TimedJobCount() const { return JobCount(); }
    virtual int Workers() const = 0;
    virtual JobOutput RunJob(size_t index, Tracer* tracer) = 0;
    /** Adds set-up-time calls to a repetition's stats (chaos_soak). */
    virtual void AddSetupStats(RepStats* /*stats*/) const {}
    /** Checks the workload's own snapshot slice and replaces the Table IV
     * comparisons in @p fidelity with its own. */
    virtual void CheckOwnSnapshots(JobAccount* /*account*/, Fidelity* /*fidelity*/)
    {
    }
};

/** Names accepted by MakeWorkload(), in BENCHMARK.json order. */
std::vector<std::string> WorkloadNames();

/** Chaos invariant-monitor names in catalogue order. */
const std::vector<std::string>& MonitorNames();

/** @p name's workload with inputs derived from @p seed; @p jobs <= 0
 * lets the workload choose its worker count. */
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       int jobs);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
