#include "soc/execution_engine.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace aeo {

ExecutionEngine::ExecutionEngine(ExecutionModelParams params) : params_(params)
{
    AEO_ASSERT(params_.bandwidth_efficiency > 0.0 && params_.bandwidth_efficiency <= 1.0,
               "bandwidth efficiency %f out of (0, 1]", params_.bandwidth_efficiency);
    AEO_ASSERT(params_.background_share >= 0.0 && params_.background_share < 1.0,
               "background share %f out of [0, 1)", params_.background_share);
}

namespace {

/** A core pool assembled from one or two clusters. */
struct Pool {
    double big_eq_ghz = 0.0;
    double little_eq_ghz = 0.0;
    double big_cores = 0.0;
    double little_cores = 0.0;
    double cores = 0.0;
    double span_penalty = 0.0;

    /**
     * Compute-bound instruction rate, GIPS: Σ_c (eq_c · ipc) · cores_c,
     * times (1 − span_penalty) when the pool spans both clusters. An empty
     * cluster's term (+0.0) and the one-cluster span factor (×1.0) would be
     * exact no-ops, so they are skipped rather than left on the latency
     * path: one cluster computes (f · ipc) · cores, the homogeneous order.
     */
    double
    Gips(double ipc) const
    {
        double gips = big_eq_ghz * ipc * big_cores;
        if (little_cores > 0.0) {
            gips += little_eq_ghz * ipc * little_cores;
            if (big_cores > 0.0) {
                gips *= 1.0 - span_penalty;
            }
        }
        return gips;
    }
};

/** Fills @p parallelism threads into the two clusters' free cores,
 * big-first or LITTLE-first. */
Pool
AssignPool(double parallelism, double big_eq_ghz, double big_cores,
           double little_eq_ghz, double little_cores, bool big_first,
           double span_penalty)
{
    Pool pool;
    pool.big_eq_ghz = big_eq_ghz;
    pool.little_eq_ghz = little_eq_ghz;
    pool.span_penalty = span_penalty;
    double remaining = parallelism;
    if (big_first) {
        pool.big_cores = std::min(remaining, big_cores);
        remaining -= pool.big_cores;
        pool.little_cores = std::min(remaining, little_cores);
    } else {
        pool.little_cores = std::min(remaining, little_cores);
        remaining -= pool.little_cores;
        pool.big_cores = std::min(remaining, big_cores);
    }
    pool.cores = pool.big_cores + pool.little_cores;
    return pool;
}

/** Rates of @p demand on @p pool with @p effective_gbps of bus bandwidth. */
ExecutionRates
RunOnPool(const WorkloadDemand& demand, const Pool& pool, double effective_gbps,
          double prefetch_gbps_per_busy_core)
{
    AEO_ASSERT(demand.ipc > 0.0, "ipc must be positive");
    AEO_ASSERT(demand.parallelism > 0.0, "parallelism must be positive");
    AEO_ASSERT(demand.mem_bytes_per_instr >= 0.0, "negative memory intensity");

    ExecutionRates rates;
    const double compute_gips = pool.Gips(demand.ipc);
    if (pool.cores <= 0.0 || compute_gips <= 0.0 || effective_gbps <= 0.0) {
        return rates;
    }
    // Per-instruction time in nanoseconds: compute + memory, serialized.
    const double t_cpu_ns = 1.0 / compute_gips;
    const double t_mem_ns = demand.mem_bytes_per_instr / effective_gbps;
    const double capacity_gips = 1.0 / (t_cpu_ns + t_mem_ns);

    rates.capacity_gips = capacity_gips;
    rates.gips = std::min(demand.demand_gips, capacity_gips);
    // Memory-stall time occupies the issuing core, so busy time is the full
    // per-instruction latency (matches how Linux accounts CPU load).
    rates.busy_cores = rates.gips / capacity_gips * pool.cores;
    rates.mem_gbps = rates.gips * demand.mem_bytes_per_instr +
                     rates.busy_cores * prefetch_gbps_per_busy_core;
    return rates;
}

/** A workload's per-core utilization: gips / capacity, in [0, 1] because
 * gips never exceeds capacity. Each of its cores runs at this load. */
double
Utilization(const ExecutionRates& rates)
{
    return rates.capacity_gips > 0.0 ? rates.gips / rates.capacity_gips : 0.0;
}

}  // namespace

HetExecutionRates
ExecutionEngine::ComputeShared(const WorkloadDemand& foreground,
                               const WorkloadDemand& background,
                               const ClusterOperatingPoint& big,
                               const ClusterOperatingPoint& little,
                               ThreadPlacement placement, double span_penalty,
                               MegabytesPerSecond bandwidth) const
{
    HetExecutionRates het;
    const double total_gbps =
        bandwidth.value() / 1000.0 * params_.bandwidth_efficiency;
    const double big_eq = big.frequency.value() * big.perf_scale;
    const double little_eq = little.frequency.value() * little.perf_scale;
    const double big_cores = static_cast<double>(big.online_cores);
    const double little_cores = static_cast<double>(little.online_cores);

    // Background: LITTLE-first over the background share of each cluster,
    // its demand capped at that share of its pool's compute throughput.
    WorkloadDemand bg = background;
    const Pool bg_pool = AssignPool(
        bg.parallelism, big_eq, big_cores * params_.background_share,
        little_eq, little_cores * params_.background_share,
        /*big_first=*/false, span_penalty);
    const Pool bg_cap_pool =
        AssignPool(bg.parallelism, big_eq, big_cores, little_eq, little_cores,
                   /*big_first=*/false, span_penalty);
    bg.demand_gips = std::min(bg.demand_gips, params_.background_share *
                                                  bg_cap_pool.Gips(bg.ipc));
    het.background = RunOnPool(bg, bg_pool, total_gbps * params_.background_share,
                               params_.prefetch_gbps_per_busy_core);
    const double bg_load = Utilization(het.background);
    const double bg_big_busy = bg_load * bg_pool.big_cores;
    const double bg_little_busy = bg_load * bg_pool.little_cores;

    // Foreground: the placement's clusters, minus what the background holds,
    // fastest-core-first. A fully-occupied pool still yields a residual
    // quarter core.
    double fg_big_cores =
        placement == ThreadPlacement::kLittleOnly
            ? 0.0
            : std::max(0.0, big_cores - bg_big_busy);
    double fg_little_cores =
        placement == ThreadPlacement::kBigOnly
            ? 0.0
            : std::max(0.0, little_cores - bg_little_busy);
    if (fg_big_cores + fg_little_cores < 0.25) {
        if (placement == ThreadPlacement::kLittleOnly) {
            fg_little_cores = 0.25;
        } else {
            fg_big_cores = 0.25;
        }
    }
    const Pool fg_pool =
        AssignPool(foreground.parallelism, big_eq, fg_big_cores, little_eq,
                   fg_little_cores, /*big_first=*/true, span_penalty);
    const double remaining_gbps =
        std::max(1e-9, total_gbps - het.background.mem_gbps);
    het.foreground = RunOnPool(foreground, fg_pool, remaining_gbps,
                               params_.prefetch_gbps_per_busy_core);
    const double fg_load = Utilization(het.foreground);

    het.big_busy_cores = bg_big_busy + fg_load * fg_pool.big_cores;
    het.little_busy_cores = bg_little_busy + fg_load * fg_pool.little_cores;

    // Busiest-core load per cluster: a workload's assigned cores run in
    // lockstep at its utilization, so each cluster sees the max over the
    // workloads using it.
    het.big_max_core_load =
        std::max(fg_pool.big_cores > 0.0 ? fg_load : 0.0,
                 bg_pool.big_cores > 0.0 ? bg_load : 0.0);
    het.little_max_core_load =
        std::max(fg_pool.little_cores > 0.0 ? fg_load : 0.0,
                 bg_pool.little_cores > 0.0 ? bg_load : 0.0);
    return het;
}

}  // namespace aeo
