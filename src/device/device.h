/**
 * @file
 * The complete simulated phone: SoC + power model + Monsoon monitor +
 * kernel subsystems (sysfs, cpufreq, devfreq, PMU, perf, loadavg) + the
 * foreground application and background load.
 *
 * The device is the *plant* of the paper's feedback loop (Fig. 2). It keeps
 * all activity rates piecewise-constant and integrates state exactly between
 * events:
 *
 *  - any frequency/bandwidth change first integrates the elapsed segment at
 *    the old rates, applies the change, then recomputes rates;
 *  - application phase boundaries are predicted from the current rates and
 *    scheduled as events, so integration segments never straddle a demand
 *    change;
 *  - the 5 kHz power monitor, governor timers and perf sampling are ordinary
 *    events on the same queue.
 *
 * A Device is built fresh per experiment run (cheap) so every run is
 * deterministic for a given seed.
 */
#ifndef AEO_DEVICE_DEVICE_H_
#define AEO_DEVICE_DEVICE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/app_model.h"
#include "apps/background_load.h"
#include "device/run_result.h"
#include "fault/fault_injector.h"
#include "kernel/cpufreq.h"
#include "kernel/devfreq.h"
#include "kernel/gpufreq.h"
#include "kernel/input_boost.h"
#include "kernel/mpdecision.h"
#include "kernel/msm_thermal.h"
#include "kernel/loadavg.h"
#include "kernel/meters.h"
#include "kernel/perf_tool.h"
#include "kernel/pmu.h"
#include "kernel/sysfs.h"
#include "kernel/sysfs_roots.h"
#include "power/energy_meter.h"
#include "power/monsoon.h"
#include "power/power_model.h"
#include "sim/simulator.h"
#include "soc/cluster_topology.h"
#include "soc/cpu_cluster.h"
#include "soc/execution_engine.h"
#include "soc/gpu_domain.h"
#include "soc/memory_bus.h"
#include "soc/thermal_model.h"
#include "stats/histogram.h"

namespace aeo {

/** Construction parameters for a Device. */
struct DeviceConfig {
    /** Master seed; all component streams fork from it. */
    uint64_t seed = 1;
    /** Execution-model constants. */
    ExecutionModelParams exec_params;
    /** Power-model constants (defaults to the calibrated Nexus 6 set). */
    PowerModelParams power_params = MakeNexus6PowerParams();
    /**
     * Cluster topology. Absent (the default) builds the historical
     * single-cluster Nexus 6 — bit-identical to builds predating the
     * topology parameter. A two-cluster topology adds a LITTLE frequency
     * domain with its own cpufreq policy (.../cpufreq/policyN), load meter
     * and governors, plus the thread-placement axis.
     */
    std::optional<ClusterTopology> topology;
    /** Power-monitor setup. */
    MonsoonConfig monsoon;
    /** perf sampler setup. */
    PerfToolConfig perf;
    /**
     * Fault-injection rules (see fault/fault_injector.h). When non-empty a
     * deterministic FaultInjector — seeded independently of the component
     * RNG streams, so fault-free runs are bit-identical with or without
     * this field — is attached to the sysfs tree, the perf tool and the
     * power monitor.
     */
    std::vector<FaultRule> fault_rules;
};

/** The simulated Nexus 6. */
class Device {
  public:
    /** Builds a Nexus 6 with all stock governors registered. */
    explicit Device(DeviceConfig config = {});

    ~Device();

    Device(const Device&) = delete;
    Device& operator=(const Device&) = delete;

    // --- Workload setup ---------------------------------------------------

    /** Installs the foreground application (replaces any previous one). */
    void LaunchApp(const AppSpec& spec);

    /** Installs a background-load environment. */
    void SetBackground(const BackgroundEnv& env);

    // --- Governor setup ---------------------------------------------------

    /** Selects the Android defaults: interactive + cpubw_hwmon. */
    void UseDefaultGovernors();

    /** Selects userspace governors on both subsystems (controller mode). */
    void UseUserspaceGovernors();

    /**
     * Enables the mpdecision hotplug daemon. The paper disables it (§IV-A:
     * hotplugging "can lead to inaccurate measurements"); it is off by
     * default and exists to demonstrate that distortion.
     */
    void EnableMpdecision(MpdecisionParams params = {});

    /** Stops hotplugging and restores all cores online. */
    void DisableMpdecision();

    /**
     * Enables the touch-event frequency boost the paper compiles out
     * (§IV-A). Off by default.
     */
    void EnableInputBoost(InputBoostParams params = {});

    /** Delivers a touch event (no-op unless input boost is enabled). */
    void NotifyTouch();

    /**
     * Enables the thermal subsystem: a lumped-RC package model heated by
     * dissipated power plus the msm_thermal driver that polls it and clamps
     * the CPU frequency table in stages. Off by default — without it the
     * device is thermally unconstrained and runs are bit-identical to
     * builds predating the subsystem. Typically paired with a non-zero
     * PowerModelParams::leak_temp_coeff_per_c so heat feeds back into
     * leakage (and thus into profile drift).
     */
    void EnableThermal(ThermalParams thermal_params = {},
                       MsmThermalParams msm_params = {});

    /**
     * Pins a configuration via the userspace governors: the primary (big)
     * and LITTLE frequency levels, the bandwidth level and the thread
     * placement. On a one-cluster device little_level must be 0 and the
     * placement kBigOnly, e.g. HetConfig{cpu_level, 0, bw_level}.
     */
    void PinHetConfiguration(const HetConfig& config);

    /**
     * Confines the foreground's threads (sched_setaffinity in spirit).
     * Panics if the placement is not admissible on this topology.
     */
    void SetThreadPlacement(ThreadPlacement placement);

    /** Current foreground thread placement. */
    ThreadPlacement thread_placement() const { return placement_; }

    // --- Running ----------------------------------------------------------

    /** Runs for a fixed duration of simulated time. */
    void RunFor(SimTime duration);

    /**
     * Runs until the foreground app finishes (batch apps) or @p max_duration
     * elapses, whichever is first.
     */
    void RunUntilAppFinishes(SimTime max_duration);

    /** Collects the metrics accumulated since construction. */
    RunResult CollectResult(const std::string& policy_name) const;

    // --- Component access (controller, tests, benches) ---------------------

    Simulator& sim() { return sim_; }
    Sysfs& sysfs() { return sysfs_; }
    const ClusterTopology& topology() const { return topology_; }
    CpufreqPolicy& cpufreq() { return *cpufreq_; }
    /** LITTLE-cluster cpufreq policy; nullptr on homogeneous devices. */
    CpufreqPolicy* little_cpufreq() { return little_cpufreq_.get(); }
    /** The LITTLE cluster; nullptr on homogeneous devices. */
    CpuCluster* little_cluster()
    {
        return little_cluster_ ? &*little_cluster_ : nullptr;
    }
    DevfreqPolicy& devfreq() { return *devfreq_; }
    GpuFreqPolicy& gpufreq() { return *gpufreq_; }
    GpuDomain& gpu() { return gpu_; }
    PerfTool& perf() { return *perf_; }
    const Pmu& pmu() const { return pmu_; }
    CpuCluster& cluster() { return cluster_; }
    MemoryBus& bus() { return bus_; }
    const EnergyMeter& energy_meter() const { return energy_meter_; }
    MonsoonMonitor& monitor() { return *monitor_; }
    AppModel* foreground() { return foreground_.get(); }
    const AppModel* foreground() const { return foreground_.get(); }
    double loadavg() const { return loadavg_.value(); }

    /** The fault injector, or nullptr when no fault rules were configured. */
    FaultInjector* fault_injector() { return fault_injector_.get(); }

    /** The thermal model, or nullptr unless EnableThermal was called. */
    const ThermalModel* thermal_model() const { return thermal_.get(); }

    /** The msm_thermal driver, or nullptr unless EnableThermal was called. */
    MsmThermal* msm_thermal() { return msm_thermal_.get(); }

    /** Free memory the current background environment leaves, MB — the
     * runtime load signature the §V-C extension keys on. */
    double free_memory_mb() const { return background_env_.free_memory_mb; }

    /** Current foreground instruction rate (for tests). */
    double foreground_gips() const { return fg_gips_; }

    /** Current true device power (the monitor's source). */
    Milliwatts CurrentPower() const;

    /**
     * Sets the average power the online controller's own computation draws
     * (regulator + optimizer + actuation writes; §V-A1).
     */
    void SetControllerOverheadPower(double mw);

    /**
     * Flushes integration up to the current simulated time (call before
     * reading meters outside an event).
     */
    void Sync();

  private:
    void IntegrateToNow();
    void RecomputeRates();
    void RescheduleBoundary();
    void OnBoundary();
    void MaybeFinish();

    DeviceConfig config_;
    ClusterTopology topology_;
    Simulator sim_;
    Sysfs sysfs_;
    /** Interned governor/setspeed nodes for the pinning helpers. */
    SysfsHandle cpu_governor_node_;
    SysfsHandle bw_governor_node_;
    SysfsHandle gpu_governor_node_;
    SysfsHandle cpu_setspeed_node_;
    SysfsHandle bw_setfreq_node_;
    SysfsHandle little_governor_node_;
    SysfsHandle little_setspeed_node_;

    CpuCluster cluster_;
    /** The LITTLE frequency domain; engaged only on big.LITTLE builds. */
    std::optional<CpuCluster> little_cluster_;
    MemoryBus bus_;
    GpuDomain gpu_;
    ExecutionEngine engine_;
    PowerModel power_model_;

    CpuLoadMeter load_meter_;
    CpuLoadMeter little_load_meter_;
    BusTrafficMeter traffic_meter_;
    GpuBusyMeter gpu_meter_;
    Pmu pmu_;
    LoadAvg loadavg_;

    std::unique_ptr<CpufreqPolicy> cpufreq_;
    std::unique_ptr<CpufreqPolicy> little_cpufreq_;
    std::unique_ptr<DevfreqPolicy> devfreq_;
    std::unique_ptr<GpuFreqPolicy> gpufreq_;
    std::unique_ptr<Mpdecision> mpdecision_;
    std::unique_ptr<InputBoost> input_boost_;
    std::unique_ptr<ThermalModel> thermal_;
    std::unique_ptr<MsmThermal> msm_thermal_;
    std::unique_ptr<PerfTool> perf_;
    std::unique_ptr<MonsoonMonitor> monitor_;
    std::unique_ptr<FaultInjector> fault_injector_;

    std::unique_ptr<AppModel> foreground_;
    std::unique_ptr<AppModel> background_;
    BackgroundEnv background_env_;

    EnergyMeter energy_meter_;
    Histogram cpu_residency_;
    Histogram bw_residency_;
    Histogram gpu_residency_;
    Histogram little_residency_;

    SimTime last_update_;
    double fg_gips_ = 0.0;
    double bg_gips_ = 0.0;
    double busy_cores_ = 0.0;
    double max_core_load_ = 0.0;
    /** Per-cluster splits; on homogeneous builds big == total, little == 0. */
    double big_busy_cores_ = 0.0;
    double little_busy_cores_ = 0.0;
    double little_max_core_load_ = 0.0;
    ThreadPlacement placement_ = ThreadPlacement::kBigOnly;
    double mem_gbps_ = 0.0;
    double gpu_busy_ = 0.0;
    double controller_overhead_mw_ = 0.0;

    EventId boundary_event_ = kInvalidEventId;
    bool stop_when_app_finishes_ = false;
    bool monitor_started_ = false;
    bool in_integrate_ = false;

    /**
     * Memoized CurrentPower(). Every input is piecewise-constant between
     * integration boundaries — frequencies, rates, app phases, and
     * temperature only change inside IntegrateToNow()/RecomputeRates(),
     * which invalidate the cache — except the perf-tool overhead, whose
     * live value is compared on each hit (PerfTool::Stop() has no sync
     * hook). The 5 kHz power monitor reads this ~26× per boundary, so the
     * memo removes the dominant per-sample cost without changing a single
     * returned value.
     */
    mutable bool power_cache_valid_ = false;
    mutable double power_cache_overhead_mw_ = 0.0;
    mutable Milliwatts power_cache_{0.0};
};

}  // namespace aeo

#endif  // AEO_DEVICE_DEVICE_H_
