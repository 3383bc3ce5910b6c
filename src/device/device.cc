#include "device/device.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/strings.h"
#include "kernel/governors/cpufreq_interactive.h"
#include "kernel/governors/cpufreq_conservative.h"
#include "kernel/governors/cpufreq_lulzactive.h"
#include "kernel/governors/cpufreq_ondemand.h"
#include "kernel/governors/cpufreq_performance.h"
#include "kernel/governors/cpufreq_powersave.h"
#include "kernel/governors/cpufreq_userspace.h"
#include "kernel/governors/devfreq_cpubw_hwmon.h"
#include "kernel/governors/devfreq_simple.h"
#include "soc/nexus6.h"

namespace aeo {

namespace {

/** Demand of an empty foreground (home screen idle). */
WorkloadDemand
IdleDemand()
{
    WorkloadDemand demand;
    demand.ipc = 0.5;
    demand.parallelism = 1.0;
    demand.mem_bytes_per_instr = 0.2;
    demand.demand_gips = 0.002;
    return demand;
}

}  // namespace

namespace {

/** Registers the stock governor set on a cpufreq policy. */
void
RegisterStockCpufreqGovernors(CpufreqPolicy* policy)
{
    policy->RegisterGovernor("interactive", MakeCpufreqInteractiveFactory());
    policy->RegisterGovernor("ondemand", MakeCpufreqOndemandFactory());
    policy->RegisterGovernor("conservative", MakeCpufreqConservativeFactory());
    policy->RegisterGovernor("performance", MakeCpufreqPerformanceFactory());
    policy->RegisterGovernor("powersave", MakeCpufreqPowersaveFactory());
    policy->RegisterGovernor("userspace", MakeCpufreqUserspaceFactory());
    policy->RegisterGovernor("lulzactive", MakeCpufreqLulzactiveFactory());
}

}  // namespace

Device::Device(DeviceConfig config)
    : config_(config),
      topology_(config_.topology ? *config_.topology : MakeNexus6Topology()),
      cluster_(topology_.primary().table, topology_.primary().num_cores),
      bus_(topology_.bandwidth_table()),
      gpu_(MakeAdreno420()),
      engine_(config.exec_params),
      power_model_(config.power_params),
      loadavg_(6.0),
      cpu_residency_(static_cast<size_t>(topology_.primary().table.size())),
      bw_residency_(static_cast<size_t>(topology_.bandwidth_table().size())),
      gpu_residency_(static_cast<size_t>(kAdreno420Levels)),
      little_residency_(static_cast<size_t>(
          topology_.is_heterogeneous() ? topology_.little().table.size() : 1))
{
    Rng seeder(config_.seed);
    placement_ = topology_.is_heterogeneous() ? ThreadPlacement::kBoth
                                              : ThreadPlacement::kBigOnly;

    // On big.LITTLE each domain gets its policyN directory; the homogeneous
    // build keeps the legacy per-cpu root so node paths (and anything keyed
    // on them, e.g. fault rules) are unchanged.
    const std::string cpufreq_root =
        topology_.is_heterogeneous()
            ? CpufreqPolicyRoot(topology_.primary().first_cpu)
            : std::string(kCpufreqSysfsRoot);
    cpufreq_ = std::make_unique<CpufreqPolicy>(&sim_, &cluster_, &load_meter_,
                                               &sysfs_, cpufreq_root);
    RegisterStockCpufreqGovernors(cpufreq_.get());
    if (topology_.is_heterogeneous()) {
        little_cluster_.emplace(topology_.little().table,
                                topology_.little().num_cores);
        little_cpufreq_ = std::make_unique<CpufreqPolicy>(
            &sim_, &*little_cluster_, &little_load_meter_, &sysfs_,
            CpufreqPolicyRoot(topology_.little().first_cpu));
        RegisterStockCpufreqGovernors(little_cpufreq_.get());
    }

    devfreq_ = std::make_unique<DevfreqPolicy>(&sim_, &bus_, &traffic_meter_,
                                               &sysfs_, kDevfreqSysfsRoot);
    devfreq_->RegisterGovernor("cpubw_hwmon", MakeDevfreqCpubwHwmonFactory());
    devfreq_->RegisterGovernor("performance", MakeDevfreqPerformanceFactory());
    devfreq_->RegisterGovernor("powersave", MakeDevfreqPowersaveFactory());
    devfreq_->RegisterGovernor("userspace", MakeDevfreqUserspaceFactory());

    gpufreq_ = std::make_unique<GpuFreqPolicy>(&sim_, &gpu_, &gpu_meter_, &sysfs_,
                                               kGpuSysfsRoot);
    gpufreq_->RegisterGovernor("msm-adreno-tz", MakeAdrenoTzFactory());
    gpufreq_->RegisterGovernor("userspace", MakeGpuUserspaceFactory());
    gpufreq_->RegisterGovernor("performance", MakeGpuPerformanceFactory());

    perf_ = std::make_unique<PerfTool>(&sim_, &pmu_, seeder.Fork().NextU64(),
                                       config_.perf);
    monitor_ = std::make_unique<MonsoonMonitor>(
        &sim_, [this] { return CurrentPower(); }, seeder.Fork().NextU64(),
        config_.monsoon);

    // The injector's seed is derived outside the seeder.Fork() chain so that
    // configuring (or clearing) fault rules never shifts the component RNG
    // streams: a fault-free run is bit-identical either way.
    if (!config_.fault_rules.empty()) {
        fault_injector_ =
            std::make_unique<FaultInjector>(config_.seed ^ 0xFA171FA171ULL);
        for (const FaultRule& rule : config_.fault_rules) {
            fault_injector_->AddRule(rule);
        }
        sysfs_.SetFaultInjector(fault_injector_.get());
        perf_->SetFaultInjector(fault_injector_.get());
        monitor_->SetFaultInjector(fault_injector_.get());
    }

    background_env_ = MakeBackgroundEnv(BackgroundKind::kBaseline);
    background_ =
        std::make_unique<AppModel>(background_env_.spec, seeder.Fork().NextU64());
    loadavg_.set_resident_tasks(background_env_.resident_tasks);

    // Governors and perf sample lazily-integrated meters; the hooks bring
    // them up to date at each sampling instant.
    cpufreq_->SetSyncHook([this] { IntegrateToNow(); });
    if (little_cpufreq_) {
        little_cpufreq_->SetSyncHook([this] { IntegrateToNow(); });
    }
    devfreq_->SetSyncHook([this] { IntegrateToNow(); });
    gpufreq_->SetSyncHook([this] { IntegrateToNow(); });
    perf_->SetSyncHook([this] { IntegrateToNow(); });

    cluster_.SetPreChangeListener([this] { IntegrateToNow(); });
    cluster_.SetPostChangeListener([this] {
        RecomputeRates();
        RescheduleBoundary();
    });
    if (little_cluster_) {
        little_cluster_->SetPreChangeListener([this] { IntegrateToNow(); });
        little_cluster_->SetPostChangeListener([this] {
            RecomputeRates();
            RescheduleBoundary();
        });
    }
    bus_.SetPreChangeListener([this] { IntegrateToNow(); });
    bus_.SetPostChangeListener([this] {
        RecomputeRates();
        RescheduleBoundary();
    });
    gpu_.SetPreChangeListener([this] { IntegrateToNow(); });
    gpu_.SetPostChangeListener([this] {
        RecomputeRates();
        RescheduleBoundary();
    });

    cpu_governor_node_ = sysfs_.Open(cpufreq_root + "/scaling_governor");
    bw_governor_node_ = sysfs_.Open(std::string(kDevfreqSysfsRoot) + "/governor");
    gpu_governor_node_ = sysfs_.Open(std::string(kGpuSysfsRoot) + "/governor");
    cpu_setspeed_node_ =
        sysfs_.Open(cpufreq_root + "/scaling_setspeed");
    bw_setfreq_node_ =
        sysfs_.Open(std::string(kDevfreqSysfsRoot) + "/userspace/set_freq");
    if (little_cpufreq_) {
        const std::string little_root =
            CpufreqPolicyRoot(topology_.little().first_cpu);
        little_governor_node_ = sysfs_.Open(little_root + "/scaling_governor");
        little_setspeed_node_ = sysfs_.Open(little_root + "/scaling_setspeed");
    }

    last_update_ = sim_.Now();
    RecomputeRates();
    RescheduleBoundary();
}

Device::~Device() = default;

void
Device::LaunchApp(const AppSpec& spec)
{
    IntegrateToNow();
    Rng seeder(config_.seed ^ 0x9e3779b97f4a7c15ULL);
    foreground_ = std::make_unique<AppModel>(spec, seeder.NextU64());
    RecomputeRates();
    RescheduleBoundary();
}

void
Device::SetBackground(const BackgroundEnv& env)
{
    IntegrateToNow();
    background_env_ = env;
    Rng seeder(config_.seed ^ 0xc2b2ae3d27d4eb4fULL);
    background_ = std::make_unique<AppModel>(env.spec, seeder.NextU64());
    loadavg_.set_resident_tasks(env.resident_tasks);
    RecomputeRates();
    RescheduleBoundary();
}

void
Device::UseDefaultGovernors()
{
    sysfs_.Write(cpu_governor_node_, "interactive");
    if (little_cpufreq_) {
        sysfs_.Write(little_governor_node_, "interactive");
    }
    sysfs_.Write(bw_governor_node_, "cpubw_hwmon");
    sysfs_.Write(gpu_governor_node_, "msm-adreno-tz");
}

void
Device::EnableMpdecision(MpdecisionParams params)
{
    mpdecision_ = std::make_unique<Mpdecision>(&sim_, &cluster_, &load_meter_,
                                               params);
    if (little_cluster_) {
        mpdecision_->AddCluster(&*little_cluster_, &little_load_meter_);
    }
    mpdecision_->SetSyncHook([this] { IntegrateToNow(); });
    mpdecision_->Start();
}

void
Device::DisableMpdecision()
{
    if (mpdecision_) {
        mpdecision_->Stop();
        mpdecision_.reset();
    }
}

void
Device::EnableInputBoost(InputBoostParams params)
{
    // The cpu_boost module parameter node only exists on kernels built with
    // the driver (the paper's build compiles it out), so probe it instead of
    // asserting; absent or unparsable, the params' default floor stands.
    // aeo-lint: allow(sysfs-literal) -- optional module node, single probe site.
    const std::string raw = sysfs_.ReadOrDefault(
        "/sys/module/cpu_boost/parameters/input_boost_freq", "");
    long long khz = 0;
    if (!raw.empty() && ParseInt64(raw, &khz) && khz > 0) {
        params.boost_freq = Gigahertz(static_cast<double>(khz) / 1e6);
    }
    input_boost_ = std::make_unique<InputBoost>(&sim_, cpufreq_.get(), params);
}

void
Device::NotifyTouch()
{
    if (input_boost_) {
        input_boost_->OnTouch();
    }
}

void
Device::EnableThermal(ThermalParams thermal_params, MsmThermalParams msm_params)
{
    AEO_ASSERT(thermal_ == nullptr, "thermal subsystem enabled twice");
    Sync();
    thermal_ = std::make_unique<ThermalModel>(thermal_params);
    msm_thermal_ = std::make_unique<MsmThermal>(&sim_, cpufreq_.get(),
                                                thermal_.get(), &sysfs_,
                                                msm_params);
    msm_thermal_->SetSyncHook([this] { IntegrateToNow(); });
    msm_thermal_->Start();
    // Temperature now feeds leakage, so rates must reflect the new inputs.
    RecomputeRates();
    RescheduleBoundary();
}

void
Device::UseUserspaceGovernors()
{
    sysfs_.Write(cpu_governor_node_, "userspace");
    if (little_cpufreq_) {
        sysfs_.Write(little_governor_node_, "userspace");
    }
    sysfs_.Write(bw_governor_node_, "userspace");
}

void
Device::PinHetConfiguration(const HetConfig& config)
{
    AEO_ASSERT(little_cpufreq_ != nullptr || config.little_level == 0,
               "heterogeneous config %s on a homogeneous device",
               config.ToString().c_str());
    UseUserspaceGovernors();
    const long long big_khz = std::llround(
        cluster_.table().FrequencyAt(config.big_level).kilohertz());
    sysfs_.Write(cpu_setspeed_node_, StrFormat("%lld", big_khz));
    if (little_cpufreq_) {
        const long long little_khz = std::llround(
            little_cluster_->table().FrequencyAt(config.little_level).kilohertz());
        sysfs_.Write(little_setspeed_node_, StrFormat("%lld", little_khz));
    }
    const long long mbps =
        std::llround(bus_.table().BandwidthAt(config.bw_level).value());
    sysfs_.Write(bw_setfreq_node_, StrFormat("%lld", mbps));
    SetThreadPlacement(config.placement);
}

void
Device::SetThreadPlacement(ThreadPlacement placement)
{
    const std::vector<ThreadPlacement> admissible =
        topology_.AdmissiblePlacements();
    AEO_ASSERT(std::find(admissible.begin(), admissible.end(), placement) !=
                   admissible.end(),
               "placement '%s' not admissible on this topology",
               ThreadPlacementName(placement).c_str());
    if (placement == placement_) {
        return;
    }
    IntegrateToNow();
    placement_ = placement;
    RecomputeRates();
    RescheduleBoundary();
}

void
Device::RunFor(SimTime duration)
{
    if (!monitor_started_) {
        monitor_->Start();
        monitor_started_ = true;
    }
    sim_.RunUntil(sim_.Now() + duration);
    Sync();
}

void
Device::RunUntilAppFinishes(SimTime max_duration)
{
    AEO_ASSERT(foreground_ != nullptr, "no foreground app launched");
    if (!monitor_started_) {
        monitor_->Start();
        monitor_started_ = true;
    }
    stop_when_app_finishes_ = true;
    sim_.RunUntil(sim_.Now() + max_duration);
    stop_when_app_finishes_ = false;
    Sync();
    if (!foreground_->Finished()) {
        Warn("app '%s' did not finish within %.1f s", foreground_->name().c_str(),
             max_duration.seconds());
    }
}

// aeo: hot-path
Milliwatts
Device::CurrentPower() const
{
    const double overhead_mw =
        perf_->power_overhead_mw() + controller_overhead_mw_;
    if (power_cache_valid_ && overhead_mw == power_cache_overhead_mw_) {
        return power_cache_;
    }
    PowerInputs inputs;
    inputs.cpu_freq = cluster_.frequency();
    inputs.cpu_voltage = cluster_.voltage();
    inputs.online_cores = cluster_.online_cores();
    inputs.busy_cores = big_busy_cores_;
    inputs.cpu_dyn_scale = topology_.primary().dyn_power_scale;
    inputs.cpu_leak_scale = topology_.primary().leak_power_scale;
    if (little_cluster_) {
        inputs.has_little = true;
        inputs.little_freq = little_cluster_->frequency();
        inputs.little_voltage = little_cluster_->voltage();
        inputs.little_online = little_cluster_->online_cores();
        inputs.little_busy = little_busy_cores_;
        inputs.little_dyn_scale = topology_.little().dyn_power_scale;
        inputs.little_leak_scale = topology_.little().leak_power_scale;
    }
    inputs.bw_level = bus_.level();
    inputs.mem_gbps = mem_gbps_;
    double component = 0.0;
    if (foreground_ != nullptr) {
        component += foreground_->CurrentComponentPower();
    }
    component += background_->CurrentComponentPower();
    inputs.app_component_mw = component;
    inputs.gpu_mhz = gpu_.mhz();
    inputs.gpu_voltage = gpu_.voltage();
    inputs.gpu_busy = gpu_busy_;
    inputs.overhead_mw = overhead_mw;
    inputs.temp_c = thermal_ != nullptr ? thermal_->temperature_c()
                                        : kLeakageReferenceC;
    power_cache_ = power_model_.TotalPower(inputs);
    power_cache_overhead_mw_ = overhead_mw;
    power_cache_valid_ = true;
    return power_cache_;
}

void
Device::SetControllerOverheadPower(double mw)
{
    AEO_ASSERT(mw >= 0.0, "negative overhead power");
    IntegrateToNow();
    controller_overhead_mw_ = mw;
    RecomputeRates();
    RescheduleBoundary();
}

void
Device::Sync()
{
    IntegrateToNow();
    RecomputeRates();
    RescheduleBoundary();
}

void
Device::IntegrateToNow()
{
    if (in_integrate_) {
        return;
    }
    in_integrate_ = true;
    const SimTime now = sim_.Now();
    const SimTime dt = now - last_update_;
    AEO_ASSERT(dt >= SimTime::Zero(), "time went backwards");
    if (dt > SimTime::Zero()) {
        const Seconds seconds = dt.ToSeconds();
        // Power is evaluated once at the segment's entry temperature and
        // held constant across it — consistent for both energy and heat.
        const Milliwatts power = CurrentPower();
        energy_meter_.Accumulate(power, dt);
        if (thermal_ != nullptr) {
            thermal_->Advance(power, dt);
        }
        cpu_residency_.Add(static_cast<size_t>(cluster_.level()), seconds.value());
        bw_residency_.Add(static_cast<size_t>(bus_.level()), seconds.value());
        gpu_residency_.Add(static_cast<size_t>(gpu_.level()), seconds.value());
        gpu_meter_.Advance(gpu_busy_, dt);
        load_meter_.Advance(big_busy_cores_, max_core_load_, dt);
        if (little_cluster_) {
            little_residency_.Add(static_cast<size_t>(little_cluster_->level()),
                                  seconds.value());
            little_load_meter_.Advance(little_busy_cores_,
                                       little_max_core_load_, dt);
        }
        traffic_meter_.Advance(mem_gbps_, dt);
        pmu_.Advance(fg_gips_, cluster_.frequency().value(), busy_cores_,
                     mem_gbps_, dt);
        loadavg_.Advance(busy_cores_, dt);
        if (foreground_ != nullptr) {
            foreground_->Advance(dt, fg_gips_ * seconds.value());
        }
        background_->Advance(dt, bg_gips_ * seconds.value());
        last_update_ = now;
        // Temperature and app phases advanced; the memoized power is stale.
        power_cache_valid_ = false;
    }
    in_integrate_ = false;
    MaybeFinish();
}

void
Device::RecomputeRates()
{
    WorkloadDemand fg_demand = IdleDemand();
    if (foreground_ != nullptr && !foreground_->Finished()) {
        fg_demand = foreground_->CurrentDemand();
        fg_demand.mem_bytes_per_instr *=
            background_env_.fg_mem_intensity_multiplier;
    }
    const WorkloadDemand bg_demand = background_->CurrentDemand();

    // Instrumentation steals a slice of foreground compute (§V-A1: the perf
    // tool costs ~4 % at a 1 s sampling period).
    const double overhead = perf_->cpu_overhead_fraction();

    ClusterOperatingPoint big;
    big.frequency = cluster_.frequency();
    big.perf_scale = topology_.primary().perf_scale;
    big.online_cores = cluster_.online_cores();
    ClusterOperatingPoint little;  // zero cores: no LITTLE domain
    if (little_cluster_) {
        little.frequency = little_cluster_->frequency();
        little.perf_scale = topology_.little().perf_scale;
        little.online_cores = little_cluster_->online_cores();
    }

    const HetExecutionRates rates = engine_.ComputeShared(
        fg_demand, bg_demand, big, little, placement_,
        topology_.placement_model().span_penalty, bus_.bandwidth());
    fg_gips_ = rates.foreground.gips * (1.0 - overhead);
    bg_gips_ = rates.background.gips;
    busy_cores_ = rates.big_busy_cores + rates.little_busy_cores;
    big_busy_cores_ = rates.big_busy_cores;
    little_busy_cores_ = rates.little_busy_cores;
    mem_gbps_ = rates.foreground.mem_gbps + rates.background.mem_gbps;
    // The busiest core's utilization per cluster; interactive keys off it.
    max_core_load_ = rates.big_max_core_load;
    little_max_core_load_ = rates.little_max_core_load;
    power_cache_valid_ = false;

    // GPU demand follows the foreground's progress (render work per Gi).
    // When the GPU cannot keep up it co-bottlenecks the application.
    gpu_busy_ = 0.0;
    if (foreground_ != nullptr && !foreground_->Finished()) {
        const double units_per_gi = foreground_->CurrentGpuUnitsPerGi();
        if (units_per_gi > 0.0 && fg_gips_ > 0.0) {
            const double demand_units = fg_gips_ * units_per_gi;
            const double capacity = gpu_.CapacityAt(gpu_.level());
            if (demand_units > capacity) {
                fg_gips_ *= capacity / demand_units;
                gpu_busy_ = 1.0;
            } else {
                gpu_busy_ = demand_units / capacity;
            }
        }
    }
}

void
Device::RescheduleBoundary()
{
    if (boundary_event_ != kInvalidEventId) {
        sim_.Cancel(boundary_event_);
        boundary_event_ = kInvalidEventId;
    }
    std::optional<SimTime> next;
    if (foreground_ != nullptr) {
        next = foreground_->TimeToBoundary(fg_gips_);
    }
    const std::optional<SimTime> bg_next = background_->TimeToBoundary(bg_gips_);
    if (bg_next && (!next || *bg_next < *next)) {
        next = bg_next;
    }
    if (!next) {
        return;
    }
    const SimTime delay = std::max(*next, SimTime::Micros(1));
    boundary_event_ = sim_.ScheduleAfter(delay, [this] { OnBoundary(); });
}

void
Device::OnBoundary()
{
    boundary_event_ = kInvalidEventId;
    IntegrateToNow();
    RecomputeRates();
    RescheduleBoundary();
}

void
Device::MaybeFinish()
{
    if (stop_when_app_finishes_ && foreground_ != nullptr &&
        foreground_->Finished()) {
        sim_.Stop();
    }
}

RunResult
Device::CollectResult(const std::string& policy_name) const
{
    RunResult result;
    result.app_name = foreground_ != nullptr ? foreground_->name() : "<none>";
    result.load_name = ToString(background_env_.kind);
    result.policy_name = policy_name;

    result.energy_j = energy_meter_.energy().value();
    result.avg_power_mw = energy_meter_.AveragePower();
    if (monitor_->sample_count() > 0) {
        result.measured_energy_j = monitor_->MeasuredEnergy().value();
        result.measured_avg_power_mw = monitor_->MeasuredAveragePower();
    } else {
        result.measured_energy_j = result.energy_j;
        result.measured_avg_power_mw = result.avg_power_mw;
    }

    result.duration_s = energy_meter_.elapsed().seconds();
    if (foreground_ != nullptr) {
        result.executed_gi = foreground_->total_executed_gi();
        const double elapsed = foreground_->total_elapsed().seconds();
        result.avg_gips = elapsed > 0.0 ? result.executed_gi / elapsed : 0.0;
        result.app_finished = foreground_->Finished();
    }

    result.cpu_residency = cpu_residency_.Fractions();
    result.bw_residency = bw_residency_.Fractions();
    result.gpu_residency = gpu_residency_.Fractions();
    result.cpu_transitions = cluster_.transition_count();
    result.bw_transitions = bus_.transition_count();
    if (little_cluster_) {
        result.little_residency = little_residency_.Fractions();
        result.little_transitions = little_cluster_->transition_count();
    }
    result.loadavg = loadavg_.value();
    return result;
}

}  // namespace aeo
