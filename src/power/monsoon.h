/**
 * @file
 * Simulated Monsoon power monitor.
 *
 * The paper measures whole-device power with a Monsoon monitor sampling at
 * 5 kHz (§IV-A). This model samples the device's instantaneous power at the
 * same rate, applies Gaussian measurement noise, and reports the running
 * average. Experiments read their "measured" power from here — exactly as
 * the authors did — while the exact EnergyMeter integral remains available
 * for validation.
 *
 * The samples ride the simulator's lazy sampler series: device power is
 * constant between events, so the samples owed since the last event are
 * taken in one batch just before the next one, each with its own fault
 * check and noise draw, in the order a per-sample event would take them.
 */
#ifndef AEO_POWER_MONSOON_H_
#define AEO_POWER_MONSOON_H_

#include <functional>

#include "common/random.h"
#include "common/units.h"
#include "fault/fault_injector.h"
#include "sim/simulator.h"

namespace aeo {

/** Injector path guarding power-meter samples. */
inline constexpr const char kMonsoonFaultPath[] = "/dev/monsoon/sample";

/** Configuration of the simulated power monitor. */
struct MonsoonConfig {
    /** Sampling frequency, Hz (the real instrument samples at 5 kHz). */
    double sample_hz = 5000.0;
    /** Relative standard deviation of per-sample measurement noise. */
    double noise_rel_stddev = 0.004;
};

/** Samples a power source periodically and accumulates statistics. */
class MonsoonMonitor {
  public:
    /**
     * @param sim          The simulator driving time; must outlive this.
     * @param power_source Returns the device's instantaneous true power.
     * @param rng_seed     Seed for the measurement-noise stream.
     * @param config       Sampling parameters.
     */
    MonsoonMonitor(Simulator* sim, std::function<Milliwatts()> power_source,
                   uint64_t rng_seed, MonsoonConfig config = {});

    ~MonsoonMonitor();

    MonsoonMonitor(const MonsoonMonitor&) = delete;
    MonsoonMonitor& operator=(const MonsoonMonitor&) = delete;

    /** Starts sampling. */
    void Start();

    /** Stops sampling. */
    void Stop();

    /** Number of samples taken. */
    uint64_t sample_count() const { return sample_count_; }

    /** Samples lost to injected meter failures (USB glitches etc.). The
     * running average simply spans fewer samples — as with the real
     * instrument, a dropped window biases nothing, it only thins the data. */
    uint64_t dropped_sample_count() const { return dropped_sample_count_; }

    /** Hooks an injector into the sampling path; nullptr disables. */
    void
    SetFaultInjector(FaultInjector* injector)
    {
        injector_ = injector;
        // Memoized against the previous injector's topology versions.
        fault_query_ = FaultInjector::PathQuery(kMonsoonFaultPath);
    }

    /** Average of all measured samples. */
    Milliwatts MeasuredAveragePower() const;

    /**
     * Average power over the samples taken since the previous drain, then
     * resets the window. Gives the controller a per-control-cycle power
     * measurement (for profile-drift detection) without disturbing the
     * cumulative statistics above. Falls back to the running average when
     * the window is empty (e.g. total meter dropout).
     */
    Milliwatts DrainWindowAveragePower();

    /** Samples currently accumulated in the drain window. */
    uint64_t window_sample_count() const { return window_count_; }

    /** Measured energy: average power × observed duration. */
    Joules MeasuredEnergy() const;

    /** Wall time spanned by the measurement (start → last sample). */
    SimTime ObservedDuration() const;

  private:
    /** Takes the @p n samples due at @p first, @p first + @p period, ... */
    void TakeSamples(SimTime first, uint64_t n, SimTime period);

    Simulator* sim_;
    std::function<Milliwatts()> power_source_;
    Rng rng_;
    MonsoonConfig config_;
    /** The simulator's sampler series is ours. */
    bool sampling_ = false;
    FaultInjector* injector_ = nullptr;
    /** Memoized injector lookup for the per-sample guard. */
    FaultInjector::PathQuery fault_query_{kMonsoonFaultPath};
    SimTime start_time_;
    SimTime last_sample_time_;
    double power_sum_mw_ = 0.0;
    uint64_t sample_count_ = 0;
    double window_sum_mw_ = 0.0;
    uint64_t window_count_ = 0;
    uint64_t dropped_sample_count_ = 0;
};

}  // namespace aeo

#endif  // AEO_POWER_MONSOON_H_
