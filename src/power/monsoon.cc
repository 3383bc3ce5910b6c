#include "power/monsoon.h"

#include <utility>

#include "common/logging.h"

namespace aeo {

MonsoonMonitor::MonsoonMonitor(Simulator* sim,
                               std::function<Milliwatts()> power_source,
                               uint64_t rng_seed, MonsoonConfig config)
    : sim_(sim),
      power_source_(std::move(power_source)),
      rng_(rng_seed),
      config_(config)
{
    AEO_ASSERT(sim_ != nullptr, "monitor needs a simulator");
    AEO_ASSERT(power_source_ != nullptr, "monitor needs a power source");
    AEO_ASSERT(config_.sample_hz > 0.0, "sample rate must be positive");
    AEO_ASSERT(config_.noise_rel_stddev >= 0.0, "negative noise level");
}

MonsoonMonitor::~MonsoonMonitor()
{
    Stop();
}

void
MonsoonMonitor::Start()
{
    Stop();
    start_time_ = sim_->Now();
    last_sample_time_ = start_time_;
    sim_->StartSampler(
        SimTime::FromSecondsF(1.0 / config_.sample_hz),
        [](void* self, SimTime first, uint64_t n, SimTime period) {
            static_cast<MonsoonMonitor*>(self)->TakeSamples(first, n, period);
        },
        this);
    sampling_ = true;
}

void
MonsoonMonitor::Stop()
{
    if (sampling_) {
        sim_->StopSampler();
        sampling_ = false;
    }
}

// aeo: hot-path
void
MonsoonMonitor::TakeSamples(SimTime first, uint64_t n, SimTime period)
{
    // No event runs inside a batch, so every sample sees the same power.
    // It is read at the first kept sample, as a per-sample read would be:
    // a batch whose samples are all dropped leaves the device's power memo
    // as it was.
    double true_mw = 0.0;
    bool have_power = false;
    for (uint64_t i = 0; i < n; ++i) {
        if (injector_ != nullptr && !injector_->OnRead(fault_query_).ok()) {
            ++dropped_sample_count_;
            continue;
        }
        if (!have_power) {
            true_mw = power_source_().value();
            have_power = true;
        }
        const double measured_mw =
            true_mw * (1.0 + rng_.Gaussian(0.0, config_.noise_rel_stddev));
        power_sum_mw_ += measured_mw;
        ++sample_count_;
        window_sum_mw_ += measured_mw;
        ++window_count_;
        last_sample_time_ = first + period * static_cast<int64_t>(i);
    }
}

Milliwatts
MonsoonMonitor::MeasuredAveragePower() const
{
    if (sample_count_ == 0) {
        return Milliwatts(0.0);
    }
    return Milliwatts(power_sum_mw_ / static_cast<double>(sample_count_));
}

Milliwatts
MonsoonMonitor::DrainWindowAveragePower()
{
    if (window_count_ == 0) {
        return MeasuredAveragePower();
    }
    const Milliwatts avg(window_sum_mw_ / static_cast<double>(window_count_));
    window_sum_mw_ = 0.0;
    window_count_ = 0;
    return avg;
}

Joules
MonsoonMonitor::MeasuredEnergy() const
{
    return MeasuredAveragePower() * ObservedDuration().ToSeconds();
}

SimTime
MonsoonMonitor::ObservedDuration() const
{
    return last_sample_time_ - start_time_;
}

}  // namespace aeo
