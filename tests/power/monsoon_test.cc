#include "power/monsoon.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"
#include "fault/fault_injector.h"
#include "sim/periodic_task.h"

namespace aeo {
namespace {

TEST(MonsoonTest, SamplesAtConfiguredRate)
{
    Simulator sim;
    MonsoonConfig config;
    config.sample_hz = 5000.0;
    config.noise_rel_stddev = 0.0;
    MonsoonMonitor monitor(&sim, [] { return Milliwatts(1000.0); }, 1, config);
    monitor.Start();
    sim.RunUntil(SimTime::FromSeconds(1));
    EXPECT_EQ(monitor.sample_count(), 5000u);
}

TEST(MonsoonTest, NoiselessAverageIsExact)
{
    Simulator sim;
    MonsoonConfig config;
    config.noise_rel_stddev = 0.0;
    MonsoonMonitor monitor(&sim, [] { return Milliwatts(1623.57); }, 1, config);
    monitor.Start();
    sim.RunUntil(SimTime::FromSeconds(2));
    EXPECT_NEAR(monitor.MeasuredAveragePower().value(), 1623.57, 1e-9);
}

TEST(MonsoonTest, NoisyAverageConvergesToTruth)
{
    Simulator sim;
    MonsoonConfig config;
    config.noise_rel_stddev = 0.02;
    MonsoonMonitor monitor(&sim, [] { return Milliwatts(2000.0); }, 7, config);
    monitor.Start();
    sim.RunUntil(SimTime::FromSeconds(5));
    // 25000 samples at 2 % relative noise: mean within ~0.1 %.
    EXPECT_NEAR(monitor.MeasuredAveragePower().value(), 2000.0, 4.0);
}

TEST(MonsoonTest, TracksTimeVaryingPower)
{
    Simulator sim;
    double current = 1000.0;
    MonsoonConfig config;
    config.noise_rel_stddev = 0.0;
    MonsoonMonitor monitor(&sim, [&] { return Milliwatts(current); }, 1, config);
    monitor.Start();
    sim.RunUntil(SimTime::FromSeconds(1));
    current = 3000.0;
    sim.RunUntil(SimTime::FromSeconds(2));
    // Half the samples at 1 W, half at 3 W.
    EXPECT_NEAR(monitor.MeasuredAveragePower().value(), 2000.0, 2.0);
}

TEST(MonsoonTest, MeasuredEnergyMatchesAverageTimesDuration)
{
    Simulator sim;
    MonsoonConfig config;
    config.noise_rel_stddev = 0.0;
    MonsoonMonitor monitor(&sim, [] { return Milliwatts(1500.0); }, 1, config);
    monitor.Start();
    sim.RunUntil(SimTime::FromSeconds(10));
    EXPECT_NEAR(monitor.MeasuredEnergy().value(), 15.0, 0.01);
}

TEST(MonsoonTest, StopHaltsSampling)
{
    Simulator sim;
    MonsoonMonitor monitor(&sim, [] { return Milliwatts(1.0); }, 1);
    monitor.Start();
    sim.RunUntil(SimTime::Millis(10));
    monitor.Stop();
    const uint64_t count = monitor.sample_count();
    EXPECT_EQ(count, 50u);
    sim.RunUntil(SimTime::FromSeconds(1));
    EXPECT_EQ(monitor.sample_count(), count);
    EXPECT_EQ(monitor.ObservedDuration(), SimTime::Millis(10));
}

/**
 * The per-sample meter the batch sampler replaced, kept as the reference:
 * one PeriodicTask event per sample, each consulting the injector, reading
 * the power and drawing its noise at its own instant.
 */
class EagerReferenceMeter {
  public:
    EagerReferenceMeter(Simulator* sim,
                        std::function<Milliwatts()> power_source,
                        uint64_t rng_seed, MonsoonConfig config)
        : sim_(sim),
          power_source_(std::move(power_source)),
          rng_(rng_seed),
          config_(config),
          task_(sim, [this] { TakeSample(); })
    {
    }

    void
    SetFaultInjector(FaultInjector* injector)
    {
        injector_ = injector;
    }

    void
    Start()
    {
        Stop();
        start_time_ = sim_->Now();
        last_sample_time_ = start_time_;
        task_.Start(SimTime::FromSecondsF(1.0 / config_.sample_hz));
    }

    void Stop() { task_.Stop(); }

    uint64_t sample_count() const { return sample_count_; }
    uint64_t dropped_sample_count() const { return dropped_sample_count_; }

    Milliwatts
    MeasuredAveragePower() const
    {
        if (sample_count_ == 0) {
            return Milliwatts(0.0);
        }
        return Milliwatts(power_sum_mw_ / static_cast<double>(sample_count_));
    }

    Milliwatts
    DrainWindowAveragePower()
    {
        if (window_count_ == 0) {
            return MeasuredAveragePower();
        }
        const Milliwatts avg(window_sum_mw_ /
                             static_cast<double>(window_count_));
        window_sum_mw_ = 0.0;
        window_count_ = 0;
        return avg;
    }

    SimTime ObservedDuration() const { return last_sample_time_ - start_time_; }

  private:
    void
    TakeSample()
    {
        if (injector_ != nullptr && !injector_->OnRead(fault_query_).ok()) {
            ++dropped_sample_count_;
            return;
        }
        const double measured_mw =
            power_source_().value() *
            (1.0 + rng_.Gaussian(0.0, config_.noise_rel_stddev));
        power_sum_mw_ += measured_mw;
        ++sample_count_;
        window_sum_mw_ += measured_mw;
        ++window_count_;
        last_sample_time_ = sim_->Now();
    }

    Simulator* sim_;
    std::function<Milliwatts()> power_source_;
    Rng rng_;
    MonsoonConfig config_;
    PeriodicTask task_;
    FaultInjector* injector_ = nullptr;
    FaultInjector::PathQuery fault_query_{kMonsoonFaultPath};
    SimTime start_time_;
    SimTime last_sample_time_;
    double power_sum_mw_ = 0.0;
    uint64_t sample_count_ = 0;
    double window_sum_mw_ = 0.0;
    uint64_t window_count_ = 0;
    uint64_t dropped_sample_count_ = 0;
};

/** Everything a meter run can be compared on. */
struct MeterOutcome {
    uint64_t samples = 0;
    uint64_t dropped = 0;
    uint64_t average_bits = 0;
    std::vector<uint64_t> drain_bits;
    SimTime observed;
    uint64_t injector_ops = 0;
    std::vector<FaultEvent> injector_trace;
};

/**
 * Runs @p Meter on a seeded script: a power step function, sysfs reads and
 * meter-rule toggles on the meter's own injector, and window drains, both
 * from events (many of them exactly on sample instants) and from between
 * RunUntil calls at random deadlines.
 */
template <typename Meter>
class MeterRig {
  public:
    explicit MeterRig(uint64_t seed) : script_(seed), injector_(seed ^ 0x5eed)
    {
        FaultRule sysfs_rule;
        sysfs_rule.path_prefix = "/sys/fake/cpufreq";
        sysfs_rule.fail_probability = 0.3;
        injector_.AddRule(sysfs_rule);
        ToggleMeterRule();

        MonsoonConfig config;
        config.noise_rel_stddev = 0.01;
        meter_ = std::make_unique<Meter>(
            &sim_, [this] { return Milliwatts(power_mw_); }, seed, config);
        meter_->SetFaultInjector(&injector_);
    }

    MeterOutcome
    Run()
    {
        ScheduleStep();
        meter_->Start();
        ScheduleStep();
        for (int segment = 0; segment < 60; ++segment) {
            if (script_.Bernoulli(0.3)) {
                Drain();
            }
            // Deadlines on and off the 200 us sample grid.
            sim_.RunUntil(sim_.Now() +
                          SimTime::Micros(script_.Bernoulli(0.5)
                                              ? 200 * script_.UniformInt(1, 40)
                                              : script_.UniformInt(1, 9000)));
        }
        MeterOutcome out;
        out.samples = meter_->sample_count();
        out.dropped = meter_->dropped_sample_count();
        out.average_bits =
            std::bit_cast<uint64_t>(meter_->MeasuredAveragePower().value());
        out.drain_bits = drains_;
        out.observed = meter_->ObservedDuration();
        out.injector_ops = injector_.op_count();
        out.injector_trace = injector_.trace();
        return out;
    }

  private:
    /** One scripted device event; each schedules its successor. */
    void
    Step()
    {
        const int64_t kind = script_.UniformInt(0, 3);
        if (kind == 0) {
            power_mw_ = script_.Uniform(200.0, 4000.0);
        } else if (kind == 1) {
            injector_.OnRead("/sys/fake/cpufreq/scaling_cur_freq");
        } else if (kind == 2) {
            Drain();
        } else {
            ToggleMeterRule();
        }
        ScheduleStep();
    }

    void
    ScheduleStep()
    {
        // Half the steps land exactly on a sample instant (a multiple of
        // 200 us), some of them on the very next one.
        const int64_t now_us = sim_.Now().micros();
        const SimTime when =
            script_.Bernoulli(0.5)
                ? SimTime::Micros((now_us / 200 + script_.UniformInt(0, 8)) *
                                  200)
                : SimTime::Micros(now_us + script_.UniformInt(0, 3000));
        sim_.ScheduleAt(std::max(when, sim_.Now()), [this] { Step(); });
    }

    void
    Drain()
    {
        drains_.push_back(
            std::bit_cast<uint64_t>(meter_->DrainWindowAveragePower().value()));
    }

    void
    ToggleMeterRule()
    {
        if (meter_rule_ >= 0) {
            injector_.RemoveRule(meter_rule_);
            meter_rule_ = -1;
            return;
        }
        FaultRule drop;
        drop.path_prefix = kMonsoonFaultPath;
        drop.fail_probability = 0.25;
        drop.errc = FaultErrc::kIo;
        meter_rule_ = injector_.AddRule(drop);
    }

    Rng script_;
    Simulator sim_;
    FaultInjector injector_;
    double power_mw_ = 1000.0;
    int meter_rule_ = -1;
    std::unique_ptr<Meter> meter_;
    std::vector<uint64_t> drains_;
};

TEST(MonsoonTest, BatchedSamplingMatchesPerSampleReference)
{
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        const MeterOutcome expected = MeterRig<EagerReferenceMeter>(seed).Run();
        const MeterOutcome actual = MeterRig<MonsoonMonitor>(seed).Run();
        EXPECT_EQ(actual.samples, expected.samples) << "seed " << seed;
        EXPECT_EQ(actual.dropped, expected.dropped) << "seed " << seed;
        EXPECT_EQ(actual.average_bits, expected.average_bits)
            << "seed " << seed;
        EXPECT_EQ(actual.drain_bits, expected.drain_bits) << "seed " << seed;
        EXPECT_EQ(actual.observed, expected.observed) << "seed " << seed;
        EXPECT_EQ(actual.injector_ops, expected.injector_ops)
            << "seed " << seed;
        EXPECT_EQ(actual.injector_trace, expected.injector_trace)
            << "seed " << seed;
        // The script exercised drops, drains and the sysfs rule.
        EXPECT_GT(expected.dropped, 0u);
        EXPECT_GT(expected.drain_bits.size(), 20u);
        EXPECT_GT(expected.injector_ops, expected.samples);
    }
}

}  // namespace
}  // namespace aeo
