/**
 * @file
 * The simulation executive: owns the clock and the event queue and runs
 * events in time order until a stop condition.
 */
#ifndef AEO_SIM_SIMULATOR_H_
#define AEO_SIM_SIMULATOR_H_

#include <utility>

#include "common/logging.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace aeo {

/** Event-driven simulation executive. */
class Simulator {
  public:
    Simulator() = default;

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /** Current simulated time. */
    SimTime Now() const { return now_; }

    /** Schedules @p fn after @p delay (≥ 0) from now. */
    template <typename F>
    EventId
    ScheduleAfter(SimTime delay, F&& fn)
    {
        AEO_ASSERT(delay >= SimTime::Zero(), "negative delay %lld us",
                   static_cast<long long>(delay.micros()));
        return queue_.Schedule(now_ + delay, std::forward<F>(fn));
    }

    /** Schedules @p fn at absolute time @p when (≥ now). */
    template <typename F>
    EventId
    ScheduleAt(SimTime when, F&& fn)
    {
        AEO_ASSERT(when >= now_, "scheduling in the past: %lld < %lld",
                   static_cast<long long>(when.micros()),
                   static_cast<long long>(now_.micros()));
        return queue_.Schedule(when, std::forward<F>(fn));
    }

    /**
     * Starts the lazy sampler series: a tick every @p period (> 0), first
     * one period from now, delivered to @p fn in batches just before each
     * real dispatch and at the end of an unstopped run, in the order a
     * PeriodicTask would have fired them (EventQueue::StartSampler
     * states the ordering contract and what @p fn may not do). Ticks are
     * not events: executed_events() does not count them.
     */
    void
    StartSampler(SimTime period, SamplerFn fn, void* context)
    {
        queue_.StartSampler(now_ + period, period, fn, context);
    }

    /** Stops the sampler series; owed ticks not yet delivered are dropped. */
    void StopSampler() { queue_.StopSampler(); }

    /** Cancels a pending event; see EventQueue::Cancel. */
    bool Cancel(EventId id) { return queue_.Cancel(id); }

    /**
     * Runs events until simulated time reaches @p deadline, Stop() is called,
     * or the queue drains. The clock is left at min(deadline, stop time).
     * Unless stopped, the sampler ticks up to and including @p deadline are
     * delivered before it returns.
     */
    void RunUntil(SimTime deadline);

    /** Runs for @p duration from the current time. */
    void RunFor(SimTime duration) { RunUntil(now_ + duration); }

    /** Requests that the run loop return after the current event. */
    void Stop() { stop_requested_ = true; }

    /** True if Stop() ended the last run before its deadline. */
    bool stopped() const { return stop_requested_; }

    /** Events executed since construction (sampler ticks excluded). */
    uint64_t executed_events() const { return queue_.executed_count(); }

  private:
    EventQueue queue_;
    SimTime now_;
    bool stop_requested_ = false;
};

}  // namespace aeo

#endif  // AEO_SIM_SIMULATOR_H_
