/**
 * @file
 * A periodic callback bound to a Simulator — used for governor sampling
 * timers and thermal polling.
 *
 * Since the event core grew first-class repeating events (DESIGN.md §14)
 * this is a thin veneer over Simulator::ScheduleEvery: the series re-arms
 * its own slab record in place, so steady-state firing allocates nothing.
 * The old restart-while-firing guarantees are now provided by the queue's
 * generation-tagged ids — cancelling the series from inside the callback
 * (Stop(), or Start() to change the period) invalidates the already-armed
 * next occurrence exactly.
 */
#ifndef AEO_SIM_PERIODIC_TASK_H_
#define AEO_SIM_PERIODIC_TASK_H_

#include <functional>

#include "sim/simulator.h"
#include "sim/time.h"

namespace aeo {

/**
 * Invokes a callback every @c period once started; restartable with a new
 * period. The callback may call Stop() on its own task.
 */
class PeriodicTask {
  public:
    /**
     * @param sim The owning simulator; must outlive this task.
     * @param fn  The callback to run each period.
     */
    PeriodicTask(Simulator* sim, std::function<void()> fn);

    ~PeriodicTask();

    PeriodicTask(const PeriodicTask&) = delete;
    PeriodicTask& operator=(const PeriodicTask&) = delete;

    /**
     * Starts (or restarts) firing every @p period; the first firing happens
     * one period from now.
     */
    void Start(SimTime period);

    /** Stops firing; a pending occurrence is cancelled. */
    void Stop();

    /** True while the task is scheduled. */
    bool running() const { return running_; }

    /** Current period (valid while running). */
    SimTime period() const { return period_; }

  private:
    Simulator* sim_;
    std::function<void()> fn_;
    SimTime period_;
    EventId series_ = kInvalidEventId;
    bool running_ = false;
};

}  // namespace aeo

#endif  // AEO_SIM_PERIODIC_TASK_H_
