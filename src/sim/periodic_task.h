/**
 * @file
 * A periodic callback bound to a Simulator — used for governor sampling
 * timers and thermal polling.
 *
 * This is the simulator's one periodic timer (DESIGN.md §14). The event
 * queue holds one-shots only: each firing first re-arms the next
 * occurrence as a fresh one-shot, then runs the callback. The re-arm takes
 * the slot the firing one-shot just freed, so steady-state firing
 * allocates nothing, and it consumes the next seq before the callback can
 * schedule anything, so an event the callback schedules at the next
 * occurrence's instant fires after that occurrence. Because the next
 * occurrence is already armed, a callback that calls Stop() (or Start(),
 * to change the period) on its own task cancels it exactly, through the
 * queue's generation-tagged ids.
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
    /** One occurrence: arms the next, then runs the callback. */
    void Fire();

    Simulator* sim_;
    std::function<void()> fn_;
    SimTime period_;
    /** The armed next occurrence. */
    EventId next_ = kInvalidEventId;
    bool running_ = false;
};

}  // namespace aeo

#endif  // AEO_SIM_PERIODIC_TASK_H_
