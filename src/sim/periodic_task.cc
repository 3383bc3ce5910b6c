#include "sim/periodic_task.h"

#include <utility>

#include "common/logging.h"

namespace aeo {

PeriodicTask::PeriodicTask(Simulator* sim, std::function<void()> fn)
    : sim_(sim), fn_(std::move(fn))
{
    AEO_ASSERT(sim_ != nullptr, "PeriodicTask needs a simulator");
    AEO_ASSERT(fn_ != nullptr, "PeriodicTask needs a callback");
}

PeriodicTask::~PeriodicTask()
{
    Stop();
}

void
PeriodicTask::Start(SimTime period)
{
    AEO_ASSERT(period > SimTime::Zero(), "period must be positive");
    Stop();
    period_ = period;
    running_ = true;
    next_ = sim_->ScheduleAfter(period_, [this] { Fire(); });
}

void
PeriodicTask::Stop()
{
    if (next_ != kInvalidEventId) {
        sim_->Cancel(next_);
        next_ = kInvalidEventId;
    }
    running_ = false;
}

// aeo: hot-path
void
PeriodicTask::Fire()
{
    // Reschedule before delivering: the next occurrence takes its seq
    // before the callback can schedule anything, and is already armed
    // for a Stop() or Start() from inside the callback to cancel.
    next_ = sim_->ScheduleAfter(period_, [this] { Fire(); });
    fn_();
}

}  // namespace aeo
