#include "sim/simulator.h"

#include "common/logging.h"

namespace aeo {

void
Simulator::RunUntil(SimTime deadline)
{
    AEO_ASSERT(deadline >= now_, "deadline in the past");
    stop_requested_ = false;
    SimTime next;
    while (!stop_requested_ && queue_.NextTimeIfAny(&next) &&
           next <= deadline) {
        now_ = next;
        queue_.RunNext();
    }
    if (!stop_requested_) {
        queue_.DeliverSamplerTicksThrough(deadline);
        now_ = deadline;
    }
}

}  // namespace aeo
