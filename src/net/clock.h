// Monotonic wall-clock helpers for the prototype runtime.
//
// All prototype timing uses CLOCK_MONOTONIC nanoseconds represented as
// SimTime, so response times measured in the prototype and in the simulator
// share units and statistics code. `sleep_until` does an absolute-deadline
// clock_nanosleep.
#pragma once

#include "common/time.h"

namespace finelb::net {

/// Current CLOCK_MONOTONIC time in nanoseconds.
SimTime monotonic_now();

/// Sleeps until the absolute CLOCK_MONOTONIC deadline (TIMER_ABSTIME, so a
/// preemption before the syscall cannot stretch the total duration). Returns
/// immediately if the deadline already passed. Retries on EINTR.
void sleep_until(SimTime deadline);

/// Convenience: sleep_until(monotonic_now() + d) for d > 0.
void sleep_for(SimDuration d);

}  // namespace finelb::net
