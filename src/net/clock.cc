#include "net/clock.h"

#include <cerrno>
#include <ctime>

#include "common/check.h"

namespace finelb::net {

SimTime monotonic_now() {
  timespec ts{};
  if (::clock_gettime(CLOCK_MONOTONIC, &ts) != 0) {
    FINELB_THROW_ERRNO("clock_gettime(CLOCK_MONOTONIC)");
  }
  return static_cast<SimTime>(ts.tv_sec) * kSecond + ts.tv_nsec;
}

void sleep_until(SimTime deadline) {
  timespec ts{};
  ts.tv_sec = deadline / kSecond;
  ts.tv_nsec = deadline % kSecond;
  for (;;) {
    const int rc =
        ::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
    if (rc == 0) return;
    if (rc != EINTR) {
      errno = rc;
      FINELB_THROW_ERRNO("clock_nanosleep");
    }
  }
}

void sleep_for(SimDuration d) {
  if (d <= 0) return;
  sleep_until(monotonic_now() + d);
}

}  // namespace finelb::net
