// Shared check for the node lifecycle tests: how long stop() takes on an
// idle node whose loop is blocked waiting for work.
#pragma once

#include <algorithm>
#include <limits>

#include "common/time.h"
#include "net/clock.h"

namespace finelb::cluster {

/// Starts three fresh nodes from `make` (returning a unique_ptr), stops
/// each 5 ms after start(), and returns the fastest stop(). The minimum
/// filters out a run descheduled by a busy host.
template <class Make>
SimDuration fastest_idle_stop(Make make) {
  SimDuration fastest = std::numeric_limits<SimDuration>::max();
  for (int i = 0; i < 3; ++i) {
    auto node = make();
    node->start();
    net::sleep_for(5 * kMillisecond);
    const SimTime before = net::monotonic_now();
    node->stop();
    fastest = std::min(fastest, net::monotonic_now() - before);
  }
  return fastest;
}

}  // namespace finelb::cluster
