// Open-loop lateness probe for prototype runs.
//
// cluster::ClientNode::run stamps an access's start at the instant its loop
// notices the arrival, not the instant it was due, so a stalled loop hides
// its own queueing. run_prototype builds each client's RequestSource from
// the Workload it is given, so the probe sits where the benchmark can reach
// it: in the arrival Distribution. ClientNode draws the next interval right
// after it issues an access, so the instant of draw k+1 is (an upper bound
// on) the issue instant of access k, and the sum of the first k+1 intervals
// is its due time. Streams are told apart by the Rng each source passes in.
//
// The same draws also mark the measured window: the first draw of any
// stream starts it, and the last draw of the last stream ends issuing, so
// the process CPU time between the two is the CPU the run spent issuing.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "workload/distribution.h"
#include "workload/trace.h"
#include "workload/workload.h"

namespace perfbench {

/// One client stream's draws, in order.
struct StreamDraws {
  std::vector<std::int64_t> at_ns;        // monotonic instant of each draw
  std::vector<std::int64_t> interval_ns;  // interval handed to the client
};

struct Window {
  std::int64_t first_draw_ns = 0;  // the first access is about to issue
  std::int64_t last_draw_ns = 0;   // last access issued
  double cpu_sec = 0.0;            // process user+sys CPU between the two
  bool closed = false;             // every stream reached its last draw
};

class IssueRecorder {
 public:
  /// Clears every stream before a run. `arrival_scale` must be the scale
  /// run_prototype applies to the arrival distribution; a client draws
  /// once per access plus once before its first.
  void arm(double arrival_scale, std::int64_t draws_per_stream, int streams);

  /// Records one arrival draw of `stream`.
  void on_arrival_draw(const finelb::Rng* stream, double sample_sec);

  std::vector<StreamDraws> streams() const;
  Window window() const;

 private:
  mutable std::mutex mutex_;
  double scale_ = 1.0;
  std::int64_t draws_per_stream_ = 0;
  int expected_streams_ = 0;
  std::vector<const finelb::Rng*> keys_;
  std::vector<StreamDraws> draws_;
  int streams_done_ = 0;
  Window window_;
  double cpu_start_sec_ = 0.0;
};

/// A distribution workload whose sources report their arrival draws.
finelb::Workload probed_workload(std::string name,
                                 finelb::DistributionPtr arrival,
                                 finelb::DistributionPtr service,
                                 std::shared_ptr<IssueRecorder> recorder);

/// A trace workload whose sources report their arrival draws. Each stream
/// replays the trace record by record from an offset drawn from its own Rng,
/// as the library's trace source does.
finelb::Workload probed_workload(const finelb::Trace& trace,
                                 std::shared_ptr<IssueRecorder> recorder);

/// Process user+sys CPU seconds so far.
double process_cpu_sec();

}  // namespace perfbench
