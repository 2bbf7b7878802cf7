// Workload descriptions and request sources.
//
// A `Workload` is an immutable description (distribution pair or recorded
// trace) from which any number of independent `RequestSource` streams can be
// instantiated. Sources are the only stateful part: a distribution source
// owns its RNG stream, a trace source owns its replay cursor. Arrival
// intervals can be rescaled at source-creation time, which is how one
// workload is driven at different server load levels (paper §1.1: "arrival
// intervals ... may be scaled when necessary to generate workloads at
// various demand levels").
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "common/rng.h"
#include "common/time.h"
#include "workload/distribution.h"
#include "workload/trace.h"

namespace finelb {

/// A stream of requests. next() returns the interval since the previous
/// request plus the new request's service demand.
class RequestSource {
 public:
  virtual ~RequestSource() = default;
  virtual TraceRecord next() = 0;
};

class Workload {
 public:
  /// Independent inter-arrival and service-time distributions (e.g. the
  /// paper's Poisson/Exp workload).
  static Workload from_distributions(std::string name, DistributionPtr arrival,
                                     DistributionPtr service);

  /// Replays a recorded (or synthesized) trace, looping when exhausted.
  static Workload from_trace(Trace trace);

  const std::string& name() const { return name_; }

  /// Mean service time in seconds. A trace's moments are computed on the
  /// first call and shared by every later one, from any thread.
  double mean_service_sec() const;
  /// Mean unscaled inter-arrival interval in seconds.
  double mean_interval_sec() const;

  /// Instantiates an independent request stream. `arrival_scale` multiplies
  /// every inter-arrival interval; `seed` decouples parallel streams (for a
  /// trace source it also randomizes the starting offset so multiple client
  /// streams do not replay in lockstep).
  std::unique_ptr<RequestSource> make_source(double arrival_scale,
                                             std::uint64_t seed) const;

  /// Arrival scale that drives `servers` servers at per-server utilization
  /// `rho` when all requests are spread over them: mean interval must equal
  /// mean_service / (rho * servers).
  double arrival_scale_for_load(double rho, int servers) const;

  /// True when backed by a trace (affects how experiments describe it).
  bool is_trace() const { return trace_ != nullptr; }
  /// The backing trace; requires is_trace().
  const Trace& trace() const;

 private:
  Workload() = default;

  std::string name_;
  DistributionPtr arrival_;
  DistributionPtr service_;
  std::shared_ptr<const Trace> trace_;

  /// The trace's moments, computed once on first use: copies of the
  /// workload share them, and from_trace() stays a pointer move.
  struct TraceMoments {
    std::once_flag once;
    TraceStats stats;
  };
  const TraceStats& trace_stats() const;
  std::shared_ptr<TraceMoments> moments_;
};

}  // namespace finelb
