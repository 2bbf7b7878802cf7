#include "workload/workload.h"

#include <cmath>

#include "common/check.h"

namespace finelb {
namespace {

class DistributionSource final : public RequestSource {
 public:
  DistributionSource(DistributionPtr arrival, DistributionPtr service,
                     double arrival_scale, std::uint64_t seed)
      : arrival_(std::move(arrival)),
        service_(std::move(service)),
        arrival_scale_(arrival_scale),
        rng_(seed) {}

  TraceRecord next() override {
    return {from_sec(arrival_->sample(rng_) * arrival_scale_),
            from_sec(service_->sample(rng_))};
  }

 private:
  DistributionPtr arrival_;
  DistributionPtr service_;
  double arrival_scale_;
  Rng rng_;
};

class TraceSource final : public RequestSource {
 public:
  TraceSource(std::shared_ptr<const Trace> trace, double arrival_scale,
              std::uint64_t seed)
      : trace_(std::move(trace)), arrival_scale_(arrival_scale) {
    FINELB_CHECK(!trace_->empty(), "cannot replay an empty trace");
    Rng rng(seed);
    cursor_ = rng.uniform_int(trace_->size());
  }

  TraceRecord next() override {
    const TraceRecord& r = trace_->records()[cursor_];
    cursor_ = (cursor_ + 1) % trace_->size();
    return {static_cast<SimDuration>(std::llround(
                static_cast<double>(r.arrival_interval) * arrival_scale_)),
            r.service_time};
  }

 private:
  std::shared_ptr<const Trace> trace_;
  double arrival_scale_;
  std::size_t cursor_ = 0;
};

}  // namespace

Workload Workload::from_distributions(std::string name,
                                      DistributionPtr arrival,
                                      DistributionPtr service) {
  FINELB_CHECK(arrival != nullptr && service != nullptr,
               "workload distributions must be non-null");
  Workload w;
  w.name_ = std::move(name);
  w.arrival_ = std::move(arrival);
  w.service_ = std::move(service);
  return w;
}

Workload Workload::from_trace(Trace trace) {
  FINELB_CHECK(!trace.empty(), "cannot build a workload from an empty trace");
  Workload w;
  w.name_ = trace.name();
  w.trace_ = std::make_shared<const Trace>(std::move(trace));
  w.moments_ = std::make_shared<TraceMoments>();
  return w;
}

const TraceStats& Workload::trace_stats() const {
  std::call_once(moments_->once, [this] { moments_->stats = trace_->stats(); });
  return moments_->stats;
}

double Workload::mean_service_sec() const {
  if (trace_) return trace_stats().service_mean_ms / 1e3;
  return service_->mean();
}

double Workload::mean_interval_sec() const {
  if (trace_) return trace_stats().arrival_mean_ms / 1e3;
  return arrival_->mean();
}

std::unique_ptr<RequestSource> Workload::make_source(double arrival_scale,
                                                     std::uint64_t seed) const {
  FINELB_CHECK(arrival_scale > 0.0, "arrival scale must be positive");
  if (trace_) {
    return std::make_unique<TraceSource>(trace_, arrival_scale, seed);
  }
  return std::make_unique<DistributionSource>(arrival_, service_,
                                              arrival_scale, seed);
}

double Workload::arrival_scale_for_load(double rho, int servers) const {
  FINELB_CHECK(rho > 0.0, "load level must be positive");
  FINELB_CHECK(servers >= 1, "need at least one server");
  const double desired_interval =
      mean_service_sec() / (rho * static_cast<double>(servers));
  return desired_interval / mean_interval_sec();
}

const Trace& Workload::trace() const {
  FINELB_CHECK(trace_ != nullptr, "workload is not trace-backed");
  return *trace_;
}

}  // namespace finelb
