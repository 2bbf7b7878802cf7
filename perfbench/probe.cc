#include "probe.h"

#include <sys/resource.h>

#include <string>
#include <utility>

#include "common/check.h"
#include "common/time.h"
#include "net/clock.h"

namespace perfbench {
namespace {

using finelb::DistributionPtr;
using finelb::Rng;

double tv_sec(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

/// Passes `inner`'s samples through, reporting each one as an arrival draw.
class ProbedArrival final : public finelb::Distribution {
 public:
  ProbedArrival(DistributionPtr inner, std::shared_ptr<IssueRecorder> rec)
      : inner_(std::move(inner)), rec_(std::move(rec)) {}

  double sample(Rng& rng) const override {
    const double x = inner_->sample(rng);
    rec_->on_arrival_draw(&rng, x);
    return x;
  }
  double mean() const override { return inner_->mean(); }
  double stddev() const override { return inner_->stddev(); }
  std::string describe() const override { return inner_->describe(); }

 private:
  DistributionPtr inner_;
  std::shared_ptr<IssueRecorder> rec_;
};

/// Replays a trace through the distribution interface. The workload's
/// source draws the arrival then the service of one request from the same
/// Rng, so both halves find the stream's cursor by that Rng's address.
class TraceReplay {
 public:
  TraceReplay(const finelb::Trace& trace, std::shared_ptr<IssueRecorder> rec)
      : stats(trace.stats()), records_(trace.records()), rec_(std::move(rec)) {
    FINELB_CHECK(!records_.empty(), "cannot replay an empty trace");
  }

  double arrival(Rng& rng) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t s = stream(rng);
    const double x =
        finelb::to_sec(records_[cursors_[s]].arrival_interval);
    rec_->on_arrival_draw(&rng, x);
    return x;
  }

  double service(Rng& rng) {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::size_t& cursor = cursors_[stream(rng)];
    const double x = finelb::to_sec(records_[cursor].service_time);
    cursor = (cursor + 1) % records_.size();
    return x;
  }

  const finelb::TraceStats stats;  // moments in ms

 private:
  std::size_t stream(Rng& rng) {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] == &rng) return i;
    }
    keys_.push_back(&rng);
    cursors_.push_back(rng.uniform_int(records_.size()));
    return keys_.size() - 1;
  }

  const std::vector<finelb::TraceRecord> records_;
  std::shared_ptr<IssueRecorder> rec_;
  std::mutex mutex_;
  std::vector<const Rng*> keys_;
  std::vector<std::size_t> cursors_;
};

class ReplayHalf final : public finelb::Distribution {
 public:
  ReplayHalf(std::shared_ptr<TraceReplay> replay, bool arrival)
      : replay_(std::move(replay)), arrival_(arrival) {}

  double sample(Rng& rng) const override {
    return arrival_ ? replay_->arrival(rng) : replay_->service(rng);
  }
  double mean() const override {
    return (arrival_ ? replay_->stats.arrival_mean_ms
                     : replay_->stats.service_mean_ms) / 1e3;
  }
  double stddev() const override {
    return (arrival_ ? replay_->stats.arrival_stddev_ms
                     : replay_->stats.service_stddev_ms) / 1e3;
  }
  std::string describe() const override {
    return arrival_ ? "trace-replay:arrival" : "trace-replay:service";
  }

 private:
  std::shared_ptr<TraceReplay> replay_;
  bool arrival_;
};

}  // namespace

double process_cpu_sec() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return tv_sec(ru.ru_utime) + tv_sec(ru.ru_stime);
}

void IssueRecorder::arm(double arrival_scale, std::int64_t draws_per_stream,
                        int streams) {
  const std::lock_guard<std::mutex> lock(mutex_);
  scale_ = arrival_scale;
  draws_per_stream_ = draws_per_stream;
  expected_streams_ = streams;
  keys_.clear();
  draws_.clear();
  streams_done_ = 0;
  window_ = Window{};
  cpu_start_sec_ = 0.0;
}

void IssueRecorder::on_arrival_draw(const Rng* stream, double sample_sec) {
  const std::int64_t now = finelb::net::monotonic_now();
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t s = 0;
  while (s < keys_.size() && keys_[s] != stream) ++s;
  if (s == keys_.size()) {
    if (keys_.empty()) {
      window_.first_draw_ns = now;
      cpu_start_sec_ = process_cpu_sec();
    }
    keys_.push_back(stream);
    draws_.emplace_back();
    draws_.back().at_ns.reserve(static_cast<std::size_t>(draws_per_stream_));
    draws_.back().interval_ns.reserve(
        static_cast<std::size_t>(draws_per_stream_));
  }
  StreamDraws& d = draws_[s];
  d.at_ns.push_back(now);
  // The same conversion the distribution source applies, so due times
  // match the client's schedule to the nanosecond.
  d.interval_ns.push_back(finelb::from_sec(sample_sec * scale_));
  if (static_cast<std::int64_t>(d.at_ns.size()) == draws_per_stream_ &&
      ++streams_done_ == expected_streams_) {
    window_.last_draw_ns = now;
    window_.cpu_sec = process_cpu_sec() - cpu_start_sec_;
    window_.closed = true;
  }
}

std::vector<StreamDraws> IssueRecorder::streams() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return draws_;
}

Window IssueRecorder::window() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return window_;
}

finelb::Workload probed_workload(std::string name, DistributionPtr arrival,
                                 DistributionPtr service,
                                 std::shared_ptr<IssueRecorder> recorder) {
  return finelb::Workload::from_distributions(
      std::move(name),
      std::make_shared<ProbedArrival>(std::move(arrival), std::move(recorder)),
      std::move(service));
}

finelb::Workload probed_workload(const finelb::Trace& trace,
                                 std::shared_ptr<IssueRecorder> recorder) {
  auto replay = std::make_shared<TraceReplay>(trace, std::move(recorder));
  return finelb::Workload::from_distributions(
      trace.name(), std::make_shared<ReplayHalf>(replay, true),
      std::make_shared<ReplayHalf>(replay, false));
}

}  // namespace perfbench
