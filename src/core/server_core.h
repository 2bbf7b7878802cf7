// The server queue model shared by the simulator and the prototype server.
//
// The paper's server is a FIFO queue in front of a non-preemptive
// processing unit, and its load index is "the total number of active
// service accesses" (§2, §3.1): waiting plus in service. ServerCore is that
// model, written once. Like core::Dispatcher it is pure and I/O-free: a
// driver reports that a job arrived, asks for the oldest waiting job to
// start on a free unit, and reports that a unit finished; when and why
// those happen (time, service length, sockets) is the driver's business.
// The drivers are the simulator's engine events (sim/cluster_sim.cc) and
// the prototype server's ppoll loop (cluster/server_node.cc).
//
// ServerCore owns:
//   * the FIFO: a vector read from a head index whose consumed prefix is
//     dropped in place, so its capacity is reused and steady state never
//     allocates;
//   * the N service units and which job each holds;
//   * the load index: +1 when a job is accepted, -1 when its unit finishes,
//     and its high-water mark;
//   * the queue each job found on arrival, kept with the job.
//
// Not thread-safe: one instance per server, driven from one thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace finelb::core {

template <class Job>
class ServerCore {
 public:
  explicit ServerCore(std::size_t units = 1) : units_(units) {
    FINELB_CHECK(units >= 1, "a server needs at least one service unit");
  }

  /// Accepts `job` into the FIFO; returns the queue length it found.
  std::int32_t arrive(const Job& job) {
    const std::int32_t found = queue_length_++;
    if (queue_length_ > max_queue_length_) max_queue_length_ = queue_length_;
    fifo_.push_back({job, found});
    return found;
  }

  /// Puts the oldest waiting job on `unit` if the unit is free and a job
  /// waits; returns whether it did.
  bool start(std::size_t unit) {
    Unit& u = units_[unit];
    if (u.busy || head_ == fifo_.size()) return false;
    u.entry = fifo_[head_++];
    u.busy = true;
    // Drop the consumed prefix once it is half the vector (all of it when
    // the queue empties): amortised O(1) per job, no allocation, and
    // capacity stays bounded by the longest backlog.
    if (head_ == fifo_.size()) {
      fifo_.clear();
      head_ = 0;
    } else if (2 * head_ >= fifo_.size()) {
      const std::size_t waiting = fifo_.size() - head_;
      for (std::size_t i = 0; i < waiting; ++i) fifo_[i] = fifo_[head_ + i];
      fifo_.resize(waiting);
      head_ = 0;
    }
    return true;
  }

  /// `unit` completes its job: the unit is free and the job leaves the
  /// load index.
  void finish(std::size_t unit) {
    Unit& u = units_[unit];
    FINELB_CHECK(u.busy, "finish on an idle service unit");
    u.busy = false;
    --queue_length_;
  }

  /// Drops every waiting and in-service job, as a crash does; returns how
  /// many it dropped. The high-water mark survives.
  std::int32_t clear() {
    const std::int32_t dropped = queue_length_;
    fifo_.clear();
    head_ = 0;
    for (Unit& u : units_) u.busy = false;
    queue_length_ = 0;
    return dropped;
  }

  /// The load index: waiting plus in service.
  std::int32_t queue_length() const { return queue_length_; }
  std::int32_t max_queue_length() const { return max_queue_length_; }
  std::size_t units() const { return units_.size(); }
  bool busy(std::size_t unit) const { return units_[unit].busy; }
  /// The job on `unit`; valid while the unit is busy. The driver may keep
  /// its own per-service state in it.
  Job& job(std::size_t unit) { return units_[unit].entry.job; }
  const Job& job(std::size_t unit) const { return units_[unit].entry.job; }
  /// The queue length the job on `unit` found when it arrived.
  std::int32_t queue_at_arrival(std::size_t unit) const {
    return units_[unit].entry.found;
  }

 private:
  struct Entry {
    Job job;
    std::int32_t found = 0;
  };
  struct Unit {
    bool busy = false;
    Entry entry;
  };

  std::vector<Entry> fifo_;
  std::size_t head_ = 0;  // fifo_[head_..] wait, oldest first
  std::vector<Unit> units_;
  std::int32_t queue_length_ = 0;
  std::int32_t max_queue_length_ = 0;
};

}  // namespace finelb::core
