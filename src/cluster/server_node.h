// Prototype server node (paper §3.1, Figure 5 right half).
//
// Each server node owns:
//   * a service access point — a UDP socket receiving ServiceRequest
//     datagrams, feeding a FIFO request queue served by `worker_threads`
//     service slots (default 1, matching the simulator's non-preemptive
//     processing unit);
//   * a load-index server — a second UDP socket answering LoadInquiry
//     datagrams with the node's current queue length;
//   * an optional publisher that announces the node on the service
//     availability channel as refreshed soft state.
//
// All of it runs on one thread: a single ppoll loop watches both sockets
// and a stop waker (net/waker.h). Service is emulated as a timed
// occupancy, so a busy slot is just an absolute deadline; the loop sleeps
// until the earliest slot deadline, delayed busy reply, publish or
// broadcast, and answers whatever arrived in between. No request crosses a
// thread, and stop() wakes the loop instead of waiting out a poll slice.
//
// The queue model is core::ServerCore (core/server_core.h), the one the
// simulator drives too: its FIFO, its service units and its queue length
// ("total number of active service accesses", queued plus in service). The
// node accepts a request into it when the datagram is decoded and finishes
// the request's unit after its response is sent. The node keeps the rest:
// sockets, slot deadlines, tracing, the busy-reply delay model and
// telemetry, and an atomic mirror of the queue length for readers on other
// threads.
//
// Busy-reply delay model: on the paper's cluster, a server whose CPUs were
// saturated by service work answered UDP load inquiries late (§3.2: 8.1% of
// polls over 1 ms and 5.6% over 2 ms at 90% load, yet a ~2.6 ms *mean*
// polling time — i.e. the slow polls were rare but timeslice-scale slow,
// tens of milliseconds on 2.2-era Linux). Our service slots do not spin
// (single-CPU host, DESIGN.md §3), so the load-index server would
// always answer instantly; to preserve the phenomenon the load-index server
// injects a two-part delay whenever the node has active accesses:
//   * with probability busy_slow_prob, a scheduler-stall delay of
//     busy_slow_min + Exp(busy_slow_excess), capped at busy_slow_cap
//     (defaults 5%, 8 ms + Exp(8 ms), cap 40 ms);
//   * otherwise a short Pareto(busy_reply_alpha, busy_reply_xm) network/
//     stack tail capped at busy_reply_cap (defaults 1.3, 80 us, cap 2 ms).
// The defaults land on the paper's measured profile (~8% over 1 ms, ~5%
// over 2 ms, poll-round mean in the low milliseconds). Disable via
// ServerOptions::inject_busy_reply_delay for a clean-network ablation.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "core/load_index.h"
#include "core/server_core.h"
#include "fault/fault.h"
#include "net/message.h"
#include "net/socket.h"
#include "net/waker.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace finelb::cluster {

struct ServerOptions {
  ServerId id = 0;
  /// Concurrent service slots; 1 mirrors the simulator's single
  /// processing unit. (The slots share the node's one thread: service is a
  /// timed occupancy, not computation.)
  int worker_threads = 1;

  bool inject_busy_reply_delay = true;
  // Short tail (network stack / softirq): Pareto(alpha, x_m), capped.
  double busy_reply_alpha = 1.3;
  SimDuration busy_reply_xm = from_us(80);
  SimDuration busy_reply_cap = from_ms(2);
  // Rare scheduler stall: min + Exp(excess), capped.
  double busy_slow_prob = 0.05;
  SimDuration busy_slow_min = from_ms(8);
  SimDuration busy_slow_excess = from_ms(8);
  SimDuration busy_slow_cap = from_ms(40);

  /// Fault injector attached to the service and load-index sockets
  /// (loss/dup/delay per fault/fault.h). Null = no injection.
  std::shared_ptr<fault::FaultInjector> fault;

  /// Lifecycle tracing: every Nth request (by request id) leaves
  /// kServiceStart/kResponse records in the node's trace ring; 0 = off.
  /// Requests and load inquiries carrying a wire `trace_id` were sampled by
  /// the issuing client and are recorded under that id whenever the ring is
  /// live, regardless of this period. The ring is served to scrapers in
  /// chunks via TRACE_INQUIRY on the load socket (telemetry/scrape.h).
  std::uint32_t trace_sample_period = 0;
  std::size_t trace_capacity = 256;

  std::uint64_t seed = 1;
};

struct ServerCounters {
  std::int64_t requests_served = 0;
  std::int64_t inquiries_answered = 0;
  std::int32_t max_queue_length = 0;
  std::int64_t send_failures = 0;
};

class ServerNode {
 public:
  explicit ServerNode(ServerOptions options);
  ~ServerNode();

  ServerNode(const ServerNode&) = delete;
  ServerNode& operator=(const ServerNode&) = delete;

  /// Starts the node's event-loop thread. Idempotent-hostile: call
  /// exactly once.
  void start();

  /// Wakes and joins the event loop. Requests still queued or in service
  /// are abandoned unanswered, as on a crash.
  void stop();

  /// Begins periodic soft-state announcements to the availability channel.
  /// Must be called before start().
  void enable_publishing(const net::Address& directory, std::string service,
                         std::uint32_t partition, SimDuration interval,
                         SimDuration ttl);

  /// Replicated-directory variant: announce to *every* replica each round.
  /// Publishing to all replicas (rather than just the leader) is what lets
  /// directory failover skip log replication — every replica's soft-state
  /// table converges independently within one refresh interval
  /// (DESIGN.md §12). Must be called before start().
  void enable_publishing(std::vector<net::Address> directories,
                         std::string service, std::uint32_t partition,
                         SimDuration interval, SimDuration ttl);

  /// Begins periodic load announcements on a broadcast channel — the
  /// server-side half of the §2.2 broadcast policy (prototype extension;
  /// the paper only simulated it). Intervals are jittered over
  /// [0.5, 1.5] x mean unless `jitter` is false (self-synchronization
  /// ablation). Must be called before start().
  void enable_load_broadcast(const net::Address& channel,
                             SimDuration mean_interval, bool jitter = true);

  ServerId id() const { return options_.id; }
  net::Address service_address() const;
  net::Address load_address() const;

  /// Current load index (active accesses).
  std::int32_t queue_length() const {
    return qlen_.load(std::memory_order_relaxed);
  }

  ServerCounters counters() const;

  /// Telemetry registry (metric naming: DESIGN.md §10). Scraping via
  /// metrics().snapshot() is safe while the node is running.
  const telemetry::Registry& metrics() const { return metrics_; }
  const telemetry::TraceRing& trace() const { return trace_; }

  /// The node's snapshot (+ sampled trace) as JSON — what a STATS_INQUIRY
  /// on the load socket answers with.
  std::string stats_json() const;

 private:
  /// A request in core_; once a unit starts it, the unit is occupied
  /// from `start` until `deadline`.
  struct WorkItem {
    net::ServiceRequest request;
    net::Address reply_to;
    SimTime enqueued_at = 0;
    bool traced = false;
    SimTime start = 0;
    SimTime deadline = 0;
  };

  /// A load reply held back by the busy-reply delay model until `due`.
  /// Delays must not be served by sleeping inline: concurrent inquiries
  /// would queue behind one another and the delays would compound far
  /// beyond the modelled distribution.
  struct DelayedReply {
    std::uint64_t seq;
    std::uint64_t trace_id;
    std::int64_t origin_ns;
    net::Address to;
    SimTime due;
  };

  void run_loop();
  /// How long the loop may sleep: until the earliest slot deadline,
  /// delayed reply, publish or broadcast, capped at the idle slice.
  SimDuration next_wait(SimTime now) const;
  void drain_service_socket();
  void drain_load_socket();
  /// Completes due services and starts queued requests on idle units.
  void run_slots();
  void start_service(WorkItem& item);
  void finish_service(std::size_t unit);
  void send_due_replies(SimTime now);
  void send_reply(std::uint64_t seq, std::uint64_t trace_id,
                  std::int64_t origin_ns, const net::Address& to);
  void count_send_failures(std::int64_t n);
  /// Each sends one announcement and schedules the next.
  void publish(SimTime now);
  void broadcast(SimTime now);

  ServerOptions options_;
  net::UdpSocket service_socket_;
  net::UdpSocket load_socket_;
  net::UdpSocket announce_socket_;  // publishes and load broadcasts
  net::Waker waker_;

  bool started_ = false;  // single-shot lifecycle: start() once, ever
  std::atomic<bool> running_{false};
  // Mirrors of core_.queue_length() and core_.max_queue_length(), stored
  // after each change, for readers on other threads.
  std::atomic<std::int32_t> qlen_{0};
  std::atomic<std::int32_t> max_qlen_{0};
  std::atomic<std::int64_t> served_{0};
  std::atomic<std::int64_t> inquiries_{0};
  std::atomic<std::int64_t> send_failures_{0};

  // Telemetry: counters/histograms are handles into metrics_ (created once
  // in the constructor; recording is lock- and allocation-free), queue depth
  // is exposed as a probe gauge reading qlen_ at scrape time.
  telemetry::Registry metrics_;
  telemetry::TraceRing trace_;
  telemetry::Counter m_served_;
  telemetry::Counter m_inquiries_;
  telemetry::Counter m_send_failures_;
  telemetry::Counter m_stats_scrapes_;
  telemetry::Histogram m_service_time_ms_;
  telemetry::Histogram m_queue_wait_ms_;

  // Event-loop state, touched only by the loop thread.
  core::ServerCore<WorkItem> core_;
  std::vector<DelayedReply> delayed_;
  net::DatagramBatch request_batch_{32, 256};
  // Inquiry bursts arrive d-at-a-time (every polling client fans out d
  // inquiries per access): drain and answer them batched, one syscall per
  // burst in each direction.
  net::DatagramBatch inquiry_batch_{32, 64};
  net::DatagramBatch reply_batch_{32, 64};
  Rng reply_rng_;
  Rng broadcast_rng_;
  SimTime next_publish_ = 0;    // first publish: start()
  SimTime next_broadcast_ = 0;  // first broadcast: the loop's first pass

  // Publishing (optional). One target for the classic single directory,
  // several when the directory is replicated.
  bool publish_enabled_ = false;
  std::vector<net::Address> directories_;
  std::vector<std::uint8_t> publish_payload_;  // encoded once
  SimDuration publish_interval_ = 0;

  // Load broadcasting (optional, extension).
  bool broadcast_enabled_ = false;
  net::Address broadcast_channel_{};
  SimDuration broadcast_interval_ = 0;
  bool broadcast_jitter_ = true;

  std::thread thread_;  // last: the loop uses every member above
};

}  // namespace finelb::cluster
