#include "cluster/server_node.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>

#include "common/check.h"
#include "common/log.h"
#include "net/clock.h"
#include "net/poller.h"
#include "telemetry/export.h"
#include "telemetry/scrape.h"

namespace finelb::cluster {
namespace {
constexpr std::uint64_t kServiceTag = 0;
constexpr std::uint64_t kLoadTag = 1;
constexpr std::uint64_t kWakeTag = 2;
// Longest sleep with nothing scheduled. It bounds how late a fault-delayed
// datagram surfaces (they only appear on a later socket touch); stop()
// does not wait for it.
constexpr SimDuration kIdleWait = 50 * kMillisecond;
}  // namespace

ServerNode::ServerNode(ServerOptions options)
    : options_(options),
      trace_(options_.trace_capacity == 0 ? 1 : options_.trace_capacity,
             options_.trace_sample_period),
      reply_rng_(options_.seed * 2654435761u + 17),
      broadcast_rng_(options_.seed * 40503u + 271) {
  FINELB_CHECK(options_.worker_threads >= 1, "need at least one worker");
  core_ = core::ServerCore<WorkItem>(
      static_cast<std::size_t>(options_.worker_threads));
  service_socket_.set_buffer_sizes(1 << 21);
  load_socket_.set_buffer_sizes(1 << 21);
  service_socket_.attach_fault_injector(options_.fault);
  load_socket_.attach_fault_injector(options_.fault);
  m_served_ = metrics_.counter("requests_served");
  m_inquiries_ = metrics_.counter("inquiries_answered");
  m_send_failures_ = metrics_.counter("send_failures");
  m_stats_scrapes_ = metrics_.counter("stats_scrapes");
  m_service_time_ms_ = metrics_.histogram("service_time_ms");
  m_queue_wait_ms_ = metrics_.histogram("queue_wait_ms");
  metrics_.probe("queue_depth",
                 [this] { return qlen_.load(std::memory_order_relaxed); });
  metrics_.probe("max_queue_depth", [this] {
    return max_qlen_.load(std::memory_order_relaxed);
  });
}

ServerNode::~ServerNode() { stop(); }

net::Address ServerNode::service_address() const {
  return service_socket_.local_address();
}

net::Address ServerNode::load_address() const {
  return load_socket_.local_address();
}

void ServerNode::enable_publishing(const net::Address& directory,
                                   std::string service,
                                   std::uint32_t partition,
                                   SimDuration interval, SimDuration ttl) {
  enable_publishing(std::vector<net::Address>{directory}, std::move(service),
                    partition, interval, ttl);
}

void ServerNode::enable_publishing(std::vector<net::Address> directories,
                                   std::string service,
                                   std::uint32_t partition,
                                   SimDuration interval, SimDuration ttl) {
  FINELB_CHECK(!running_.load(), "enable_publishing must precede start()");
  FINELB_CHECK(!directories.empty(), "need at least one directory target");
  FINELB_CHECK(interval > 0 && ttl > 0, "publish interval and ttl required");
  net::Publish announcement;
  announcement.service = std::move(service);
  announcement.partition = partition;
  announcement.server = options_.id;
  announcement.service_port = service_address().port;
  announcement.load_port = load_address().port;
  announcement.ttl_ms = static_cast<std::uint32_t>(to_ms(ttl));
  publish_enabled_ = true;
  directories_ = std::move(directories);
  publish_payload_ = announcement.encode();
  publish_interval_ = interval;
}

void ServerNode::enable_load_broadcast(const net::Address& channel,
                                       SimDuration mean_interval,
                                       bool jitter) {
  FINELB_CHECK(!started_, "enable_load_broadcast must precede start()");
  FINELB_CHECK(mean_interval > 0, "broadcast interval must be positive");
  broadcast_enabled_ = true;
  broadcast_channel_ = channel;
  broadcast_interval_ = mean_interval;
  broadcast_jitter_ = jitter;
}

void ServerNode::start() {
  FINELB_CHECK(!started_, "server nodes are single-shot: already started");
  started_ = true;
  running_.store(true);
  // First announcement from the caller's thread, before the loop exists:
  // it is queued at the directory when start() returns, so a client that
  // fetches the mapping right after starting its servers finds them all.
  if (publish_enabled_) publish(net::monotonic_now());
  thread_ = std::thread([this] { run_loop(); });
}

void ServerNode::stop() {
  if (!running_.exchange(false)) return;
  waker_.wake();
  if (thread_.joinable()) thread_.join();
}

void ServerNode::run_loop() {
  net::Poller poller;
  poller.add(service_socket_.fd(), kServiceTag);
  poller.add(load_socket_.fd(), kLoadTag);
  poller.add(waker_.fd(), kWakeTag);
  while (running_.load(std::memory_order_relaxed)) {
    bool service_ready = false;
    bool load_ready = false;
    for (const net::Ready& ready :
         poller.wait(next_wait(net::monotonic_now()))) {
      service_ready |= ready.tag == kServiceTag;
      load_ready |= ready.tag == kLoadTag;
    }
    // Service that came due while we slept finishes before new arrivals
    // count themselves into the queue or read its length.
    run_slots();
    // A socket with a fault injector is drained on every wakeup: its
    // delayed datagrams surface only when the socket is touched.
    if (service_ready || service_socket_.fault_injector()) {
      drain_service_socket();
    }
    if (load_ready || load_socket_.fault_injector()) drain_load_socket();
    run_slots();
    const SimTime now = net::monotonic_now();
    send_due_replies(now);
    if (publish_enabled_ && now >= next_publish_) publish(now);
    if (broadcast_enabled_ && now >= next_broadcast_) broadcast(now);
  }
}

SimDuration ServerNode::next_wait(SimTime now) const {
  SimTime earliest = now + kIdleWait;
  for (std::size_t unit = 0; unit < core_.units(); ++unit) {
    if (core_.busy(unit)) {
      earliest = std::min(earliest, core_.job(unit).deadline);
    }
  }
  for (const DelayedReply& d : delayed_) earliest = std::min(earliest, d.due);
  if (publish_enabled_) earliest = std::min(earliest, next_publish_);
  if (broadcast_enabled_) earliest = std::min(earliest, next_broadcast_);
  return std::max<SimDuration>(earliest - now, 0);
}

void ServerNode::drain_service_socket() {
  // Drain the burst with one recvmmsg per batch instead of one recvfrom
  // per request: under fine-grain load many arrivals pile up per wakeup.
  // A short batch means the socket is empty; skip the confirming call.
  std::size_t n = 0;
  do {
    n = service_socket_.recv_batch(request_batch_);
    for (std::size_t i = 0; i < n; ++i) {
      WorkItem item;
      if (!net::ServiceRequest::try_decode(request_batch_.payload(i),
                                           item.request)) {
        FINELB_LOG(kWarn, "server") << "dropping malformed service request";
        continue;
      }
      item.reply_to = request_batch_.address(i);
      item.enqueued_at = net::monotonic_now();
      // The load index counts the request from acceptance until its
      // response is sent (finish_service).
      core_.arrive(item);
      qlen_.store(core_.queue_length(), std::memory_order_relaxed);
      max_qlen_.store(core_.max_queue_length(), std::memory_order_relaxed);
    }
  } while (n == request_batch_.capacity());
}

void ServerNode::run_slots() {
  const SimTime now = net::monotonic_now();
  for (std::size_t unit = 0; unit < core_.units(); ++unit) {
    if (core_.busy(unit) && core_.job(unit).deadline <= now) {
      finish_service(unit);
    }
    // A zero-length service finishes at once; keep the unit turning.
    while (core_.start(unit)) {
      start_service(core_.job(unit));
      if (core_.job(unit).deadline <= net::monotonic_now()) {
        finish_service(unit);
      }
    }
  }
}

void ServerNode::start_service(WorkItem& item) {
  item.start = net::monotonic_now();
  const SimDuration queue_wait = item.start - item.enqueued_at;
  m_queue_wait_ms_.record(static_cast<double>(queue_wait) / 1e6);
  // A wire trace_id means the issuing client sampled this request: record
  // it whenever the ring is live. Requests without propagated context
  // fall back to this node's own sampling period.
  item.traced = (item.request.trace_id != 0 && trace_.active()) ||
                trace_.sampled(item.request.request_id);
  if (item.traced) {
    trace_.record(item.request.request_id,
                  telemetry::TracePoint::kServiceStart, options_.id,
                  item.start, queue_wait);
  }
  item.deadline =
      item.start +
      static_cast<SimDuration>(item.request.service_us) * kMicrosecond;
}

void ServerNode::finish_service(std::size_t unit) {
  const WorkItem& item = core_.job(unit);
  const std::int32_t queue_at_arrival = core_.queue_at_arrival(unit);
  // Count the service before its response leaves, so a client holding the
  // response can never read a served count that misses it. Telemetry
  // first: anyone polling counters() for completion then scraping the
  // registry sees the served count already mirrored.
  m_served_.inc();
  served_.fetch_add(1, std::memory_order_relaxed);
  net::ServiceResponse response;
  response.request_id = item.request.request_id;
  response.server = options_.id;
  response.queue_at_arrival = queue_at_arrival;
  response.trace_id = item.request.trace_id;
  if (item.request.trace_id != 0) {
    response.server_ns = net::monotonic_now();
  }
  std::array<std::uint8_t, net::kMaxFixedMsgSize> buf;
  const std::size_t n = response.encode_into(buf);
  if (!service_socket_.send_to({buf.data(), n}, item.reply_to)) {
    count_send_failures(1);
  }
  const SimTime done = net::monotonic_now();
  m_service_time_ms_.record(static_cast<double>(done - item.start) / 1e6);
  if (item.traced) {
    trace_.record(item.request.request_id, telemetry::TracePoint::kResponse,
                  options_.id, done, queue_at_arrival);
  }
  core_.finish(unit);
  qlen_.store(core_.queue_length(), std::memory_order_relaxed);
}

void ServerNode::send_reply(std::uint64_t seq, std::uint64_t trace_id,
                            std::int64_t origin_ns, const net::Address& to) {
  net::LoadReply reply;
  reply.seq = seq;
  // Queue length at *reply* time: the paper's slow replies carry stale
  // indexes precisely because the queue moved while they waited.
  reply.queue_length = core_.queue_length();
  reply.trace_id = trace_id;
  reply.origin_ns = origin_ns;
  reply.server_ns = net::monotonic_now();
  if (trace_id != 0 && trace_.active()) {
    trace_.record(trace_id, telemetry::TracePoint::kLoadReplied, options_.id,
                  reply.server_ns, reply.queue_length);
  }
  std::array<std::uint8_t, net::kMaxFixedMsgSize> buf;
  const std::size_t n = reply.encode_into(buf);
  if (!load_socket_.send_to({buf.data(), n}, to)) count_send_failures(1);
  inquiries_.fetch_add(1, std::memory_order_relaxed);
  m_inquiries_.inc();
}

void ServerNode::drain_load_socket() {
  std::size_t received = 0;
  do {
    received = load_socket_.recv_batch(inquiry_batch_);
    reply_batch_.clear();
    // One clock read per drained burst: every reply in the burst carries
    // the same server_ns. Bursts resolve within microseconds, well inside
    // ClockSync's RTT/2 error bound, and the fast path stays one vDSO
    // call per batch instead of one per inquiry.
    const SimTime burst_ns = net::monotonic_now();
    for (std::size_t i = 0; i < received; ++i) {
      net::LoadInquiry inquiry;
      if (!net::LoadInquiry::try_decode(inquiry_batch_.payload(i), inquiry)) {
        // Not a load inquiry: the observability pull channel shares this
        // socket, so check for a stats or trace scrape before dropping
        // (cold paths — answering allocates, which is fine off the
        // polling fast path).
        net::StatsInquiry stats;
        if (net::StatsInquiry::try_decode(inquiry_batch_.payload(i), stats)) {
          m_stats_scrapes_.inc();
          if (!telemetry::answer_stats_inquiry(load_socket_,
                                               inquiry_batch_.address(i),
                                               stats.seq, stats_json())) {
            count_send_failures(1);
          }
          continue;
        }
        net::TraceInquiry trace_inquiry;
        if (net::TraceInquiry::try_decode(inquiry_batch_.payload(i),
                                          trace_inquiry) &&
            !telemetry::answer_ring_inquiry(
                load_socket_, inquiry_batch_.address(i), options_.id,
                trace_inquiry, trace_.snapshot())) {
          count_send_failures(1);
        }
        continue;
      }
      const std::int32_t qlen = core_.queue_length();
      if (options_.inject_busy_reply_delay && qlen > 0) {
        // Scheduler-contention stand-in (see header comment): rare long
        // stall or short heavy-tailed stack delay.
        SimDuration delay = 0;
        if (reply_rng_.bernoulli(options_.busy_slow_prob)) {
          delay = std::min<SimDuration>(
              options_.busy_slow_min +
                  static_cast<SimDuration>(reply_rng_.exponential(
                      static_cast<double>(options_.busy_slow_excess))),
              options_.busy_slow_cap);
        } else {
          const double u = std::max(1.0 - reply_rng_.uniform01(), 1e-12);
          const double delay_ns =
              static_cast<double>(options_.busy_reply_xm) *
              std::pow(u, -1.0 / options_.busy_reply_alpha);
          delay = std::min(static_cast<SimDuration>(delay_ns),
                           options_.busy_reply_cap);
        }
        delayed_.push_back({inquiry.seq, inquiry.trace_id, inquiry.origin_ns,
                            inquiry_batch_.address(i),
                            net::monotonic_now() + delay});
      } else {
        // Queue length at *reply* time, as in send_reply: batching spans
        // one drained burst, so the index is at most a burst stale.
        net::LoadReply reply;
        reply.seq = inquiry.seq;
        reply.queue_length = qlen;
        reply.trace_id = inquiry.trace_id;
        reply.origin_ns = inquiry.origin_ns;
        reply.server_ns = burst_ns;
        if (inquiry.trace_id != 0 && trace_.active()) {
          trace_.record(inquiry.trace_id, telemetry::TracePoint::kLoadReplied,
                        options_.id, burst_ns, qlen);
        }
        // Encode straight into the batch slot (no intermediate vector or
        // memcpy); fall back to an immediate send when the batch is full.
        const auto slot = reply_batch_.stage();
        if (const std::size_t n = reply.encode_into(slot); n > 0) {
          reply_batch_.commit(n, inquiry_batch_.address(i));
        } else {
          send_reply(inquiry.seq, inquiry.trace_id, inquiry.origin_ns,
                     inquiry_batch_.address(i));
        }
      }
    }
    const std::size_t sent = load_socket_.send_batch(reply_batch_);
    count_send_failures(static_cast<std::int64_t>(reply_batch_.size() - sent));
    inquiries_.fetch_add(static_cast<std::int64_t>(reply_batch_.size()),
                         std::memory_order_relaxed);
    m_inquiries_.add(static_cast<std::int64_t>(reply_batch_.size()));
  } while (received == inquiry_batch_.capacity());
}

void ServerNode::send_due_replies(SimTime now) {
  for (std::size_t i = 0; i < delayed_.size();) {
    if (delayed_[i].due <= now) {
      send_reply(delayed_[i].seq, delayed_[i].trace_id, delayed_[i].origin_ns,
                 delayed_[i].to);
      delayed_[i] = delayed_.back();
      delayed_.pop_back();
    } else {
      ++i;
    }
  }
}

void ServerNode::count_send_failures(std::int64_t n) {
  if (n == 0) return;
  send_failures_.fetch_add(n, std::memory_order_relaxed);
  m_send_failures_.add(n);
}

void ServerNode::publish(SimTime now) {
  for (const net::Address& directory : directories_) {
    announce_socket_.send_to(publish_payload_, directory);
  }
  next_publish_ = now + publish_interval_;
}

void ServerNode::broadcast(SimTime now) {
  net::LoadAnnounce announcement;
  announcement.server = options_.id;
  announcement.queue_length = core_.queue_length();
  std::array<std::uint8_t, net::kMaxFixedMsgSize> buf;
  const std::size_t n = announcement.encode_into(buf);
  announce_socket_.send_to({buf.data(), n}, broadcast_channel_);
  const auto mean = static_cast<double>(broadcast_interval_);
  next_broadcast_ = now + (broadcast_jitter_
                               ? static_cast<SimDuration>(
                                     broadcast_rng_.uniform(0.5 * mean,
                                                            1.5 * mean))
                               : broadcast_interval_);
}

std::string ServerNode::stats_json() const {
  return telemetry::to_json(
      metrics_.snapshot("server." + std::to_string(options_.id)),
      trace_.snapshot());
}

ServerCounters ServerNode::counters() const {
  ServerCounters c;
  c.requests_served = served_.load();
  c.inquiries_answered = inquiries_.load();
  c.max_queue_length = max_qlen_.load();
  c.send_failures = send_failures_.load();
  return c;
}

}  // namespace finelb::cluster
