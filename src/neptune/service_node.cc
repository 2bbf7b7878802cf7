#include "neptune/service_node.h"

#include <array>

#include "common/check.h"
#include "common/log.h"
#include "net/clock.h"
#include "net/message.h"
#include "net/poller.h"
#include "telemetry/export.h"
#include "telemetry/scrape.h"

namespace finelb::neptune {

ServiceNode::ServiceNode(ServiceNodeOptions options)
    : options_(std::move(options)) {
  FINELB_CHECK(!options_.service_name.empty(), "service needs a name");
  FINELB_CHECK(!options_.partitions.empty(),
               "service node must host at least one partition");
  FINELB_CHECK(options_.worker_threads >= 1, "need at least one worker");
  service_socket_.set_buffer_sizes(1 << 21);
  load_socket_.set_buffer_sizes(1 << 20);
  m_served_ = metrics_.counter("requests_served");
  m_app_errors_ = metrics_.counter("app_errors");
  m_stats_scrapes_ = metrics_.counter("stats_scrapes");
  m_send_failures_ = metrics_.counter("send_failures");
  m_handler_time_ms_ = metrics_.histogram("service_time_ms");
  metrics_.probe("queue_depth",
                 [this] { return qlen_.load(std::memory_order_relaxed); });
}

ServiceNode::~ServiceNode() { stop(); }

void ServiceNode::register_method(std::uint16_t method,
                                  MethodHandler handler) {
  FINELB_CHECK(!started_, "register_method must precede start()");
  FINELB_CHECK(handler != nullptr, "handler must be callable");
  FINELB_CHECK(methods_.emplace(method, std::move(handler)).second,
               "method already registered");
}

void ServiceNode::enable_publishing(const net::Address& directory,
                                    SimDuration interval, SimDuration ttl) {
  FINELB_CHECK(!started_, "enable_publishing must precede start()");
  FINELB_CHECK(interval > 0 && ttl > 0, "publish interval and ttl required");
  publish_enabled_ = true;
  directory_ = directory;
  publish_interval_ = interval;
  publish_ttl_ = ttl;
}

void ServiceNode::start() {
  FINELB_CHECK(!started_, "service nodes are single-shot: already started");
  FINELB_CHECK(!methods_.empty(), "no methods registered");
  started_ = true;
  running_.store(true);
  threads_.emplace_back([this] { service_recv_loop(); });
  threads_.emplace_back([this] { load_recv_loop(); });
  for (int i = 0; i < options_.worker_threads; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
  if (publish_enabled_) {
    threads_.emplace_back([this] { publish_loop(); });
  }
}

void ServiceNode::stop() {
  if (!running_.exchange(false)) return;
  waker_.wake();
  queue_.close();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

net::Address ServiceNode::service_address() const {
  return service_socket_.local_address();
}

net::Address ServiceNode::load_address() const {
  return load_socket_.local_address();
}

void ServiceNode::service_recv_loop() {
  net::Poller poller;
  poller.add(service_socket_.fd(), 0);
  // After stop() the wait returns at once, the empty drain below is
  // harmless, and the loop condition then exits.
  poller.add(waker_.fd(), 1);
  const std::span<std::uint8_t> buf = net::thread_scratch(64 * 1024);
  while (running_.load(std::memory_order_relaxed)) {
    if (poller.wait(50 * kMillisecond).empty()) continue;
    while (auto dgram = service_socket_.recv_from(buf)) {
      WorkItem item;
      if (!RpcRequest::try_decode(std::span(buf.data(), dgram->size),
                                  item.request)) {
        FINELB_LOG(kWarn, "neptune") << "dropping malformed RPC datagram";
        continue;
      }
      item.reply_to = dgram->from;
      item.queue_at_arrival = qlen_.fetch_add(1, std::memory_order_relaxed);
      queue_.push(std::move(item));
    }
  }
}

void ServiceNode::load_recv_loop() {
  net::Poller poller;
  poller.add(load_socket_.fd(), 0);
  poller.add(waker_.fd(), 1);  // as in service_recv_loop
  // Inquiries arrive in bursts (each polling client fans out d at once):
  // drain and answer them batched, encoding replies straight into the
  // send batch's slots.
  net::DatagramBatch inquiries(32, 64);
  net::DatagramBatch replies(32, 64);
  while (running_.load(std::memory_order_relaxed)) {
    if (poller.wait(50 * kMillisecond).empty()) continue;
    // A short batch means the socket is empty; skip the confirming call.
    std::size_t received = 0;
    do {
      received = load_socket_.recv_batch(inquiries);
      replies.clear();
      for (std::size_t i = 0; i < received; ++i) {
        net::LoadInquiry inquiry;
        if (!net::LoadInquiry::try_decode(inquiries.payload(i), inquiry)) {
          // Not a load inquiry: the observability pull channel shares this
          // socket, so check for a stats or trace scrape before dropping
          // (cold paths — answering allocates, which is fine off the
          // polling fast path).
          net::StatsInquiry stats;
          if (net::StatsInquiry::try_decode(inquiries.payload(i), stats)) {
            m_stats_scrapes_.inc();
            if (!telemetry::answer_stats_inquiry(load_socket_,
                                                 inquiries.address(i),
                                                 stats.seq, stats_json())) {
              m_send_failures_.inc();
            }
            continue;
          }
          // Neptune nodes keep no trace ring; answer with an empty reply so
          // scrapers still get the clock probe (server_ns) and terminate.
          net::TraceInquiry trace_inquiry;
          if (net::TraceInquiry::try_decode(inquiries.payload(i),
                                            trace_inquiry) &&
              !telemetry::answer_ring_inquiry(load_socket_,
                                              inquiries.address(i),
                                              options_.id, trace_inquiry,
                                              {})) {
            m_send_failures_.inc();
          }
          continue;
        }
        net::LoadReply reply;
        reply.seq = inquiry.seq;
        reply.queue_length = qlen_.load(std::memory_order_relaxed);
        // Echo the trace context and stamp the reply-time clock so traced
        // polls against Neptune nodes stay mergeable/alignable too.
        reply.trace_id = inquiry.trace_id;
        reply.origin_ns = inquiry.origin_ns;
        reply.server_ns = net::monotonic_now();
        const auto slot = replies.stage();
        if (const std::size_t n = reply.encode_into(slot); n > 0) {
          replies.commit(n, inquiries.address(i));
        } else {
          // Batch full: answer this one immediately off a stack buffer.
          std::array<std::uint8_t, net::kMaxFixedMsgSize> buf;
          const std::size_t len = reply.encode_into(buf);
          load_socket_.send_to({buf.data(), len}, inquiries.address(i));
        }
      }
      load_socket_.send_batch(replies);
    } while (received == inquiries.capacity());
  }
}

std::string ServiceNode::stats_json() const {
  return telemetry::to_json(metrics_.snapshot(
      "neptune." + options_.service_name + "." + std::to_string(options_.id)));
}

RpcResponse ServiceNode::execute(const WorkItem& item) {
  RpcResponse response;
  response.request_id = item.request.request_id;
  response.server = options_.id;
  response.queue_at_arrival = item.queue_at_arrival;
  if (!options_.partitions.count(item.request.partition)) {
    response.status = RpcStatus::kNoSuchPartition;
    return response;
  }
  const auto handler = methods_.find(item.request.method);
  if (handler == methods_.end()) {
    response.status = RpcStatus::kNoSuchMethod;
    return response;
  }
  try {
    response.result =
        handler->second(item.request.partition, item.request.args);
    response.status = RpcStatus::kOk;
  } catch (const std::exception& e) {
    FINELB_LOG(kWarn, "neptune")
        << options_.service_name << " method " << item.request.method
        << " failed: " << e.what();
    response.status = RpcStatus::kAppError;
    app_errors_.fetch_add(1, std::memory_order_relaxed);
    m_app_errors_.inc();
  }
  return response;
}

void ServiceNode::worker_loop() {
  while (true) {
    auto item = queue_.pop();
    if (!item) return;
    const SimTime start = net::monotonic_now();
    const RpcResponse response = execute(*item);
    m_handler_time_ms_.record(
        static_cast<double>(net::monotonic_now() - start) / 1e6);
    // Encode through the worker's thread-local scratch: no per-response
    // heap vector, whatever the result payload size.
    const std::span<std::uint8_t> out =
        net::thread_scratch(response.encoded_size());
    // n == 0: the handler's result outgrew the datagram limit.
    const std::size_t n = response.encode_into(out);
    if (n == 0 || !service_socket_.send_to(out.subspan(0, n), item->reply_to)) {
      m_send_failures_.inc();
    }
    qlen_.fetch_sub(1, std::memory_order_relaxed);
    // Telemetry first: anyone polling accesses_served() for completion then
    // scraping the registry sees the served count already mirrored.
    m_served_.inc();
    served_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ServiceNode::publish_loop() {
  net::UdpSocket publish_socket;
  // One announcement per hosted partition, as the paper's nodes publish
  // "the service type, the data partitions it hosts, and the access
  // interface".
  std::vector<std::vector<std::uint8_t>> payloads;
  for (const std::uint32_t partition : options_.partitions) {
    net::Publish announcement;
    announcement.service = options_.service_name;
    announcement.partition = partition;
    announcement.server = options_.id;
    announcement.service_port = service_address().port;
    announcement.load_port = load_address().port;
    announcement.ttl_ms = static_cast<std::uint32_t>(to_ms(publish_ttl_));
    payloads.push_back(announcement.encode());
  }
  net::Poller poller;
  poller.add(waker_.fd(), 0);
  while (running_.load(std::memory_order_relaxed)) {
    for (const auto& payload : payloads) {
      publish_socket.send_to(payload, directory_);
    }
    // Sleep to the exact deadline; stop() ends the wait at once.
    const SimTime next = net::monotonic_now() + publish_interval_;
    for (SimTime now = net::monotonic_now();
         now < next && running_.load(std::memory_order_relaxed);
         now = net::monotonic_now()) {
      poller.wait(next - now);
    }
  }
}

}  // namespace finelb::neptune
