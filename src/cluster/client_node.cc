#include "cluster/client_node.h"

#include <algorithm>
#include <array>

#include "common/check.h"
#include "common/log.h"
#include "net/clock.h"
#include "net/message.h"
#include "telemetry/export.h"
#include "telemetry/scrape.h"

namespace finelb::cluster {
namespace {
constexpr std::uint64_t kServiceTag = 0;
constexpr std::uint64_t kManagerTag = 1;
constexpr std::uint64_t kBroadcastTag = 2;
constexpr std::uint64_t kPollTag = 3;
constexpr std::uint32_t kSubscribeTtlMs = 5000;

// Encodes a fixed-size message onto the stack and sends it; no heap
// traffic, unlike msg.encode() which materialises a vector per send.
template <class Msg, class Send>
bool send_fixed(const Msg& msg, Send&& send) {
  std::array<std::uint8_t, net::kMaxFixedMsgSize> buf;
  const std::size_t n = msg.encode_into(buf);
  return send(std::span<const std::uint8_t>(buf.data(), n));
}

core::DispatcherConfig dispatcher_config(const ClientOptions& options) {
  core::DispatcherConfig config;
  config.policy = options.policy;
  config.endpoints = options.servers.size();
  config.max_poll_wait = options.max_poll_wait;
  config.blacklist_cooldown = options.blacklist_cooldown;
  config.blacklist_after = options.blacklist_after;
  config.max_retries = options.max_access_retries;
  // The trace key (ClientNode::request_key): client id << 40 | access index.
  config.decision_key_base = static_cast<std::uint64_t>(options.id) << 40;
  return config;
}
}  // namespace

void ClientStats::merge(const ClientStats& other) {
  response_ms.merge(other.response_ms);
  response_hist_ms.merge(other.response_hist_ms);
  poll_time_ms.merge(other.poll_time_ms);
  poll_rtt_ms.merge(other.poll_rtt_ms);
  queue_at_arrival.merge(other.queue_at_arrival);
  issued += other.issued;
  completed += other.completed;
  recorded += other.recorded;
  polls_sent += other.polls_sent;
  poll_replies_used += other.poll_replies_used;
  polls_discarded += other.polls_discarded;
  polls_timed_out += other.polls_timed_out;
  manager_timeouts += other.manager_timeouts;
  response_timeouts += other.response_timeouts;
  send_failures += other.send_failures;
  broadcasts_received += other.broadcasts_received;
  fallback_dispatches += other.fallback_dispatches;
  access_retries += other.access_retries;
  blacklist_insertions += other.blacklist_insertions;
  blacklist_hits += other.blacklist_hits;
  mapping_refreshes += other.mapping_refreshes;
  refresh_failures += other.refresh_failures;
  snapshot_retries += other.snapshot_retries;
  directory_failovers += other.directory_failovers;
  directory_redirects += other.directory_redirects;
  if (timeline.size() < other.timeline.size()) {
    timeline.resize(other.timeline.size());
  }
  for (std::size_t i = 0; i < other.timeline.size(); ++i) {
    timeline[i].completed += other.timeline[i].completed;
    timeline[i].failed += other.timeline[i].failed;
    timeline[i].sum_response_ms += other.timeline[i].sum_response_ms;
  }
}

ClientNode::ClientNode(ClientOptions options,
                       std::unique_ptr<RequestSource> source)
    : options_(std::move(options)),
      source_(std::move(source)),
      dispatcher_(dispatcher_config(options_), Rng(options_.seed)),
      refresh_rng_(options_.seed + 1),
      trace_(options_.trace_capacity == 0 ? 1 : options_.trace_capacity,
             options_.trace_sample_period),
      decision_ring_(
          options_.decision_capacity == 0 ? 1 : options_.decision_capacity,
          options_.decision_sample_period) {
  FINELB_CHECK(!options_.servers.empty(), "client needs at least one server");
  FINELB_CHECK(options_.total_requests > 0, "nothing to do");
  FINELB_CHECK(source_ != nullptr, "client needs a request source");
  if (options_.policy.kind == PolicyKind::kIdeal) {
    FINELB_CHECK(options_.ideal_manager.has_value(),
                 "ideal policy requires a load-index manager address");
  }
  if (options_.policy.kind == PolicyKind::kBroadcast) {
    FINELB_CHECK(options_.broadcast_channel.has_value(),
                 "broadcast policy requires a broadcast channel address");
  }

  m_issued_ = metrics_.counter("requests_issued");
  m_completed_ = metrics_.counter("requests_completed");
  m_polls_sent_ = metrics_.counter("polls_sent");
  m_polls_discarded_ = metrics_.counter("polls_discarded");
  m_polls_timed_out_ = metrics_.counter("polls_timed_out");
  m_fallback_dispatches_ = metrics_.counter("fallback_dispatches");
  m_response_timeouts_ = metrics_.counter("response_timeouts");
  m_send_failures_ = metrics_.counter("send_failures");
  m_blacklist_insertions_ = metrics_.counter("blacklist_insertions");
  m_blacklist_hits_ = metrics_.counter("blacklist_hits");
  m_poll_rtt_ms_ = metrics_.histogram("poll_rtt_ms");
  m_response_time_ms_ = metrics_.histogram("response_time_ms");
  m_poll_time_ms_ = metrics_.histogram("poll_time_ms");
  // In-flight depth as a plain gauge (issued - resolved), not a probe into
  // the event loop's vectors: probes run on the scraping thread, and the
  // round/outstanding containers are loop-private. Counter subtraction keeps
  // the scrape race-free.
  metrics_.probe("requests_in_flight", [this] {
    return m_in_flight_.load(std::memory_order_relaxed);
  });

  service_socket_.set_buffer_sizes(1 << 21);
  service_socket_.attach_fault_injector(options_.fault);
  poller_.add(service_socket_.fd(), kServiceTag);

  poll_socket_.set_buffer_sizes(1 << 21);
  poll_socket_.attach_fault_injector(options_.fault);
  poller_.add(poll_socket_.fd(), kPollTag);
  poll_send_batch_ =
      net::DatagramBatch(options_.servers.size(), net::kMaxFixedMsgSize);

  if ((options_.directory || !options_.directory_replicas.empty()) &&
      options_.mapping_refresh > 0) {
    std::vector<net::Address> replicas = options_.directory_replicas;
    if (replicas.empty()) replicas.push_back(*options_.directory);
    directory_client_ = std::make_unique<DirectoryClient>(
        std::move(replicas), options_.seed + 77);
    directory_client_->attach_fault_injector(options_.fault);
    mapping_refresh_interval_ = options_.mapping_refresh;
  }

  if (options_.ideal_manager) {
    manager_socket_ = std::make_unique<net::UdpSocket>();
    manager_socket_->connect(*options_.ideal_manager);
    poller_.add(manager_socket_->fd(), kManagerTag);
  }

  if (options_.broadcast_channel) {
    broadcast_socket_ = std::make_unique<net::UdpSocket>();
    broadcast_socket_->set_buffer_sizes(1 << 21);
    broadcast_socket_->connect(*options_.broadcast_channel);
    poller_.add(broadcast_socket_->fd(), kBroadcastTag);
    net::Subscribe subscribe;
    subscribe.ttl_ms = kSubscribeTtlMs;
    if (!send_fixed(subscribe, [&](auto p) { return broadcast_socket_->send(p); })) {
      ++stats_.send_failures;
    }
    subscribe_refresh_at_ =
        net::monotonic_now() +
        static_cast<SimDuration>(kSubscribeTtlMs / 2) * kMillisecond;
  }
}

void ClientNode::run() {
  TraceRecord pending = source_->next();
  run_started_at_ = net::monotonic_now();
  SimTime next_arrival = run_started_at_ + pending.arrival_interval;
  next_mapping_refresh_ = run_started_at_ + mapping_refresh_interval_;

  while (resolved_ < options_.total_requests) {
    SimTime now = net::monotonic_now();

    // Re-pull the service mapping so endpoints whose soft state expired
    // stop receiving work (failure hardening; off unless configured).
    if (directory_client_ && now >= next_mapping_refresh_) {
      refresh_mapping(now);
      now = net::monotonic_now();
    }

    // Keep the broadcast-channel subscription alive (soft state).
    if (broadcast_socket_ && now >= subscribe_refresh_at_) {
      net::Subscribe subscribe;
      subscribe.ttl_ms = kSubscribeTtlMs;
      if (!send_fixed(subscribe,
                      [&](auto p) { return broadcast_socket_->send(p); })) {
        ++stats_.send_failures;
      }
      subscribe_refresh_at_ =
          now + static_cast<SimDuration>(kSubscribeTtlMs / 2) * kMillisecond;
    }

    // Fire due arrivals (possibly several if the loop fell behind).
    while (stats_.issued < options_.total_requests && next_arrival <= now) {
      core::Access access;
      access.index = stats_.issued++;
      access.started_at = now;
      access.service_time = pending.service_time;
      begin_access(access);
      pending = source_->next();
      next_arrival += pending.arrival_interval;
      now = net::monotonic_now();
    }

    fire_deadlines(now);
    sync_blacklist_counters();

    // Wait for the earliest of: next arrival, any round/response deadline.
    const SimTime deadline =
        next_deadline(stats_.issued < options_.total_requests
                          ? next_arrival
                          : core::kNoDeadline);
    const SimDuration wait = std::clamp<SimDuration>(
        deadline - net::monotonic_now(), 0, 100 * kMillisecond);
    for (const net::Ready& ready : poller_.wait(wait)) {
      if (!ready.readable && !ready.error) continue;
      if (ready.tag == kServiceTag) {
        drain_service_socket();
      } else if (ready.tag == kManagerTag) {
        drain_manager_socket();
      } else if (ready.tag == kBroadcastTag) {
        drain_broadcast_socket();
      } else if (ready.tag == kPollTag) {
        drain_poll_socket();
      }
    }
  }
  sync_blacklist_counters();
}

void ClientNode::refresh_mapping(SimTime now) {
  ++stats_.mapping_refreshes;
  // Non-throwing fetch: a refresh that straddles a directory election (or
  // outage) must degrade to the stale-but-recent mapping we already hold,
  // not tear down the whole client.
  auto fetched = directory_client_->try_fetch(options_.directory_service,
                                              /*timeout=*/200 * kMillisecond);
  if (!fetched) {
    ++stats_.refresh_failures;
    // Directory outage: back off (with jitter) instead of hammering it —
    // doubled interval, capped at 8x the configured period.
    mapping_refresh_interval_ = std::min<SimDuration>(
        mapping_refresh_interval_ * 2, options_.mapping_refresh * 8);
  } else {
    mapping_refresh_interval_ = options_.mapping_refresh;
    live_scratch_.clear();
    for (const ServiceEndpoint& entry : *fetched) {
      const std::size_t i = index_of(entry.server);
      if (i < options_.servers.size()) {
        live_scratch_.push_back(static_cast<ServerId>(i));
      }
    }
    dispatcher_.set_live(live_scratch_);
  }
  stats_.snapshot_retries = directory_client_->snapshot_retries();
  stats_.directory_failovers = directory_client_->failovers();
  stats_.directory_redirects = directory_client_->redirects_followed();
  const double jitter = refresh_rng_.uniform(0.75, 1.25);
  next_mapping_refresh_ =
      now + static_cast<SimDuration>(
                static_cast<double>(mapping_refresh_interval_) * jitter);
}

void ClientNode::sync_blacklist_counters() {
  const auto sync = [](std::int64_t total, std::int64_t& seen,
                       telemetry::Counter& counter) {
    if (total > seen) counter.add(total - seen);
    seen = total;
  };
  sync(dispatcher_.blacklist_hits(), stats_.blacklist_hits, m_blacklist_hits_);
  sync(dispatcher_.blacklist_insertions(), stats_.blacklist_insertions,
       m_blacklist_insertions_);
}

void ClientNode::record_outcome(SimTime now, bool completed,
                                double response_ms) {
  if (options_.timeline_bucket <= 0) return;
  const auto bucket = static_cast<std::size_t>(
      std::max<SimTime>(now - run_started_at_, 0) / options_.timeline_bucket);
  if (stats_.timeline.size() <= bucket) stats_.timeline.resize(bucket + 1);
  if (completed) {
    ++stats_.timeline[bucket].completed;
    stats_.timeline[bucket].sum_response_ms += response_ms;
  } else {
    ++stats_.timeline[bucket].failed;
  }
}

void ClientNode::begin_access(const core::Access& access) {
  m_issued_.inc();
  m_in_flight_.fetch_add(1, std::memory_order_relaxed);
  if (trace_.sampled(static_cast<std::uint64_t>(access.index))) {
    trace_.record(request_key(access.index),
                  telemetry::TracePoint::kClientEnqueue, /*node=*/-1,
                  access.started_at, access.service_time / kMicrosecond);
  }
  // The decision lands in the audit ring keyed by the same request id as
  // the trace records, so the post-run join can look up what happened to it.
  DecisionSink* sink =
      decision_ring_.sampled(static_cast<std::uint64_t>(access.index))
          ? decision_ring_.sink()
          : nullptr;
  const core::Action action =
      dispatcher_.arrive(access, access.started_at, sink);
  switch (action.kind) {
    case core::Action::Kind::kDispatch:
      dispatch(access, static_cast<std::size_t>(action.decision.target));
      break;
    case core::Action::Kind::kPoll:
      send_polls(action);
      break;
    case core::Action::Kind::kAskOracle:
      ask_manager(access);
      break;
  }
}

void ClientNode::send_polls(const core::Action& action) {
  const core::Access& access = action.decision.access;
  net::LoadInquiry inquiry;
  inquiry.seq = action.round;
  const bool traced = trace_.sampled(static_cast<std::uint64_t>(access.index));
  if (traced) {
    // Propagate the trace context: the server answers a traced inquiry with
    // a kLoadReplied record under the same id, pinning t_reply on its clock.
    inquiry.trace_id = request_key(access.index);
    inquiry.origin_ns = access.started_at;
  }
  std::array<std::uint8_t, net::kMaxFixedMsgSize> buf;
  const std::size_t n = inquiry.encode_into(buf);
  const std::span<const std::uint8_t> payload(buf.data(), n);
  poll_send_batch_.clear();
  for (const ServerId target : action.targets) {
    poll_send_batch_.append(
        payload, options_.servers[static_cast<std::size_t>(target)].load_addr);
  }
  const auto sent =
      static_cast<std::int64_t>(poll_socket_.send_batch(poll_send_batch_));
  const auto failed =
      static_cast<std::int64_t>(poll_send_batch_.size()) - sent;
  stats_.polls_sent += sent;
  m_polls_sent_.add(sent);
  stats_.send_failures += failed;
  m_send_failures_.add(failed);
  if (traced) {
    trace_.record(request_key(access.index),
                  telemetry::TracePoint::kPollSent, /*node=*/-1,
                  access.started_at,
                  static_cast<std::int64_t>(action.targets.size()));
  }
}

void ClientNode::ask_manager(const core::Access& access) {
  net::Acquire acquire;
  acquire.seq = next_manager_seq_++;
  if (!send_fixed(acquire,
                  [&](auto p) { return manager_socket_->send(p); })) {
    ++stats_.send_failures;
    ++stats_.manager_timeouts;
    dispatch_decided(access,
                     static_cast<std::size_t>(
                         dispatcher_.fallback(access.started_at)),
                     /*manager_acquired=*/false, access.started_at);
    return;
  }
  manager_rounds_.push_back(
      {acquire.seq, access, access.started_at + options_.manager_timeout});
}

void ClientNode::finish_poll_round(const core::Decision& decision,
                                   SimTime now) {
  if (decision.blind) {
    ++stats_.fallback_dispatches;
    m_fallback_dispatches_.inc();
  } else {
    stats_.poll_replies_used += static_cast<std::int64_t>(decision.replies);
  }
  const core::Access& access = decision.access;
  if (trace_.sampled(static_cast<std::uint64_t>(access.index))) {
    trace_.record(request_key(access.index),
                  telemetry::TracePoint::kServerPick,
                  static_cast<std::int32_t>(decision.target), now,
                  static_cast<std::int64_t>(decision.replies));
  }
  dispatch_decided(access, static_cast<std::size_t>(decision.target),
                   /*manager_acquired=*/false, now);
}

void ClientNode::dispatch_decided(const core::Access& access,
                                  std::size_t server_index,
                                  bool manager_acquired, SimTime now) {
  if (should_record(access)) {
    const double ms = to_ms(now - access.started_at);
    stats_.poll_time_ms.add(ms);
    m_poll_time_ms_.record(ms);
  }
  dispatch(access, server_index, manager_acquired);
}

void ClientNode::dispatch(const core::Access& access, std::size_t server_index,
                          bool manager_acquired) {
  net::ServiceRequest request;
  request.request_id = request_key(access.index);
  request.service_us =
      static_cast<std::uint32_t>(access.service_time / kMicrosecond);
  request.partition = 0;
  const auto dest = options_.servers[server_index].service_addr;
  if (trace_.sampled(static_cast<std::uint64_t>(access.index))) {
    const SimTime now = net::monotonic_now();
    // Propagated context: the server traces kServiceStart/kResponse under
    // the same id regardless of its own sampling period.
    request.trace_id = request_key(access.index);
    request.origin_ns = now;
    trace_.record(request_key(access.index), telemetry::TracePoint::kDispatch,
                  static_cast<std::int32_t>(server_index), now,
                  access.attempt);
  }
  if (!send_fixed(request,
                  [&](auto p) { return service_socket_.send_to(p, dest); })) {
    ++stats_.send_failures;
    m_send_failures_.inc();
    ++stats_.response_timeouts;  // counts as a failed access
    m_response_timeouts_.inc();
    ++resolved_;
    m_in_flight_.fetch_sub(1, std::memory_order_relaxed);
    record_outcome(net::monotonic_now(), /*completed=*/false, 0.0);
    if (manager_acquired) {
      release_manager_slot(options_.servers[server_index].id);
    }
    return;
  }
  outstanding_.push_back({request_key(access.index), access, server_index,
                          net::monotonic_now() + options_.response_timeout,
                          manager_acquired});
}

void ClientNode::drain_service_socket() {
  // A short batch means the socket is empty; skip the confirming call.
  std::size_t received = 0;
  do {
    received = service_socket_.recv_batch(recv_batch_);
    for (std::size_t d = 0; d < received; ++d) {
      net::ServiceResponse response;
      if (!net::ServiceResponse::try_decode(recv_batch_.payload(d),
                                            response)) {
        // The service socket doubles as the decision-scrape endpoint:
        // clients own no load socket, so DECISION_INQUIRY pulls land here.
        net::DecisionInquiry inquiry;
        if (net::DecisionInquiry::try_decode(recv_batch_.payload(d),
                                             inquiry) &&
            !telemetry::answer_ring_inquiry(
                service_socket_, recv_batch_.address(d), options_.id,
                inquiry, decision_ring_.snapshot())) {
          ++stats_.send_failures;
          m_send_failures_.inc();
        }
        continue;
      }
      std::size_t idx = outstanding_.size();
      for (std::size_t i = 0; i < outstanding_.size(); ++i) {
        if (outstanding_[i].request_id == response.request_id) {
          idx = i;
          break;
        }
      }
      if (idx == outstanding_.size()) continue;  // answered after timeout
      const Outstanding& out = outstanding_[idx];
      const SimTime now = net::monotonic_now();
      const double rt_ms = to_ms(now - out.access.started_at);
      if (should_record(out.access)) {
        stats_.response_ms.add(rt_ms);
        stats_.response_hist_ms.add(rt_ms);
        stats_.queue_at_arrival.add(response.queue_at_arrival);
        ++stats_.recorded;
        m_response_time_ms_.record(rt_ms);
      }
      if (trace_.sampled(static_cast<std::uint64_t>(out.access.index))) {
        trace_.record(request_key(out.access.index),
                      telemetry::TracePoint::kResponse,
                      static_cast<std::int32_t>(out.server_index), now,
                      response.queue_at_arrival);
      }
      record_outcome(now, /*completed=*/true, rt_ms);
      dispatcher_.response(static_cast<ServerId>(out.server_index));
      ++stats_.completed;
      m_completed_.inc();
      ++resolved_;
      m_in_flight_.fetch_sub(1, std::memory_order_relaxed);
      if (out.manager_acquired) {
        release_manager_slot(options_.servers[out.server_index].id);
      }
      outstanding_[idx] = outstanding_.back();
      outstanding_.pop_back();
    }
  } while (received == recv_batch_.capacity());
}

void ClientNode::drain_manager_socket() {
  std::array<std::uint8_t, 64> buf{};
  while (auto size = manager_socket_->recv(buf)) {
    net::AcquireReply reply;
    if (!net::AcquireReply::try_decode(std::span(buf.data(), *size), reply)) {
      continue;
    }
    std::size_t idx = manager_rounds_.size();
    for (std::size_t i = 0; i < manager_rounds_.size(); ++i) {
      if (manager_rounds_[i].seq == reply.seq) {
        idx = i;
        break;
      }
    }
    if (idx == manager_rounds_.size()) continue;  // fallback already taken
    const core::Access access = manager_rounds_[idx].access;
    manager_rounds_[idx] = manager_rounds_.back();
    manager_rounds_.pop_back();
    const SimTime now = net::monotonic_now();
    const std::size_t index = index_of(reply.server);
    if (index == options_.servers.size()) {
      FINELB_LOG(kWarn, "client") << "manager chose unknown server "
                                  << reply.server;
      // The manager counted the access against the server it named: hand
      // that slot back now, since the access goes elsewhere unacquired.
      release_manager_slot(reply.server);
      dispatch_decided(access,
                       static_cast<std::size_t>(dispatcher_.fallback(now)),
                       /*manager_acquired=*/false, now);
      continue;
    }
    dispatch_decided(access, index, /*manager_acquired=*/true, now);
  }
}

void ClientNode::drain_broadcast_socket() {
  std::array<std::uint8_t, 64> buf{};
  while (auto size = broadcast_socket_->recv(buf)) {
    net::LoadAnnounce announcement;
    if (!net::LoadAnnounce::try_decode(std::span(buf.data(), *size),
                                       announcement)) {
      continue;
    }
    const std::size_t i = index_of(announcement.server);
    if (i == options_.servers.size()) continue;
    dispatcher_.announce({static_cast<ServerId>(i), announcement.queue_length,
                          net::monotonic_now()});
    ++stats_.broadcasts_received;
  }
}

std::size_t ClientNode::index_of(ServerId id) const {
  std::size_t i = 0;
  while (i < options_.servers.size() && options_.servers[i].id != id) ++i;
  return i;
}

std::size_t ClientNode::endpoint_of(const net::Address& from) const {
  std::size_t i = 0;
  while (i < options_.servers.size() && options_.servers[i].load_addr != from) {
    ++i;
  }
  return i;
}

void ClientNode::drain_poll_socket() {
  std::size_t received = 0;
  do {
    received = poll_socket_.recv_batch(recv_batch_);
    for (std::size_t d = 0; d < received; ++d) {
      const std::size_t server_index = endpoint_of(recv_batch_.address(d));
      if (server_index == options_.servers.size()) continue;  // not polled
      net::LoadReply reply;
      if (!net::LoadReply::try_decode(recv_batch_.payload(d), reply)) {
        continue;
      }
      const SimTime now = net::monotonic_now();
      core::Decision decision;
      const core::ReplyOutcome outcome = dispatcher_.poll_reply(
          reply.seq,
          {static_cast<ServerId>(server_index), reply.queue_length, now}, now,
          decision);
      if (outcome == core::ReplyOutcome::kDiscarded) {
        ++stats_.polls_discarded;  // reply arrived after the round was decided
        m_polls_discarded_.inc();
        // The owning round is gone, but the reply echoes its trace id, so a
        // traced request's late replies still land under the right key
        // (untraced rounds fall back to sequence-sampled discards).
        if (reply.trace_id != 0 ? trace_.active()
                                : trace_.sampled(reply.seq)) {
          trace_.record(reply.trace_id != 0 ? reply.trace_id : reply.seq,
                        telemetry::TracePoint::kPollDiscard,
                        static_cast<std::int32_t>(server_index), now,
                        reply.queue_length);
        }
        continue;
      }
      const core::Access& access = decision.access;
      if (should_record(access)) {
        const double rtt_ms = to_ms(now - access.started_at);
        stats_.poll_rtt_ms.add(rtt_ms);
        m_poll_rtt_ms_.record(rtt_ms);
      }
      if (trace_.sampled(static_cast<std::uint64_t>(access.index))) {
        trace_.record(request_key(access.index),
                      telemetry::TracePoint::kPollReply,
                      static_cast<std::int32_t>(server_index), now,
                      reply.queue_length);
      }
      if (outcome == core::ReplyOutcome::kDecided) {
        finish_poll_round(decision, now);
      }
    }
  } while (received == recv_batch_.capacity());
}

void ClientNode::fire_deadlines(SimTime now) {
  // Poll rounds past their deadline: decide with whatever arrived.
  while (const auto decision = dispatcher_.expire(now)) {
    ++stats_.polls_timed_out;
    m_polls_timed_out_.inc();
    finish_poll_round(*decision, now);
  }
  // The two scans swap-remove while iterating: on removal the back element
  // lands at the current index and is re-examined, so the index only
  // advances when the current entry survives.

  // Manager rounds past their deadline: fall back to a random candidate.
  for (std::size_t i = 0; i < manager_rounds_.size();) {
    if (manager_rounds_[i].deadline <= now) {
      const core::Access access = manager_rounds_[i].access;
      manager_rounds_[i] = manager_rounds_.back();
      manager_rounds_.pop_back();
      ++stats_.manager_timeouts;
      dispatch_decided(access,
                       static_cast<std::size_t>(dispatcher_.fallback(now)),
                       /*manager_acquired=*/false, now);
    } else {
      ++i;
    }
  }
  // Accesses the servers never answered. A manager-granted slot must be
  // handed back even though the access failed, or the IDEAL manager's
  // queue counts would drift upward forever.
  for (std::size_t i = 0; i < outstanding_.size();) {
    if (outstanding_[i].deadline <= now) {
      const std::size_t server_index = outstanding_[i].server_index;
      const bool manager_acquired = outstanding_[i].manager_acquired;
      core::Access access = outstanding_[i].access;
      outstanding_[i] = outstanding_.back();
      outstanding_.pop_back();
      if (manager_acquired) {
        release_manager_slot(options_.servers[server_index].id);
      }
      if (dispatcher_.timeout(static_cast<ServerId>(server_index),
                              access.attempt, now)) {
        // Re-dispatch to a fresh candidate (the failing server may just
        // have been blacklisted). started_at is kept, so a retried access's
        // response time honestly includes the timeout it waited through;
        // the request id is reused, so a late answer from the first attempt
        // still completes the access. The retry appends to outstanding_
        // with a future deadline, so this scan skips it if it swaps into
        // reach.
        ++access.attempt;
        ++stats_.access_retries;
        dispatch(access, static_cast<std::size_t>(dispatcher_.fallback(now)));
      } else {
        record_outcome(now, /*completed=*/false, 0.0);
        ++stats_.response_timeouts;
        m_response_timeouts_.inc();
        ++resolved_;
        m_in_flight_.fetch_sub(1, std::memory_order_relaxed);
      }
    } else {
      ++i;
    }
  }
}

void ClientNode::release_manager_slot(ServerId server) {
  net::Release release;
  release.server = server;
  if (!send_fixed(release, [&](auto p) { return manager_socket_->send(p); })) {
    ++stats_.send_failures;
  }
}

std::string ClientNode::stats_json() const {
  return telemetry::to_json(
      metrics_.snapshot("client." + std::to_string(options_.id)),
      trace_.snapshot());
}

SimTime ClientNode::next_deadline(SimTime next_arrival) const {
  SimTime earliest = std::min(next_arrival, dispatcher_.next_deadline());
  for (const ManagerRound& round : manager_rounds_) {
    earliest = std::min(earliest, round.deadline);
  }
  for (const Outstanding& out : outstanding_) {
    earliest = std::min(earliest, out.deadline);
  }
  return earliest;
}

}  // namespace finelb::cluster
