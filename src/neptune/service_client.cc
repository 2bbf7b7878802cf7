#include "neptune/service_client.h"

#include <algorithm>
#include <array>

#include "common/check.h"
#include "net/clock.h"

namespace finelb::neptune {
namespace {

core::DispatcherConfig dispatcher_config(const ServiceClientOptions& options) {
  core::DispatcherConfig config;
  config.policy = options.policy;  // endpoints grow with the mapping
  config.max_poll_wait = options.max_poll_wait;
  config.blacklist_cooldown = options.blacklist_cooldown;
  config.max_retries = options.max_attempts - 1;
  return config;
}

}  // namespace

ServiceClient::ServiceClient(ServiceClientOptions options)
    : options_(std::move(options)),
      directory_(options_.directory),
      dispatcher_(dispatcher_config(options_), Rng(options_.seed)),
      jitter_rng_(options_.seed + 1),
      poll_send_batch_(static_cast<std::size_t>(options_.policy.poll_size),
                       net::kMaxFixedMsgSize) {
  FINELB_CHECK(!options_.service_name.empty(), "service name required");
  FINELB_CHECK(options_.max_attempts >= 1, "need at least one attempt");
  FINELB_CHECK(options_.policy.kind == PolicyKind::kRandom ||
                   options_.policy.kind == PolicyKind::kRoundRobin ||
                   options_.policy.kind == PolicyKind::kPolling,
               "service client supports random, round-robin, and polling");
  // A blocking call cannot wait out a round with no deadline.
  FINELB_CHECK(options_.policy.kind != PolicyKind::kPolling ||
                   options_.policy.discard_timeout > 0 ||
                   options_.max_poll_wait > 0,
               "polling needs a discard timeout or a max_poll_wait");
  rpc_poller_.add(rpc_socket_.fd(), 0);
  poll_poller_.add(poll_socket_.fd(), 0);
  refresh_mapping(/*force=*/true);
}

void ServiceClient::refresh_mapping(bool force) {
  const SimTime now = net::monotonic_now();
  if (!force && now - mapping_fetched_at_ < options_.mapping_refresh) return;
  // Backoff gate: after a failed fetch, even forced refreshes wait it out.
  // Every retry path funnels through here, so this is what bounds the
  // retry rate against a struggling directory.
  if (now < refresh_backoff_until_) return;
  const auto snapshot = directory_.try_fetch(options_.service_name);
  if (!snapshot) {
    // Directory unreachable: keep the stale table (stale beats empty) and
    // back off exponentially with jitter, capped at 8x the refresh period.
    ++stats_.refresh_failures;
    refresh_backoff_ =
        refresh_backoff_ > 0
            ? std::min<SimDuration>(refresh_backoff_ * 2,
                                    options_.mapping_refresh * 8)
            : std::max<SimDuration>(options_.mapping_refresh / 4,
                                    50 * kMillisecond);
    refresh_backoff_until_ =
        now + static_cast<SimDuration>(static_cast<double>(refresh_backoff_) *
                                       jitter_rng_.uniform(0.75, 1.25));
    return;
  }
  refresh_backoff_ = 0;
  refresh_backoff_until_ = 0;
  mapping_.clear();
  for (const auto& endpoint : *snapshot) {
    mapping_[endpoint.partition].push_back(endpoint_index(endpoint));
  }
  dispatcher_.grow(endpoints_.size());
  mapping_fetched_at_ = now;
  ++stats_.mapping_refreshes;
}

ServerId ServiceClient::endpoint_index(
    const cluster::ServiceEndpoint& endpoint) {
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    if (endpoints_[i].server == endpoint.server) {
      endpoints_[i] = endpoint;  // a restarted server may have moved
      return static_cast<ServerId>(i);
    }
  }
  endpoints_.push_back(endpoint);
  return static_cast<ServerId>(endpoints_.size() - 1);
}

std::size_t ServiceClient::replicas(std::uint32_t partition) {
  refresh_mapping(/*force=*/false);
  const auto it = mapping_.find(partition);
  return it == mapping_.end() ? 0 : it->second.size();
}

ServerId ServiceClient::choose(const std::vector<ServerId>& group,
                               int attempt) {
  if (group.size() == 1) return group.front();  // nothing to choose
  const SimTime now = net::monotonic_now();
  dispatcher_.set_live(group);
  core::Access access;
  access.index = stats_.calls;
  access.started_at = now;
  access.attempt = attempt;
  const core::Action action = dispatcher_.arrive(access, now);
  return action.kind == core::Action::Kind::kPoll ? poll(action)
                                                  : action.decision.target;
}

ServerId ServiceClient::poll(const core::Action& action) {
  net::LoadInquiry inquiry;
  inquiry.seq = action.round;
  std::array<std::uint8_t, net::kMaxFixedMsgSize> buf;
  const std::span<const std::uint8_t> payload(buf.data(),
                                              inquiry.encode_into(buf));
  poll_send_batch_.clear();
  for (const ServerId target : action.targets) {
    poll_send_batch_.append(
        payload, endpoints_[static_cast<std::size_t>(target)].load_addr);
  }
  const std::size_t sent = poll_socket_.send_batch(poll_send_batch_);
  stats_.polls_sent += static_cast<std::int64_t>(sent);

  // Collect replies until the round is decided or its deadline passes. A
  // reply is matched to its endpoint by source address and to the round by
  // seq; stale replies from earlier calls come back discarded.
  SimTime now = net::monotonic_now();
  while (sent > 0 && now < action.deadline) {
    poll_poller_.wait(action.deadline - now);
    std::size_t received = 0;
    do {
      received = poll_socket_.recv_batch(recv_batch_);
      for (std::size_t d = 0; d < received; ++d) {
        const auto from =
            std::find_if(endpoints_.begin(), endpoints_.end(),
                         [&](const cluster::ServiceEndpoint& e) {
                           return e.load_addr == recv_batch_.address(d);
                         });
        net::LoadReply reply;
        if (from == endpoints_.end() ||
            !net::LoadReply::try_decode(recv_batch_.payload(d), reply)) {
          continue;
        }
        now = net::monotonic_now();
        core::Decision decision;
        if (dispatcher_.poll_reply(
                reply.seq,
                {static_cast<ServerId>(from - endpoints_.begin()),
                 reply.queue_length, now},
                now, decision) == core::ReplyOutcome::kDecided) {
          return decision.target;
        }
      }
    } while (received == recv_batch_.capacity());
    now = net::monotonic_now();
  }
  // Deadline (or nothing sent): discard the slow polls and decide with
  // what arrived — blind when nothing did.
  return dispatcher_.close_round(action.round, now)->target;
}

CallResult ServiceClient::call(std::uint16_t method, std::uint32_t partition,
                               std::span<const std::uint8_t> args) {
  FINELB_CHECK(args.size() <= kMaxRpcPayload, "RPC args exceed datagram limit");
  ++stats_.calls;
  const SimTime started = net::monotonic_now();
  CallResult result;

  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++stats_.retries;
      refresh_mapping(/*force=*/true);  // replica set may have changed
    } else {
      refresh_mapping(/*force=*/false);
    }
    const auto group_it = mapping_.find(partition);
    if (group_it == mapping_.end() || group_it->second.empty()) {
      refresh_mapping(/*force=*/true);
      // The forced refresh is gated by the failure backoff, so without a
      // pause this loop would spin hot while the partition has no live
      // replicas; a short jittered sleep bounds the retry rate instead.
      net::sleep_for(static_cast<SimDuration>(
          static_cast<double>(10 * kMillisecond) *
          jitter_rng_.uniform(0.5, 1.5)));
      continue;
    }
    const ServerId target = choose(group_it->second, attempt);
    stats_.blacklist_insertions = dispatcher_.blacklist_insertions();
    stats_.blacklist_hits = dispatcher_.blacklist_hits();
    const cluster::ServiceEndpoint& endpoint =
        endpoints_[static_cast<std::size_t>(target)];

    // request_scratch_.args reuses its capacity across calls; the encoded
    // datagram goes through the per-thread scratch buffer, so a warmed-up
    // client issues RPCs without touching the allocator.
    RpcRequest& request = request_scratch_;
    request.request_id = next_id_++;
    request.method = method;
    request.partition = partition;
    request.args.assign(args.begin(), args.end());
    {
      const std::span<std::uint8_t> out =
          net::thread_scratch(request.encoded_size());
      const std::size_t n = request.encode_into(out);
      if (!rpc_socket_.send_to(out.subspan(0, n), endpoint.service_addr)) {
        continue;
      }
    }

    const std::span<std::uint8_t> buf = net::thread_scratch(64 * 1024);
    const SimTime deadline = net::monotonic_now() + options_.rpc_timeout;
    while (net::monotonic_now() < deadline) {
      rpc_poller_.wait(deadline - net::monotonic_now());
      while (auto dgram = rpc_socket_.recv_from(buf)) {
        RpcResponse response;
        if (!RpcResponse::try_decode(std::span(buf.data(), dgram->size),
                                     response)) {
          continue;
        }
        if (response.request_id != request.request_id) continue;  // stale
        dispatcher_.response(target);
        result.status = response.status;
        result.transport_ok = true;
        result.data = std::move(response.result);
        result.server = response.server;
        result.latency = net::monotonic_now() - started;
        return result;
      }
    }
    // Timed out: the dispatcher blacklists the silent replica so the retry
    // (and subsequent calls) steer around it; it also says whether the
    // call has attempts left.
    const bool retry =
        dispatcher_.timeout(target, attempt, net::monotonic_now());
    stats_.blacklist_insertions = dispatcher_.blacklist_insertions();
    if (!retry) break;
  }
  ++stats_.transport_failures;
  result.transport_ok = false;
  result.latency = net::monotonic_now() - started;
  return result;
}

}  // namespace finelb::neptune
