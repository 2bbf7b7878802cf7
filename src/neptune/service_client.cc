#include "neptune/service_client.h"

#include <algorithm>
#include <array>

#include "common/check.h"
#include "common/log.h"
#include "net/clock.h"

namespace finelb::neptune {
namespace {

std::uint64_t address_key(const net::Address& addr) {
  return (static_cast<std::uint64_t>(addr.host) << 16) | addr.port;
}

}  // namespace

ServiceClient::ServiceClient(ServiceClientOptions options)
    : options_(std::move(options)),
      directory_(options_.directory),
      rng_(options_.seed) {
  FINELB_CHECK(!options_.service_name.empty(), "service name required");
  FINELB_CHECK(options_.max_attempts >= 1, "need at least one attempt");
  FINELB_CHECK(options_.policy.kind == PolicyKind::kRandom ||
                   options_.policy.kind == PolicyKind::kRoundRobin ||
                   options_.policy.kind == PolicyKind::kPolling,
               "service client supports random, round-robin, and polling");
  rpc_poller_.add(rpc_socket_.fd(), 0);
  refresh_mapping(/*force=*/true);
}

void ServiceClient::refresh_mapping(bool force) {
  const SimTime now = net::monotonic_now();
  if (!force && now - mapping_fetched_at_ < options_.mapping_refresh) return;
  // Backoff gate: after a failed fetch, even forced refreshes wait it out.
  // Every retry path funnels through here, so this is what bounds the
  // retry rate against a struggling directory.
  if (now < refresh_backoff_until_) return;
  std::vector<cluster::ServiceEndpoint> snapshot;
  try {
    snapshot = directory_.fetch(options_.service_name);
  } catch (const InvariantError&) {
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
                                       rng_.uniform(0.75, 1.25));
    return;
  }
  refresh_backoff_ = 0;
  refresh_backoff_until_ = 0;
  mapping_.clear();
  for (const auto& endpoint : snapshot) {
    mapping_[endpoint.partition].push_back(endpoint);
  }
  mapping_fetched_at_ = now;
  ++stats_.mapping_refreshes;
}

std::span<const std::size_t> ServiceClient::live_indices(
    const std::vector<cluster::ServiceEndpoint>& group, SimTime now) {
  std::vector<std::size_t>& live = live_scratch_;
  live.clear();
  if (options_.blacklist_cooldown > 0) {
    for (std::size_t i = 0; i < group.size(); ++i) {
      const auto it = blacklist_until_.find(group[i].server);
      if (it != blacklist_until_.end() && it->second > now) {
        ++stats_.blacklist_hits;
      } else {
        live.push_back(i);
      }
    }
  }
  if (live.empty()) {
    for (std::size_t i = 0; i < group.size(); ++i) live.push_back(i);
  }
  return live;
}

void ServiceClient::mark_timed_out(ServerId server, SimTime now) {
  if (options_.blacklist_cooldown <= 0) return;
  SimTime& until = blacklist_until_[server];
  until = std::max(until, now + options_.blacklist_cooldown);
  ++stats_.blacklist_insertions;
}

std::size_t ServiceClient::replicas(std::uint32_t partition) {
  refresh_mapping(/*force=*/false);
  const auto it = mapping_.find(partition);
  return it == mapping_.end() ? 0 : it->second.size();
}

net::UdpSocket& ServiceClient::poll_socket_for(const net::Address& addr) {
  const std::uint64_t key = address_key(addr);
  const auto it = poll_sockets_.find(key);
  if (it != poll_sockets_.end()) return it->second;
  net::UdpSocket socket;
  socket.connect(addr);
  return poll_sockets_.emplace(key, std::move(socket)).first->second;
}

std::size_t ServiceClient::choose(
    const std::vector<cluster::ServiceEndpoint>& group) {
  if (group.size() == 1) return 0;
  // Replica choice runs over the group minus blacklisted (recently timed
  // out) replicas; ids may be sparse so cycle group positions, not ids.
  const std::span<const std::size_t> live =
      live_indices(group, net::monotonic_now());
  if (live.size() == 1) return live.front();
  position_scratch_.resize(live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    position_scratch_[i] = static_cast<ServerId>(live[i]);
  }
  switch (options_.policy.kind) {
    case PolicyKind::kRandom:
      return live[rng_.uniform_int(live.size())];
    case PolicyKind::kRoundRobin:
      return static_cast<std::size_t>(rr_.next(position_scratch_));
    case PolicyKind::kPolling:
      break;
    default:
      FINELB_CHECK(false, "unreachable: policy validated in constructor");
  }

  // Random polling over the live replica positions: partial Fisher-Yates
  // in place on position_scratch_ (it already holds the candidates, so the
  // copying choose_poll_set_into would be a wasted pass).
  std::vector<ServerId>& targets = position_scratch_;
  {
    const std::size_t n = targets.size();
    const std::size_t k =
        std::min(static_cast<std::size_t>(options_.policy.poll_size), n);
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j = i + rng_.uniform_int(n - i);
      std::swap(targets[i], targets[j]);
    }
    targets.resize(k);
  }

  poll_poller_.clear();
  seq_to_index_.clear();
  for (const ServerId position : targets) {
    const auto index = static_cast<std::size_t>(position);
    net::UdpSocket& socket = poll_socket_for(group[index].load_addr);
    net::LoadInquiry inquiry;
    inquiry.seq = next_id_++;
    std::array<std::uint8_t, net::kMaxFixedMsgSize> inquiry_buf;
    const std::size_t inquiry_len = inquiry.encode_into(inquiry_buf);
    if (!socket.send({inquiry_buf.data(), inquiry_len})) continue;
    ++stats_.polls_sent;
    seq_to_index_.emplace_back(inquiry.seq, index);
    poll_poller_.add(socket.fd(), inquiry.seq);
  }
  if (seq_to_index_.empty()) return live[rng_.uniform_int(live.size())];

  const SimDuration wait = options_.policy.discard_timeout > 0
                               ? options_.policy.discard_timeout
                               : options_.max_poll_wait;
  const SimTime deadline = net::monotonic_now() + wait;
  std::vector<ServerLoad>& replies = reply_scratch_;
  replies.clear();
  std::array<std::uint8_t, 64> buf{};
  while (replies.size() < seq_to_index_.size()) {
    const SimDuration left = deadline - net::monotonic_now();
    if (left <= 0) break;  // discard outstanding slow polls
    for (const net::Ready& ready : poll_poller_.wait(left)) {
      if (!ready.readable) continue;
      const std::pair<std::uint64_t, std::size_t>* entry = nullptr;
      for (const auto& candidate : seq_to_index_) {
        if (candidate.first == ready.tag) {
          entry = &candidate;
          break;
        }
      }
      if (entry == nullptr) continue;
      net::UdpSocket& socket = poll_socket_for(group[entry->second].load_addr);
      while (auto size = socket.recv(buf)) {
        net::LoadReply reply;
        if (!net::LoadReply::try_decode(std::span(buf.data(), *size), reply)) {
          continue;
        }
        if (reply.seq != entry->first) continue;  // stale reply
        replies.push_back({static_cast<ServerId>(entry->second),
                           reply.queue_length, net::monotonic_now()});
      }
    }
  }
  if (replies.empty()) return live[rng_.uniform_int(live.size())];
  return static_cast<std::size_t>(pick_least_loaded(replies, rng_));
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
          static_cast<double>(10 * kMillisecond) * rng_.uniform(0.5, 1.5)));
      continue;
    }
    const auto& group = group_it->second;
    const std::size_t target = choose(group);

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
      if (!rpc_socket_.send_to(out.subspan(0, n),
                               group[target].service_addr)) {
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
        result.status = response.status;
        result.transport_ok = true;
        result.data = std::move(response.result);
        result.server = response.server;
        result.latency = net::monotonic_now() - started;
        return result;
      }
    }
    // Timed out: blacklist the silent replica so the retry (and subsequent
    // calls) steer around it, then try again on a fresh choice.
    mark_timed_out(group[target].server, net::monotonic_now());
  }
  ++stats_.transport_failures;
  result.transport_ok = false;
  result.latency = net::monotonic_now() - started;
  return result;
}

}  // namespace finelb::neptune
