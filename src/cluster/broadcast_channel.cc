#include "cluster/broadcast_channel.h"

#include <array>
#include <span>

#include "common/check.h"
#include "common/log.h"
#include "net/clock.h"
#include "net/message.h"
#include "net/poller.h"

namespace finelb::cluster {
namespace {

std::uint64_t pack(const net::Address& addr) {
  return (static_cast<std::uint64_t>(addr.host) << 16) | addr.port;
}

}  // namespace

BroadcastChannel::BroadcastChannel() { socket_.set_buffer_sizes(1 << 21); }

BroadcastChannel::~BroadcastChannel() { stop(); }

void BroadcastChannel::start() {
  FINELB_CHECK(!running_.exchange(true), "channel already started");
  thread_ = std::thread([this] { recv_loop(); });
}

void BroadcastChannel::stop() {
  if (!running_.exchange(false)) return;
  waker_.wake();
  if (thread_.joinable()) thread_.join();
}

net::Address BroadcastChannel::address() const {
  return socket_.local_address();
}

std::size_t BroadcastChannel::subscriber_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const SimTime now = net::monotonic_now();
  std::size_t live = 0;
  for (const auto& [key, sub] : subscribers_) {
    (void)key;
    if (sub.expires_at > now) ++live;
  }
  return live;
}

void BroadcastChannel::recv_loop() {
  net::Poller poller;
  poller.add(socket_.fd(), 0);
  // Readable only after stop(): the wakeup ends the wait early, the
  // empty drain below is harmless, and the loop condition then exits.
  poller.add(waker_.fd(), 1);
  std::array<std::uint8_t, 128> buf{};
  while (running_.load(std::memory_order_relaxed)) {
    if (poller.wait(50 * kMillisecond).empty()) continue;
    while (auto dgram = socket_.recv_from(buf)) {
      const std::span<const std::uint8_t> data(buf.data(), dgram->size);
      switch (net::peek_type(data)) {
        case net::MsgType::kSubscribe: {
          net::Subscribe subscribe;
          if (!net::Subscribe::try_decode(data, subscribe)) break;
          std::lock_guard<std::mutex> lock(mutex_);
          subscribers_[pack(dgram->from)] = {
              dgram->from,
              net::monotonic_now() +
                  static_cast<SimDuration>(subscribe.ttl_ms) * kMillisecond};
          continue;
        }
        case net::MsgType::kLoadAnnounce: {
          // Validate, then fan out verbatim.
          net::LoadAnnounce announce;
          if (!net::LoadAnnounce::try_decode(data, announce)) break;
          std::lock_guard<std::mutex> lock(mutex_);
          const SimTime now = net::monotonic_now();
          for (auto it = subscribers_.begin(); it != subscribers_.end();) {
            if (it->second.expires_at <= now) {
              it = subscribers_.erase(it);  // expired soft state
              continue;
            }
            socket_.send_to(data, it->second.address);
            relayed_.fetch_add(1, std::memory_order_relaxed);
            ++it;
          }
          continue;
        }
        default:
          break;
      }
      FINELB_LOG(kWarn, "broadcast-channel") << "dropping malformed datagram";
    }
  }
}

}  // namespace finelb::cluster
