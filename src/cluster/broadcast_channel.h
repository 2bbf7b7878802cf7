// Broadcast channel for the prototype's broadcast policy (extension).
//
// The paper evaluates the broadcast policy only in simulation (§2.2) and
// rules it out before building the prototype; this channel completes the
// matrix so broadcast can be measured in both worlds. It is the "well-known
// broadcast channel" of §2.2 realized as a UDP relay (loopback has no IP
// multicast): servers send LoadAnnounce datagrams to the channel, which
// fans each one out to every live subscriber. Subscriptions are soft state
// with a ttl, like everything else in the availability layer, so dead
// clients silently fall off the fan-out list.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>

#include "common/time.h"
#include "net/socket.h"
#include "net/waker.h"

namespace finelb::cluster {

class BroadcastChannel {
 public:
  BroadcastChannel();
  ~BroadcastChannel();

  BroadcastChannel(const BroadcastChannel&) = delete;
  BroadcastChannel& operator=(const BroadcastChannel&) = delete;

  void start();
  void stop();

  net::Address address() const;

  std::int64_t announcements_relayed() const { return relayed_.load(); }
  std::size_t subscriber_count() const;

 private:
  void recv_loop();

  net::UdpSocket socket_;
  net::Waker waker_;  // stop() ends the loop's wait at once
  std::atomic<bool> running_{false};
  std::thread thread_;
  mutable std::mutex mutex_;
  // subscriber address (packed) -> {address, expiry}
  struct Subscriber {
    net::Address address;
    SimTime expires_at = 0;
  };
  std::map<std::uint64_t, Subscriber> subscribers_;
  std::atomic<std::int64_t> relayed_{0};
};

}  // namespace finelb::cluster
