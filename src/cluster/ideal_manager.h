// Centralized load-index manager (paper §4's IDEAL emulation).
//
// "A centralized load index manager ... keeps track of all server load
// indices. Each client contacts the load index manager whenever a service
// access is to be made. The load index manager returns the server with the
// shortest service queue and increments that queue length by one. Upon
// finishing one service access, each client is required to contact the load
// index manager again so that the corresponding server queue length can be
// properly decremented."
//
// The manager is intentionally *not* a recommended production policy — it
// is the oracle baseline, with the single point of failure the paper's
// distributed policies avoid.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "fault/fault.h"
#include "net/socket.h"
#include "net/waker.h"

namespace finelb::cluster {

class IdealManager {
 public:
  /// Tracks servers 0..server_count-1.
  explicit IdealManager(int server_count, std::uint64_t seed = 1);
  ~IdealManager();

  IdealManager(const IdealManager&) = delete;
  IdealManager& operator=(const IdealManager&) = delete;

  void start();
  void stop();

  /// Optional loss/dup/delay injection on the acquire/release socket, so
  /// fault schedules cover the oracle path the same way they cover the
  /// directory and poll sockets. Attach before start().
  void attach_fault_injector(std::shared_ptr<fault::FaultInjector> injector);

  net::Address address() const;

  /// Current tracked queue lengths (for tests/diagnostics).
  std::vector<std::int32_t> tracked_queues() const;

  std::int64_t acquires() const { return acquires_.load(); }
  std::int64_t releases() const { return releases_.load(); }

 private:
  void recv_loop();

  net::UdpSocket socket_;
  net::Waker waker_;  // stop() ends the loop's wait at once
  std::atomic<bool> running_{false};
  std::thread thread_;
  mutable std::mutex mutex_;
  std::vector<std::int32_t> queues_;
  Rng rng_;
  std::atomic<std::int64_t> acquires_{0};
  std::atomic<std::int64_t> releases_{0};
};

}  // namespace finelb::cluster
