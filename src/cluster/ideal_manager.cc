#include "cluster/ideal_manager.h"

#include <array>
#include <span>

#include "common/check.h"
#include "common/log.h"
#include "core/selection.h"
#include "net/message.h"
#include "net/poller.h"

namespace finelb::cluster {

IdealManager::IdealManager(int server_count, std::uint64_t seed)
    : queues_(static_cast<std::size_t>(server_count), 0), rng_(seed) {
  FINELB_CHECK(server_count >= 1, "need at least one server");
  socket_.set_buffer_sizes(1 << 20);
}

IdealManager::~IdealManager() { stop(); }

void IdealManager::start() {
  FINELB_CHECK(!running_.exchange(true), "manager already started");
  thread_ = std::thread([this] { recv_loop(); });
}

void IdealManager::stop() {
  if (!running_.exchange(false)) return;
  waker_.wake();
  if (thread_.joinable()) thread_.join();
}

void IdealManager::attach_fault_injector(
    std::shared_ptr<fault::FaultInjector> injector) {
  socket_.attach_fault_injector(std::move(injector));
}

net::Address IdealManager::address() const { return socket_.local_address(); }

std::vector<std::int32_t> IdealManager::tracked_queues() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queues_;
}

void IdealManager::recv_loop() {
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
        case net::MsgType::kAcquire: {
          net::Acquire acquire;
          if (!net::Acquire::try_decode(data, acquire)) break;
          net::AcquireReply reply;
          reply.seq = acquire.seq;
          {
            std::lock_guard<std::mutex> lock(mutex_);
            std::vector<ServerLoad> loads(queues_.size());
            for (std::size_t s = 0; s < queues_.size(); ++s) {
              loads[s] = {static_cast<ServerId>(s), queues_[s], 0};
            }
            reply.server = pick_least_loaded(loads, rng_);
            ++queues_[static_cast<std::size_t>(reply.server)];
          }
          socket_.send_to(reply.encode(), dgram->from);
          acquires_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        case net::MsgType::kRelease: {
          net::Release release;
          if (!net::Release::try_decode(data, release)) break;
          std::lock_guard<std::mutex> lock(mutex_);
          const auto s = static_cast<std::size_t>(release.server);
          if (s < queues_.size() && queues_[s] > 0) {
            --queues_[s];
            releases_.fetch_add(1, std::memory_order_relaxed);
          } else {
            FINELB_LOG(kWarn, "ideal-manager")
                << "release for idle/unknown server " << release.server;
          }
          continue;
        }
        default:
          break;
      }
      FINELB_LOG(kWarn, "ideal-manager") << "dropping malformed datagram";
    }
  }
}

}  // namespace finelb::cluster
