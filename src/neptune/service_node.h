// Neptune service node: a cluster node that *provides* a service.
//
// Serves an application-defined service with the same parts as the
// experiment server (cluster/server_node.h): a FIFO request queue, a
// worker pool, a load-index server and soft-state publishing. It does not
// reuse ServerNode, whose one event loop only emulates service time;
// handlers here do real work, so the node keeps its own threads (a
// service receive loop, a load-index loop, the workers and, when
// publishing is on, a publish loop) and its own cluster::BlockingQueue
// between receive and workers, so a slow handler never stalls load
// inquiries. The application registers one handler per RPC method,
// declares which data partitions this node hosts, and the node executes
// each access "exclusively on one data partition" (paper §3.1).
//
// Threading contract for handlers: a handler runs on a worker thread; with
// the default pool size of 1 handlers never run concurrently on one node,
// matching the non-preemptive processing unit of the simulation model.
// With a larger pool the application must synchronize its own state.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/blocking_queue.h"
#include "core/load_index.h"
#include "net/socket.h"
#include "net/waker.h"
#include "neptune/rpc.h"
#include "telemetry/metrics.h"

namespace finelb::neptune {

/// Application method handler: (partition, args) -> result bytes. Throwing
/// any exception maps to RpcStatus::kAppError.
using MethodHandler = std::function<std::vector<std::uint8_t>(
    std::uint32_t partition, std::span<const std::uint8_t> args)>;

struct ServiceNodeOptions {
  ServerId id = 0;
  std::string service_name;
  /// Data partitions hosted by this node.
  std::set<std::uint32_t> partitions;
  int worker_threads = 1;
  std::uint64_t seed = 1;
};

class ServiceNode {
 public:
  explicit ServiceNode(ServiceNodeOptions options);
  ~ServiceNode();

  ServiceNode(const ServiceNode&) = delete;
  ServiceNode& operator=(const ServiceNode&) = delete;

  /// Registers a handler for an RPC method id. Must precede start().
  void register_method(std::uint16_t method, MethodHandler handler);

  /// Begins periodic soft-state announcements (one Publish per hosted
  /// partition) to the availability channel. Must precede start().
  void enable_publishing(const net::Address& directory, SimDuration interval,
                         SimDuration ttl);

  void start();
  void stop();

  ServerId id() const { return options_.id; }
  net::Address service_address() const;
  net::Address load_address() const;
  std::int32_t queue_length() const {
    return qlen_.load(std::memory_order_relaxed);
  }
  std::int64_t accesses_served() const { return served_.load(); }
  std::int64_t app_errors() const { return app_errors_.load(); }

  /// Telemetry registry (metric naming: DESIGN.md §10). Scraping via
  /// metrics().snapshot() is safe while the node is running; remote scrapes
  /// arrive as STATS_INQUIRY datagrams on the load socket.
  const telemetry::Registry& metrics() const { return metrics_; }

  /// The node's snapshot as JSON — what a STATS_INQUIRY answers with.
  std::string stats_json() const;

 private:
  struct WorkItem {
    RpcRequest request;
    net::Address reply_to;
    std::int32_t queue_at_arrival = 0;
  };

  void service_recv_loop();
  void load_recv_loop();
  void publish_loop();
  void worker_loop();
  RpcResponse execute(const WorkItem& item);

  ServiceNodeOptions options_;
  std::map<std::uint16_t, MethodHandler> methods_;
  net::UdpSocket service_socket_;
  net::UdpSocket load_socket_;
  // Readable once stop() runs: ends the receive loops' and the publish
  // loop's waits at once.
  net::Waker waker_;

  bool started_ = false;
  std::atomic<bool> running_{false};
  std::atomic<std::int32_t> qlen_{0};
  std::atomic<std::int64_t> served_{0};
  std::atomic<std::int64_t> app_errors_{0};

  // Telemetry (handles into metrics_, created once in the constructor;
  // recording is lock- and allocation-free).
  telemetry::Registry metrics_;
  telemetry::Counter m_served_;
  telemetry::Counter m_app_errors_;
  telemetry::Counter m_stats_scrapes_;
  telemetry::Counter m_send_failures_;
  telemetry::Histogram m_handler_time_ms_;

  cluster::BlockingQueue<WorkItem> queue_;
  std::vector<std::thread> threads_;

  bool publish_enabled_ = false;
  net::Address directory_{};
  SimDuration publish_interval_ = 0;
  SimDuration publish_ttl_ = 0;
};

}  // namespace finelb::neptune
