// Photo-album scenario: the paper's Figure 1 service cluster, built from
// the lower-level finelb building blocks.
//
// The cluster hosts an "image-store" service partitioned into two partition
// groups (photos 0-9 and 10-19), each replicated on two server nodes. All
// four nodes announce themselves on the availability channel as soft state.
// An album front-end resolves each photo access in two steps, exactly as a
// Neptune client would:
//   1. service availability: look the partition up in the mapping table
//      refreshed from the directory;
//   2. load balancing: poll the partition's replicas over connected UDP
//      sockets and dispatch to the lighter one (random polling, d = group
//      size).
//
// It also demonstrates the soft-state failure story: one replica is stopped
// mid-run, its directory entry expires, and the front-end keeps serving
// from the survivor without reconfiguration.
//
// Run:  ./build/examples/photo_album
#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "cluster/directory.h"
#include "cluster/server_node.h"
#include "common/flags.h"
#include "common/log.h"
#include "common/rng.h"
#include "core/selection.h"
#include "net/clock.h"
#include "net/message.h"
#include "net/poller.h"
#include "net/socket.h"

using namespace finelb;

namespace {

constexpr const char* kImageStore = "image-store";

/// Minimal synchronous Neptune-style client: mapping table + polling agent.
class AlbumFrontend {
 public:
  explicit AlbumFrontend(const net::Address& directory)
      : directory_(directory), rng_(7) {}

  /// Refreshes the service mapping table from the availability channel.
  void refresh_mapping() {
    replicas_.clear();
    for (const auto& endpoint : directory_.fetch(kImageStore)) {
      replicas_[endpoint.partition].push_back(endpoint);
    }
  }

  /// Fetches one photo: resolve partition, poll replicas, dispatch.
  /// Returns the serving node id, or -1 if the partition has no replicas.
  int fetch_photo(int photo_id, std::uint32_t service_us) {
    const std::uint32_t partition = photo_id < 10 ? 0u : 1u;
    const auto it = replicas_.find(partition);
    if (it == replicas_.end() || it->second.empty()) return -1;
    const auto& group = it->second;

    // Load balancing step: poll every replica in the partition group.
    std::vector<ServerLoad> loads;
    for (std::size_t i = 0; i < group.size(); ++i) {
      net::UdpSocket poll_socket;
      poll_socket.connect(group[i].load_addr);
      net::LoadInquiry inquiry;
      inquiry.seq = next_seq_++;
      if (!poll_socket.send(inquiry.encode())) continue;
      net::Poller poller;
      poller.add(poll_socket.fd(), 0);
      std::array<std::uint8_t, 64> buf{};
      const SimTime deadline = net::monotonic_now() + 20 * kMillisecond;
      while (net::monotonic_now() < deadline) {
        poller.wait(deadline - net::monotonic_now());
        net::LoadReply reply;
        if (auto size = poll_socket.recv(buf);
            size && net::LoadReply::try_decode({buf.data(), *size}, reply)) {
          loads.push_back({static_cast<ServerId>(i), reply.queue_length,
                           net::monotonic_now()});
          break;
        }
      }
    }
    if (loads.empty()) return -1;
    const auto target = static_cast<std::size_t>(
        pick_least_loaded(loads, rng_));

    // Service access step.
    net::ServiceRequest request;
    request.request_id = next_seq_++;
    request.service_us = service_us;
    request.partition = partition;
    if (!service_socket_.send_to(request.encode(),
                                 group[target].service_addr)) {
      return -1;
    }
    net::Poller poller;
    poller.add(service_socket_.fd(), 0);
    std::array<std::uint8_t, 128> buf{};
    const SimTime deadline = net::monotonic_now() + kSecond;
    while (net::monotonic_now() < deadline) {
      poller.wait(deadline - net::monotonic_now());
      net::ServiceResponse response;
      if (auto dgram = service_socket_.recv_from(buf);
          dgram && net::ServiceResponse::try_decode(
                       {buf.data(), dgram->size}, response)) {
        if (response.request_id == request.request_id) {
          return response.server;
        }
      }
    }
    return -1;
  }

 private:
  cluster::DirectoryClient directory_;
  std::map<std::uint32_t, std::vector<cluster::ServiceEndpoint>> replicas_;
  net::UdpSocket service_socket_;
  Rng rng_;
  std::uint64_t next_seq_ = 1;
};

std::unique_ptr<cluster::ServerNode> make_store_node(
    ServerId id, std::uint32_t partition, const net::Address& directory) {
  cluster::ServerOptions options;
  options.id = id;
  options.inject_busy_reply_delay = false;
  options.seed = 100 + static_cast<std::uint64_t>(id);
  auto node = std::make_unique<cluster::ServerNode>(options);
  node->enable_publishing(directory, kImageStore, partition,
                          /*interval=*/100 * kMillisecond,
                          /*ttl=*/350 * kMillisecond);
  node->start();
  return node;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  init_log_level(flags);
  // --- assemble the Figure 1 cluster ---------------------------------------
  cluster::DirectoryServer directory;
  directory.start();

  std::vector<std::unique_ptr<cluster::ServerNode>> nodes;
  nodes.push_back(make_store_node(0, /*partition=*/0, directory.address()));
  nodes.push_back(make_store_node(1, /*partition=*/0, directory.address()));
  nodes.push_back(make_store_node(2, /*partition=*/1, directory.address()));
  nodes.push_back(make_store_node(3, /*partition=*/1, directory.address()));
  std::printf("image-store: partitions 0-9 on nodes {0,1}, 10-19 on {2,3}\n");

  AlbumFrontend frontend(directory.address());
  // Wait until all four replicas have published themselves.
  cluster::DirectoryClient waiter(directory.address());
  waiter.wait_for_servers(kImageStore, 4);
  frontend.refresh_mapping();

  // --- serve an album page --------------------------------------------------
  std::printf("\nfetching album page (photos 0..19):\n  served by node:");
  int failures = 0;
  std::map<int, int> served_by;
  for (int photo = 0; photo < 20; ++photo) {
    const int node = frontend.fetch_photo(photo, /*service_us=*/3000);
    if (node < 0) {
      ++failures;
    } else {
      ++served_by[node];
    }
    std::printf(" %d", node);
  }
  std::printf("\n  per-node counts:");
  for (const auto& [node, count] : served_by) {
    std::printf(" node%d=%d", node, count);
  }
  std::printf("  failures=%d\n", failures);

  // --- soft-state failover ---------------------------------------------------
  std::printf("\nstopping node 1 (partition 0 replica)...\n");
  nodes[1]->stop();
  // Its soft state expires after the 350 ms ttl with no refresh.
  net::sleep_for(500 * kMillisecond);
  frontend.refresh_mapping();

  std::printf("fetching partition-0 photos after failover:\n  served by:");
  int post_failures = 0;
  for (int photo = 0; photo < 10; ++photo) {
    const int node = frontend.fetch_photo(photo, /*service_us=*/3000);
    if (node != 0) ++post_failures;
    std::printf(" %d", node);
  }
  std::printf("\n  all requests land on the surviving replica (node 0); "
              "misroutes: %d\n", post_failures);

  for (auto& node : nodes) node->stop();
  directory.stop();
  std::printf(
      "\nThe availability channel's soft state removed the dead replica\n"
      "without any explicit deregistration (paper section 3.1).\n");
  return 0;
}
