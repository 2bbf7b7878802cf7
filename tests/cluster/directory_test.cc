#include "cluster/directory.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "cluster/stop_latency.h"
#include "common/check.h"
#include "net/clock.h"

namespace finelb::cluster {
namespace {

net::Publish make_publish(const std::string& service, std::int32_t server,
                          std::uint32_t ttl_ms = 1000) {
  net::Publish p;
  p.service = service;
  p.partition = 0;
  p.server = server;
  p.service_port = static_cast<std::uint16_t>(40000 + server);
  p.load_port = static_cast<std::uint16_t>(41000 + server);
  p.ttl_ms = ttl_ms;
  return p;
}

TEST(DirectoryTest, PublishThenSnapshot) {
  DirectoryServer directory;
  directory.start();
  net::UdpSocket publisher;
  ASSERT_TRUE(
      publisher.send_to(make_publish("search", 1).encode(),
                        directory.address()));
  ASSERT_TRUE(
      publisher.send_to(make_publish("search", 2).encode(),
                        directory.address()));

  DirectoryClient client(directory.address());
  const auto endpoints = client.wait_for_servers("search", 2);
  ASSERT_EQ(endpoints.size(), 2u);
  EXPECT_EQ(directory.publishes_received(), 2);
  directory.stop();
}

TEST(DirectoryTest, ServiceFilterApplies) {
  DirectoryServer directory;
  directory.start();
  net::UdpSocket publisher;
  publisher.send_to(make_publish("search", 1).encode(), directory.address());
  publisher.send_to(make_publish("album", 2).encode(), directory.address());

  DirectoryClient client(directory.address());
  const auto search = client.wait_for_servers("search", 1);
  ASSERT_EQ(search.size(), 1u);
  EXPECT_EQ(search[0].server, 1);
  const auto all = client.wait_for_servers("", 2);
  EXPECT_EQ(all.size(), 2u);
  directory.stop();
}

TEST(DirectoryTest, RefreshReplacesNotDuplicates) {
  DirectoryServer directory;
  directory.start();
  net::UdpSocket publisher;
  for (int i = 0; i < 5; ++i) {
    publisher.send_to(make_publish("search", 1).encode(),
                      directory.address());
    net::sleep_for(5 * kMillisecond);
  }
  net::sleep_for(30 * kMillisecond);
  EXPECT_EQ(directory.live_entries("search").size(), 1u);
  directory.stop();
}

TEST(DirectoryTest, SoftStateExpires) {
  DirectoryServer directory;
  directory.start();
  net::UdpSocket publisher;
  publisher.send_to(make_publish("search", 1, /*ttl_ms=*/60).encode(),
                    directory.address());
  net::sleep_for(20 * kMillisecond);
  EXPECT_EQ(directory.live_entries("search").size(), 1u);
  net::sleep_for(80 * kMillisecond);
  EXPECT_EQ(directory.live_entries("search").size(), 0u)
      << "entry must vanish after its ttl without refresh";
  directory.stop();
}

TEST(DirectoryTest, PartitionedServiceKeepsDistinctEntries) {
  DirectoryServer directory;
  directory.start();
  net::UdpSocket publisher;
  net::Publish p0 = make_publish("image-store", 1);
  p0.partition = 0;
  net::Publish p1 = make_publish("image-store", 1);
  p1.partition = 1;
  publisher.send_to(p0.encode(), directory.address());
  publisher.send_to(p1.encode(), directory.address());
  net::sleep_for(30 * kMillisecond);
  EXPECT_EQ(directory.live_entries("image-store").size(), 2u);
  directory.stop();
}

// Regression for the RCU-style snapshot read path: live_entries() must be
// safe (and see only complete entry sets) while the recv loop keeps
// republishing. Runs under TSan via the "runtime" label — this is the test
// that would flag a return to unguarded shared state.
TEST(DirectoryTest, ConcurrentPublishAndLookup) {
  DirectoryServer directory;
  directory.start();
  constexpr int kServers = 6;

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto entries = directory.live_entries("search");
        // Entries are keyed by (service, server, partition): duplicates in
        // one snapshot would mean a lookup observed a half-applied publish.
        std::vector<bool> seen(kServers, false);
        for (const auto& entry : entries) {
          ASSERT_GE(entry.server, 0);
          ASSERT_LT(entry.server, kServers);
          ASSERT_FALSE(seen[static_cast<std::size_t>(entry.server)])
              << "duplicate server " << entry.server << " in one snapshot";
          seen[static_cast<std::size_t>(entry.server)] = true;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  net::UdpSocket publisher;
  for (int round = 0; round < 200; ++round) {
    for (int server = 0; server < kServers; ++server) {
      publisher.send_to(make_publish("search", server).encode(),
                        directory.address());
    }
    net::sleep_for(kMillisecond);
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_GT(reads.load(), 0);
  const auto entries = directory.live_entries("search");
  EXPECT_EQ(entries.size(), static_cast<std::size_t>(kServers));
  directory.stop();
}

TEST(DirectoryTest, FetchTimesOutAgainstDeadDirectory) {
  net::UdpSocket placeholder;  // bound but nobody serving
  DirectoryClient client(placeholder.local_address());
  EXPECT_THROW(client.fetch("search", 300 * kMillisecond), InvariantError);
}

TEST(DirectoryTest, TryFetchReturnsNulloptInsteadOfThrowing) {
  net::UdpSocket placeholder;  // bound but nobody serving
  DirectoryClient client(placeholder.local_address());
  EXPECT_FALSE(client.try_fetch("search", 300 * kMillisecond).has_value());
  EXPECT_GT(client.snapshot_retries(), 0) << "retransmits still happen";
}

// Satellite property test (ISSUE 6): a server that re-publishes *exactly*
// at ttl_ms must never flap out of live_entries. DirectoryTable takes
// explicit clocks, so the boundary is probed deterministically: refresh at
// t = k*ttl and read at the very same instant — the ttl/4 grace window has
// to keep the entry visible at every probe.
TEST(DirectoryTest, RepublishExactlyAtTtlNeverFlaps) {
  DirectoryTable table;
  const std::uint32_t ttl_ms = 400;
  const SimDuration ttl = ttl_ms * kMillisecond;
  net::Publish publish = make_publish("search", 1, ttl_ms);
  table.apply(publish, /*now=*/0);
  for (int k = 1; k <= 50; ++k) {
    const SimTime boundary = static_cast<SimTime>(k) * ttl;
    // Read at the nominal expiry instant, *before* the refresh lands —
    // the worst ordering of the race.
    EXPECT_EQ(table.live_entries("search", boundary).size(), 1u)
        << "flapped at boundary " << k;
    table.apply(publish, boundary);
    // And at a few interior instants of the next interval.
    EXPECT_EQ(table.live_entries("search", boundary + ttl / 2).size(), 1u);
    EXPECT_EQ(table.live_entries("search", boundary + ttl - kMillisecond)
                  .size(),
              1u);
  }
  // The grace is bounded: without a refresh the entry still expires, just
  // ttl/4 late.
  const SimTime last = 50 * ttl;
  EXPECT_EQ(table.live_entries("search", last + ttl + ttl / 4 + kMillisecond)
                .size(),
            0u)
      << "grace must not keep dead entries alive past ttl + ttl/4";
}

// Same property through the real server under concurrency: one thread
// re-publishes on the exact-ttl cadence while readers sample continuously.
// Runs under the runtime label, so TSan checks the RCU protocol while ASan
// watches the buffers.
TEST(DirectoryTest, BoundaryRepublishStableUnderConcurrentReads) {
  DirectoryServer directory;
  directory.start();
  constexpr std::uint32_t kTtlMs = 100;

  net::UdpSocket publisher;
  publisher.send_to(make_publish("search", 1, kTtlMs).encode(),
                    directory.address());
  net::sleep_for(20 * kMillisecond);
  ASSERT_EQ(directory.live_entries("search").size(), 1u);

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> empty_reads{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (directory.live_entries("search").empty()) {
        empty_reads.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  // Re-publish on the nominal ttl cadence for ~1.2 s. Scheduling jitter
  // lands some refreshes slightly *after* the boundary — exactly the race
  // the ttl/4 grace absorbs.
  for (int i = 0; i < 12; ++i) {
    net::sleep_for(kTtlMs * kMillisecond);
    publisher.send_to(make_publish("search", 1, kTtlMs).encode(),
                      directory.address());
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(empty_reads.load(), 0)
      << "entry flapped out of live_entries despite on-time republish";
  directory.stop();
}

// Satellite TSan regression (ISSUE 6): the retry/failover counters are read
// from other threads while a fetch loop is live (benches do exactly this).
// Before this PR snapshot_retries_ was a plain int64_t — TSan flags that
// under the runtime label.
TEST(DirectoryTest, CountersReadableWhileFetchRuns) {
  net::UdpSocket placeholder;  // nobody answers: every fetch retries
  DirectoryClient client(placeholder.local_address());
  std::atomic<bool> stop{false};
  std::thread fetcher([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      client.try_fetch("search", 150 * kMillisecond);
    }
  });
  std::int64_t last = 0;
  const SimTime deadline = net::monotonic_now() + 600 * kMillisecond;
  while (net::monotonic_now() < deadline) {
    const std::int64_t retries = client.snapshot_retries();
    EXPECT_GE(retries, last) << "counter must be monotonic";
    last = retries;
    (void)client.failovers();
    (void)client.redirects_followed();
    net::sleep_for(5 * kMillisecond);
  }
  stop.store(true);
  fetcher.join();
  EXPECT_GT(last, 0) << "unanswered fetches must retransmit";
}

TEST(DirectoryTest, WaitForServersReturnsPartialAfterDeadline) {
  DirectoryServer directory;
  directory.start();
  net::UdpSocket publisher;
  publisher.send_to(make_publish("search", 1).encode(), directory.address());
  DirectoryClient client(directory.address());
  const auto endpoints =
      client.wait_for_servers("search", 5, 300 * kMillisecond);
  EXPECT_EQ(endpoints.size(), 1u);
  directory.stop();
}

TEST(DirectoryTest, StopWakesAnIdleLoopAtOnce) {
  // stop() wakes the receive loop instead of waiting out its poll slice.
  const SimDuration fastest =
      fastest_idle_stop([] { return std::make_unique<DirectoryServer>(); });
  EXPECT_LT(fastest, 20 * kMillisecond);
}

// Hostile input on the directory socket: an empty datagram, an unknown
// type tag and truncated Publish/SnapshotRequest encodings are each
// dropped, and the directory keeps serving well-formed publishes and
// snapshot requests.
TEST(DirectoryTest, MalformedDatagramsDroppedAndDirectoryKeepsServing) {
  DirectoryServer directory;
  directory.start();
  net::UdpSocket publisher;
  std::vector<std::uint8_t> truncated_publish =
      make_publish("search", 1).encode();
  truncated_publish.pop_back();
  net::SnapshotRequest request;
  request.seq = 1;
  request.service = "search";
  std::vector<std::uint8_t> truncated_request = request.encode();
  truncated_request.pop_back();
  ASSERT_TRUE(publisher.send_to({}, directory.address()));
  ASSERT_TRUE(publisher.send_to(std::vector<std::uint8_t>{0xee, 1, 2},
                                directory.address()));
  ASSERT_TRUE(publisher.send_to(truncated_publish, directory.address()));
  ASSERT_TRUE(publisher.send_to(truncated_request, directory.address()));
  ASSERT_TRUE(publisher.send_to(make_publish("search", 2).encode(),
                                directory.address()));

  DirectoryClient client(directory.address());
  const auto endpoints = client.wait_for_servers("search", 1);
  ASSERT_EQ(endpoints.size(), 1u);
  EXPECT_EQ(endpoints[0].server, 2);
  EXPECT_EQ(directory.publishes_received(), 1);
  directory.stop();
}

}  // namespace
}  // namespace finelb::cluster
