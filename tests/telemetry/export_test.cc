#include "telemetry/export.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace finelb::telemetry {
namespace {

MetricsSnapshot sample_snapshot() {
  MetricsSnapshot snap;
  snap.node = "server.3";
  snap.counters = {{"requests_served", 120}, {"polls_discarded", 4}};
  snap.gauges = {{"queue_depth", 2}};
  snap.values = {{"utilization", 0.731}};
  HistogramSnapshot hist;
  hist.name = "service_time_ms";
  hist.count = 120;
  hist.mean = 5.2;
  hist.p50 = 4.9;
  hist.p95 = 9.4;
  hist.p99 = 12.7;
  hist.min = 1.0;
  hist.max = 16.0;
  hist.buckets = {{4.9, 80}, {9.4, 40}};
  snap.histograms.push_back(hist);
  return snap;
}

TEST(ExportTest, JsonContainsEveryMetricFamily) {
  const std::string json = to_json(sample_snapshot());
  EXPECT_NE(json.find("\"node\":\"server.3\""), std::string::npos);
  EXPECT_NE(json.find("\"requests_served\":120"), std::string::npos);
  EXPECT_NE(json.find("\"polls_discarded\":4"), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\":2"), std::string::npos);
  EXPECT_NE(json.find("\"utilization\":0.731"), std::string::npos);
  EXPECT_NE(json.find("\"service_time_ms\":{\"count\":120"),
            std::string::npos);
  EXPECT_NE(json.find("\"p99\":12.7"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[[4.9,80],[9.4,40]]"), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity without a parser.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ExportTest, JsonEscapesNodeNames) {
  MetricsSnapshot snap;
  snap.node = "we\"ird\\node\n";
  const std::string json = to_json(snap);
  EXPECT_NE(json.find("we\\\"ird\\\\node\\n"), std::string::npos);
}

TEST(ExportTest, JsonWithTraceAppendsRecords) {
  std::vector<TraceRecord> trace;
  TraceRecord rec;
  rec.request_id = 42;
  rec.point = TracePoint::kPollDiscard;
  rec.node = 3;
  rec.at_ns = 123456;
  rec.detail = 9;
  trace.push_back(rec);
  const std::string json = to_json(sample_snapshot(), trace);
  EXPECT_NE(json.find("\"trace\":[{\"request\":42,\"point\":"
                      "\"poll_discard\",\"node\":3,\"t_ns\":123456,"
                      "\"detail\":9}]"),
            std::string::npos);
}

TEST(ExportTest, ClusterJsonMergesNodeDocuments) {
  const std::string cluster = cluster_to_json(
      {to_json(sample_snapshot()), "{\"node\":\"client.0\"}"});
  EXPECT_EQ(cluster.rfind("{\"nodes\":[", 0), 0u);
  EXPECT_NE(cluster.find("\"node\":\"server.3\""), std::string::npos);
  EXPECT_NE(cluster.find("\"node\":\"client.0\""), std::string::npos);
  EXPECT_EQ(cluster.back(), '}');
}

}  // namespace
}  // namespace finelb::telemetry
