#include "telemetry/export.h"

#include <cinttypes>
#include <cstdio>

namespace finelb::telemetry {

namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

template <typename T, typename AppendValue>
void append_map(std::string& out, const char* key,
                const std::vector<std::pair<std::string, T>>& entries,
                AppendValue&& append_value) {
  out += '"';
  out += key;
  out += "\":{";
  bool first = true;
  for (const auto& [name, value] : entries) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_escaped(out, name);
    out += "\":";
    append_value(out, value);
  }
  out += '}';
}

void append_histogram(std::string& out, const HistogramSnapshot& h) {
  out += '"';
  append_escaped(out, h.name);
  out += "\":{\"count\":";
  append_int(out, h.count);
  out += ",\"mean\":";
  append_double(out, h.mean);
  out += ",\"p50\":";
  append_double(out, h.p50);
  out += ",\"p95\":";
  append_double(out, h.p95);
  out += ",\"p99\":";
  append_double(out, h.p99);
  out += ",\"min\":";
  append_double(out, h.min);
  out += ",\"max\":";
  append_double(out, h.max);
  out += ",\"buckets\":[";
  bool first = true;
  for (const auto& [value, count] : h.buckets) {
    if (!first) out += ',';
    first = false;
    out += '[';
    append_double(out, value);
    out += ',';
    append_int(out, count);
    out += ']';
  }
  out += "]}";
}

void append_snapshot_body(std::string& out, const MetricsSnapshot& snap) {
  out += "\"node\":\"";
  append_escaped(out, snap.node);
  out += "\",";
  append_map(out, "counters", snap.counters,
             [](std::string& o, std::int64_t v) { append_int(o, v); });
  out += ',';
  append_map(out, "gauges", snap.gauges,
             [](std::string& o, std::int64_t v) { append_int(o, v); });
  out += ',';
  append_map(out, "values", snap.values,
             [](std::string& o, double v) { append_double(o, v); });
  out += ",\"histograms\":{";
  bool first = true;
  for (const auto& h : snap.histograms) {
    if (!first) out += ',';
    first = false;
    append_histogram(out, h);
  }
  out += '}';
}

void append_trace(std::string& out, const std::vector<TraceRecord>& trace) {
  out += "\"trace\":[";
  bool first = true;
  for (const auto& rec : trace) {
    if (!first) out += ',';
    first = false;
    out += "{\"request\":";
    append_int(out, static_cast<std::int64_t>(rec.request_id));
    out += ",\"point\":\"";
    out += trace_point_name(rec.point);
    out += "\",\"node\":";
    append_int(out, rec.node);
    out += ",\"t_ns\":";
    append_int(out, rec.at_ns);
    out += ",\"detail\":";
    append_int(out, rec.detail);
    out += '}';
  }
  out += ']';
}

}  // namespace

std::string to_json(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(512);
  out += '{';
  append_snapshot_body(out, snapshot);
  out += '}';
  return out;
}

std::string to_json(const MetricsSnapshot& snapshot,
                    const std::vector<TraceRecord>& trace) {
  std::string out;
  out.reserve(1024);
  out += '{';
  append_snapshot_body(out, snapshot);
  out += ',';
  append_trace(out, trace);
  out += '}';
  return out;
}

std::string cluster_to_json(const std::vector<std::string>& node_documents) {
  std::string out = "{\"nodes\":[";
  bool first = true;
  for (const auto& doc : node_documents) {
    if (!first) out += ',';
    first = false;
    out += doc;
  }
  out += "]}";
  return out;
}

}  // namespace finelb::telemetry
