#include "obs/export.hpp"

#include <cstdio>
#include <string_view>
#include <vector>

#include "io/csv.hpp"
#include "io/json.hpp"

namespace mcs::obs {

namespace {

std::string format_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", value);
  return buf;
}

std::int64_t i64(std::uint64_t value) {
  return static_cast<std::int64_t>(value);
}

/// Calls f(le, count) for each occupied bucket of `sketch` in ascending
/// order; `le` is the bucket's inclusive upper edge.
template <typename F>
void for_each_occupied_bucket(const LatencySketchSnapshot& sketch, F&& f) {
  for (std::size_t b = 0; b < sketch.counts.size(); ++b) {
    if (sketch.counts[b] != 0) {
      f(sketch_detail::bucket_upper_edge(b), sketch.counts[b]);
    }
  }
}

void write_histogram_json(io::JsonWriter& json,
                          const LatencySketchSnapshot& sketch) {
  json.begin_object();
  json.field("count", i64(sketch.count));
  json.field("sum", i64(sketch.sum_ns));
  if (!sketch.empty()) {
    json.field("min", i64(sketch.min_ns));
    json.field("max", i64(sketch.max_ns));
  }
  json.key("buckets").begin_array();
  for_each_occupied_bucket(sketch, [&](std::uint64_t le, std::uint64_t n) {
    json.begin_object();
    json.field("le", i64(le));
    json.field("count", i64(n));
    json.end_object();
  });
  json.end_array();
  json.end_object();
}

}  // namespace

std::string prometheus_name(std::string_view name) {
  // Exposition-format grammar: [a-zA-Z_:][a-zA-Z0-9_:]*. The fixed
  // "mcs_" prefix satisfies the first-character rule, so every remaining
  // byte only needs the tail alphabet; anything else (dots, dashes,
  // spaces, UTF-8 from user-influenced strings) collapses to '_'.
  std::string out = "mcs_";
  out.reserve(name.size() + 4);
  for (const char ch : name) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_' || ch == ':';
    out.push_back(ok ? ch : '_');
  }
  return out;
}

std::string prometheus_label_value(std::string_view value) {
  // Label values admit any UTF-8 but the text format requires escaping
  // backslash, double-quote, and newline inside the quoted value.
  std::string out;
  out.reserve(value.size());
  for (const char ch : value) {
    switch (ch) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(ch);
    }
  }
  return out;
}

void write_metrics_json(std::ostream& os, const MetricsRegistry& registry,
                        const TraceCollector* trace,
                        const std::map<std::string, std::string>& meta) {
  const MetricsSnapshot snap = registry.snapshot();
  io::JsonWriter json(os);
  json.begin_object();
  json.field("schema", "mcs.telemetry.v1");
  if (!meta.empty()) {
    json.key("meta").begin_object();
    for (const auto& [key, value] : meta) json.field(key, value);
    json.end_object();
  }
  json.key("counters").begin_object();
  for (const auto& [name, value] : snap.counters) json.field(name, value);
  json.end_object();
  json.key("gauges").begin_object();
  for (const auto& [name, value] : snap.gauges) json.field(name, value);
  json.end_object();
  json.key("histograms").begin_object();
  for (const auto& [name, data] : snap.histograms) {
    json.key(name);
    write_histogram_json(json, data);
  }
  json.end_object();
  if (trace != nullptr) {
    json.key("trace").begin_array();
    for (const SpanRecord& span : trace->spans()) {
      json.begin_object();
      json.field("name", span.name);
      json.field("depth", static_cast<std::int64_t>(span.depth));
      json.field("parent", static_cast<std::int64_t>(span.parent));
      json.field("start_us", span.start_us);
      json.field("duration_us", span.duration_us);
      json.end_object();
    }
    json.end_array();
  }
  json.end_object();
  os << '\n';
}

void write_metrics_csv(std::ostream& os, const MetricsRegistry& registry) {
  const MetricsSnapshot snap = registry.snapshot();
  io::CsvWriter csv(os);
  csv.set_header({"kind", "name", "field", "value"});
  for (const auto& [name, value] : snap.counters) {
    csv.write_row({"counter", name, "value", std::to_string(value)});
  }
  for (const auto& [name, value] : snap.gauges) {
    csv.write_row({"gauge", name, "value", format_number(value)});
  }
  for (const auto& [name, sketch] : snap.histograms) {
    csv.write_row({"histogram", name, "count", std::to_string(sketch.count)});
    csv.write_row({"histogram", name, "sum", std::to_string(sketch.sum_ns)});
    if (!sketch.empty()) {
      csv.write_row({"histogram", name, "min", std::to_string(sketch.min_ns)});
      csv.write_row({"histogram", name, "max", std::to_string(sketch.max_ns)});
    }
    for_each_occupied_bucket(sketch, [&](std::uint64_t le, std::uint64_t n) {
      csv.write_row({"histogram", name, "le=" + std::to_string(le),
                     std::to_string(n)});
    });
  }
}

namespace {

/// "# HELP <id> <text>" when a description was registered for `name`.
/// Prometheus HELP text escapes backslash and newline; registered
/// descriptions are one-line by convention, escape anyway.
void write_prometheus_help(std::ostream& os, const MetricsSnapshot& snap,
                           const std::string& name, const std::string& id) {
  const auto it = snap.help.find(name);
  if (it == snap.help.end()) return;
  os << "# HELP " << id << ' ';
  for (const char ch : it->second) {
    if (ch == '\\') {
      os << "\\\\";
    } else if (ch == '\n') {
      os << "\\n";
    } else {
      os << ch;
    }
  }
  os << '\n';
}

}  // namespace

void write_prometheus(std::ostream& os, const MetricsRegistry& registry) {
  const MetricsSnapshot snap = registry.snapshot();
  for (const auto& [name, value] : snap.counters) {
    const std::string id = prometheus_name(name);
    write_prometheus_help(os, snap, name, id);
    os << "# TYPE " << id << " counter\n" << id << ' ' << value << '\n';
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string id = prometheus_name(name);
    write_prometheus_help(os, snap, name, id);
    os << "# TYPE " << id << " gauge\n"
       << id << ' ' << format_number(value) << '\n';
  }
  for (const auto& [name, sketch] : snap.histograms) {
    const std::string id = prometheus_name(name);
    write_prometheus_help(os, snap, name, id);
    os << "# TYPE " << id << " histogram\n";
    std::uint64_t cumulative = 0;
    for_each_occupied_bucket(sketch, [&](std::uint64_t le, std::uint64_t n) {
      cumulative += n;
      os << id << "_bucket{le=\"" << le << "\"} " << cumulative << '\n';
    });
    // The exposition format requires the +Inf bucket.
    os << id << "_bucket{le=\"+Inf\"} " << sketch.count << '\n'
       << id << "_sum " << std::to_string(sketch.sum_ns) << '\n'
       << id << "_count " << sketch.count << '\n';
  }
}

void write_chrome_trace(std::ostream& os,
                        const std::vector<SpanRecord>& spans,
                        const std::map<std::string, std::string>& meta) {
  std::vector<ChromeEvent> events;
  events.reserve(spans.size());
  for (const SpanRecord& span : spans) {
    ChromeEvent event;
    event.name = span.name;
    event.ts_us = span.start_us;
    event.dur_us = span.duration_us;
    event.args = {{"depth", span.depth}, {"parent", span.parent}};
    events.push_back(std::move(event));
  }
  write_chrome_trace_events(os, {}, events, meta);
}

void write_chrome_trace(std::ostream& os, const TraceCollector& trace,
                        const std::map<std::string, std::string>& meta) {
  write_chrome_trace(os, trace.spans(), meta);
}

void write_chrome_trace_events(
    std::ostream& os, const std::vector<ChromeLane>& lanes,
    const std::vector<ChromeEvent>& events,
    const std::map<std::string, std::string>& meta) {
  io::JsonWriter json(os);
  json.begin_object();
  json.key("traceEvents").begin_array();
  json.begin_object();
  json.field("name", "process_name");
  json.field("ph", "M");
  json.field("pid", std::int64_t{1});
  json.field("tid", std::int64_t{1});
  json.key("args").begin_object();
  json.field("name", "mcs");
  json.end_object();
  json.end_object();
  for (const ChromeLane& lane : lanes) {
    json.begin_object();
    json.field("name", "thread_name");
    json.field("ph", "M");
    json.field("pid", lane.pid);
    json.field("tid", lane.tid);
    json.key("args").begin_object();
    json.field("name", lane.name);
    json.end_object();
    json.end_object();
  }
  for (const ChromeEvent& event : events) {
    json.begin_object();
    json.field("name", event.name);
    json.field("cat", "mcs");
    json.field("ph", "X");
    json.field("ts", event.ts_us);
    json.field("dur", event.dur_us);
    json.field("pid", event.pid);
    json.field("tid", event.tid);
    if (!event.args.empty()) {
      json.key("args").begin_object();
      for (const auto& [key, value] : event.args) json.field(key, value);
      json.end_object();
    }
    json.end_object();
    if (event.flow_out >= 0) {
      json.begin_object();
      json.field("name", "round");
      json.field("cat", "mcs");
      json.field("ph", "s");
      json.field("id", event.flow_out);
      json.field("ts", event.ts_us + event.dur_us);
      json.field("pid", event.pid);
      json.field("tid", event.tid);
      json.end_object();
    }
    if (event.flow_in >= 0) {
      json.begin_object();
      json.field("name", "round");
      json.field("cat", "mcs");
      json.field("ph", "f");
      json.field("bp", "e");
      json.field("id", event.flow_in);
      json.field("ts", event.ts_us);
      json.field("pid", event.pid);
      json.field("tid", event.tid);
      json.end_object();
    }
  }
  json.end_array();
  json.field("displayTimeUnit", "ms");
  if (!meta.empty()) {
    json.key("otherData").begin_object();
    for (const auto& [key, value] : meta) json.field(key, value);
    json.end_object();
  }
  json.end_object();
  os << '\n';
}

void render_trace_text(std::ostream& os, const TraceCollector& trace) {
  for (const SpanRecord& span : trace.spans()) {
    for (int i = 0; i < span.depth; ++i) os << "  ";
    os << span.name << "  ";
    const double us = static_cast<double>(span.duration_us);
    char buf[64];
    if (us >= 1e6) {
      std::snprintf(buf, sizeof buf, "%.2f s", us / 1e6);
    } else if (us >= 1e3) {
      std::snprintf(buf, sizeof buf, "%.2f ms", us / 1e3);
    } else {
      std::snprintf(buf, sizeof buf, "%lld us",
                    static_cast<long long>(span.duration_us));
    }
    os << buf << '\n';
  }
}

}  // namespace mcs::obs
