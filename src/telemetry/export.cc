#include "telemetry/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <map>

namespace pvn::telemetry {
namespace {

std::string sanitize(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    if (c == '.' || c == '-') c = '_';
  }
  return out;
}

// Prometheus exposition format escapes for label values: backslash,
// double-quote, and newline (NOT json's \uXXXX control escapes).
std::string prom_escape_label(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

// HELP text escapes only backslash and newline.
std::string prom_escape_help(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
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
  return out;
}

void append(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) out.append(buf, std::min<std::size_t>(static_cast<std::size_t>(n),
                                                   sizeof(buf) - 1));
}

std::string prometheus_text(const MetricsSnapshot& snap) {
  std::string out;
  std::string last_typed;
  for (const MetricSample& s : snap.samples) {
    const std::string name = sanitize(s.name);
    if (name != last_typed) {
      const char* type = s.kind == MetricKind::kCounter   ? "counter"
                         : s.kind == MetricKind::kGauge   ? "gauge"
                                                          : "histogram";
      const auto help_it = snap.help.find(s.name);
      const std::string help = help_it != snap.help.end()
                                   ? prom_escape_help(help_it->second)
                                   : "PVN metric " + s.name;
      append(out, "# HELP %s %s\n", name.c_str(), help.c_str());
      append(out, "# TYPE %s %s\n", name.c_str(), type);
      last_typed = name;
    }
    const std::string inst =
        s.instance.empty()
            ? ""
            : "instance=\"" + prom_escape_label(s.instance) + "\"";
    switch (s.kind) {
      case MetricKind::kCounter:
        if (inst.empty()) {
          append(out, "%s %" PRIu64 "\n", name.c_str(), s.counter_value);
        } else {
          append(out, "%s{%s} %" PRIu64 "\n", name.c_str(), inst.c_str(),
                 s.counter_value);
        }
        break;
      case MetricKind::kGauge:
        if (inst.empty()) {
          append(out, "%s %" PRId64 "\n", name.c_str(), s.gauge_value);
        } else {
          append(out, "%s{%s} %" PRId64 "\n", name.c_str(), inst.c_str(),
                 s.gauge_value);
        }
        break;
      case MetricKind::kHistogram: {
        // Prometheus buckets are cumulative.
        std::uint64_t cumulative = 0;
        const std::string sep = inst.empty() ? "" : inst + ",";
        for (std::size_t i = 0; i < s.bucket_counts.size(); ++i) {
          cumulative += s.bucket_counts[i];
          if (i < s.bounds.size()) {
            append(out, "%s_bucket{%sle=\"%" PRIu64 "\"} %" PRIu64 "\n",
                   name.c_str(), sep.c_str(), s.bounds[i], cumulative);
          } else {
            append(out, "%s_bucket{%sle=\"+Inf\"} %" PRIu64 "\n",
                   name.c_str(), sep.c_str(), cumulative);
          }
        }
        if (inst.empty()) {
          append(out, "%s_sum %" PRIu64 "\n", name.c_str(), s.hist_sum);
          append(out, "%s_count %" PRIu64 "\n", name.c_str(), s.hist_count);
        } else {
          append(out, "%s_sum{%s} %" PRIu64 "\n", name.c_str(), inst.c_str(),
                 s.hist_sum);
          append(out, "%s_count{%s} %" PRIu64 "\n", name.c_str(), inst.c_str(),
                 s.hist_count);
        }
        break;
      }
    }
  }
  return out;
}

std::string metrics_json(const MetricsSnapshot& snap) {
  std::string out = "{\n  \"metrics\": [\n";
  for (std::size_t idx = 0; idx < snap.samples.size(); ++idx) {
    const MetricSample& s = snap.samples[idx];
    append(out, "    {\"name\": \"%s\", \"instance\": \"%s\", ",
           json_escape(s.name).c_str(), json_escape(s.instance).c_str());
    switch (s.kind) {
      case MetricKind::kCounter:
        append(out, "\"kind\": \"counter\", \"value\": %" PRIu64 "}",
               s.counter_value);
        break;
      case MetricKind::kGauge:
        append(out, "\"kind\": \"gauge\", \"value\": %" PRId64 "}",
               s.gauge_value);
        break;
      case MetricKind::kHistogram: {
        out += "\"kind\": \"histogram\", \"bounds\": [";
        for (std::size_t i = 0; i < s.bounds.size(); ++i) {
          append(out, "%s%" PRIu64, i ? ", " : "", s.bounds[i]);
        }
        out += "], \"counts\": [";
        for (std::size_t i = 0; i < s.bucket_counts.size(); ++i) {
          append(out, "%s%" PRIu64, i ? ", " : "", s.bucket_counts[i]);
        }
        append(out, "], \"sum\": %" PRIu64 ", \"count\": %" PRIu64 "}",
               s.hist_sum, s.hist_count);
        break;
      }
    }
    out += idx + 1 < snap.samples.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string trace_events_json(const std::vector<SpanRecord>& records,
                              SimTime now) {
  (void)now;  // open spans render as "B"-only now; kept for API stability
  // One trace track (tid) per session id, in first-seen order.
  std::map<std::string, int> tids;
  const auto tid_of = [&tids](const std::string& session) {
    const auto it = tids.find(session);
    if (it != tids.end()) return it->second;
    const int tid = static_cast<int>(tids.size()) + 1;
    tids[session] = tid;
    return tid;
  };

  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  for (const SpanRecord& r : records) {
    const int tid = tid_of(r.session);
    const double ts_us = static_cast<double>(r.start) / 1000.0;
    if (!first) out += ",\n";
    first = false;
    if (r.end == r.start) {
      append(out,
             "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"i\", "
             "\"ts\": %.3f, \"pid\": 1, \"tid\": %d, \"s\": \"t\"}",
             json_escape(r.name).c_str(), json_escape(r.category).c_str(),
             ts_us, tid);
    } else if (r.end < 0) {
      // Still open at export time (possibly evicted from the ring while
      // open): a begin-only event renders as incomplete in the viewer
      // instead of pretending the span closed.
      append(out,
             "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"B\", "
             "\"ts\": %.3f, \"pid\": 1, \"tid\": %d, "
             "\"args\": {\"depth\": %d}}",
             json_escape(r.name).c_str(), json_escape(r.category).c_str(),
             ts_us, tid, r.depth);
    } else {
      const double dur_us = static_cast<double>(r.end - r.start) / 1000.0;
      append(out,
             "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
             "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
             "\"args\": {\"depth\": %d}}",
             json_escape(r.name).c_str(), json_escape(r.category).c_str(),
             ts_us, dur_us, tid, r.depth);
    }
  }
  // Name each track after its session id so the viewer shows device ids.
  for (const auto& [session, tid] : tids) {
    if (!first) out += ",\n";
    first = false;
    append(out,
           "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": %d, \"args\": {\"name\": \"%s\"}}",
           tid, json_escape(session.empty() ? "global" : session).c_str());
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

std::string profile_json(const SimProfile& profile) {
  std::string out = "{\n  \"categories\": [\n";
  for (std::size_t i = 0; i < kSimCategoryCount; ++i) {
    const SimProfile::Entry& e = profile.by_category[i];
    append(out,
           "    {\"category\": \"%s\", \"events\": %" PRIu64
           ", \"wall_ns\": %" PRIu64 "}%s\n",
           to_string(static_cast<SimCategory>(i)), e.events, e.wall_ns,
           i + 1 < kSimCategoryCount ? "," : "");
  }
  append(out,
         "  ],\n  \"total_events\": %" PRIu64 ",\n  \"total_wall_ns\": %" PRIu64
         "\n}\n",
         profile.total_events(), profile.total_wall_ns());
  return out;
}

namespace {

bool write_file(const std::filesystem::path& path, const std::string& body) {
  std::FILE* f = std::fopen(path.string().c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "telemetry: cannot write %s\n", path.string().c_str());
    return false;
  }
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  return ok;
}

}  // namespace

bool export_telemetry(const std::string& dir, const MetricsRegistry& registry,
                      const SpanRecorder& spans, const SimProfile* profile) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "telemetry: cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return false;
  }
  const std::filesystem::path base(dir);
  const MetricsSnapshot snap = registry.snapshot();
  bool ok = write_file(base / "metrics.prom", prometheus_text(snap));
  ok = write_file(base / "metrics.json", metrics_json(snap)) && ok;
  ok = write_file(base / "trace_events.json", trace_events_json(spans)) && ok;
  if (profile != nullptr) {
    ok = write_file(base / "profile.json", profile_json(*profile)) && ok;
  }
  return ok;
}

}  // namespace pvn::telemetry
