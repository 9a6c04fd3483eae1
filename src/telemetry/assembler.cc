#include "telemetry/assembler.h"

#include <algorithm>
#include <cinttypes>
#include <map>

#include "telemetry/export.h"

namespace pvn::telemetry {
namespace {

// Causal depth of each span in the stitched tree: root = 0, child = parent
// + 1. Orphans (parent id absent — e.g. the parent fell off the ring) count
// from their carried hop so they still sort deeper than true roots.
std::map<std::uint64_t, int> tree_depths(const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) by_id[s.span_id] = &s;
  std::map<std::uint64_t, int> depth;
  for (const SpanRecord& s : spans) {
    int d = 0;
    const SpanRecord* cur = &s;
    // Bounded walk: traces are small and the tree is acyclic by
    // construction (parents have smaller span ids), but cap defensively.
    for (int hop = 0; hop < 64; ++hop) {
      if (cur->parent_span == 0) break;
      const auto it = by_id.find(cur->parent_span);
      if (it == by_id.end()) {
        ++d;  // orphaned link still witnesses one causal hop
        break;
      }
      cur = it->second;
      ++d;
    }
    depth[s.span_id] = d;
  }
  return depth;
}

}  // namespace

std::string AssembledTrace::root_name() const {
  for (const SpanRecord& s : spans) {
    if (s.parent_span == 0) return s.name;
  }
  return spans.empty() ? "" : spans.front().name;
}

void TraceAssembler::add(const std::vector<SpanRecord>& records) {
  for (const SpanRecord& r : records) {
    if (r.trace_id != 0) records_.push_back(r);
  }
}

std::vector<AssembledTrace> TraceAssembler::traces() const {
  std::map<std::uint64_t, AssembledTrace> by_trace;
  for (const SpanRecord& r : records_) {
    AssembledTrace& t = by_trace[r.trace_id];
    t.trace_id = r.trace_id;
    if (t.session.empty() && !r.session.empty()) t.session = r.session;
    t.spans.push_back(r);
  }
  std::vector<AssembledTrace> out;
  out.reserve(by_trace.size());
  for (auto& [id, t] : by_trace) {
    std::sort(t.spans.begin(), t.spans.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                if (a.start != b.start) return a.start < b.start;
                return a.seq < b.seq;
              });
    t.start = t.spans.front().start;
    t.end = t.start;
    for (const SpanRecord& s : t.spans) {
      t.end = std::max(t.end, s.end >= 0 ? s.end : s.start);
    }

    // Critical path: partition [start, end] by the causally deepest span
    // active at each instant. Open spans are treated as covering through
    // the trace end (they are still "where the time went").
    const std::map<std::uint64_t, int> depth = tree_depths(t.spans);
    std::vector<SimTime> cuts;
    for (const SpanRecord& s : t.spans) {
      cuts.push_back(s.start);
      cuts.push_back(s.end >= 0 ? s.end : t.end);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      const SimTime lo = cuts[i];
      const SimTime hi = cuts[i + 1];
      const SpanRecord* owner = nullptr;
      int owner_depth = -1;
      for (const SpanRecord& s : t.spans) {
        const SimTime s_end = s.end >= 0 ? s.end : t.end;
        if (s.start > lo || s_end < hi || s.start == s_end) continue;
        const auto dit = depth.find(s.span_id);
        const int d = dit == depth.end() ? 0 : dit->second;
        const bool deeper =
            owner == nullptr || d > owner_depth ||
            (d == owner_depth && (s.start > owner->start ||
                                  (s.start == owner->start &&
                                   s.seq > owner->seq)));
        if (deeper) {
          owner = &s;
          owner_depth = d;
        }
      }
      if (owner == nullptr) continue;  // gap: no span active (shouldn't
                                       // happen inside the root interval)
      if (!t.critical.empty() &&
          t.critical.back().span_id == owner->span_id &&
          t.critical.back().end == lo) {
        t.critical.back().end = hi;  // merge contiguous same-owner segments
      } else {
        t.critical.push_back(
            CriticalSegment{owner->span_id, owner->name, owner->node, lo, hi});
      }
    }
    out.push_back(std::move(t));
  }
  return out;
}

std::optional<AssembledTrace> TraceAssembler::latest_for_session(
    std::string_view session) const {
  std::optional<AssembledTrace> best;
  for (AssembledTrace& t : traces()) {
    if (t.session != session) continue;
    if (!best.has_value() || t.trace_id > best->trace_id) {
      best = std::move(t);
    }
  }
  return best;
}

std::string TraceAssembler::chrome_json(
    const std::vector<AssembledTrace>& traces) {
  // Stable node -> pid mapping across all traces, in first-seen span order
  // (deterministic: spans are sorted by simulation state).
  std::vector<std::string> nodes;
  const auto pid_of = [&nodes](const std::string& node) {
    const std::string& key = node.empty() ? std::string("?") : node;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i] == key) return static_cast<int>(i + 1);
    }
    nodes.push_back(key);
    return static_cast<int>(nodes.size());
  };

  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&out, &first] {
    if (!first) out += ",\n";
    first = false;
  };
  for (const AssembledTrace& t : traces) {
    std::map<std::uint64_t, const SpanRecord*> by_id;
    for (const SpanRecord& s : t.spans) by_id[s.span_id] = &s;
    for (const SpanRecord& s : t.spans) {
      const int pid = pid_of(s.node);
      const SimTime end = s.end >= 0 ? s.end : t.end;
      sep();
      append(out,
             "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
             "\"dur\":%.3f,\"pid\":%d,\"tid\":%" PRIu64
             ",\"args\":{\"session\":\"%s\",\"span\":%" PRIu64
             ",\"parent\":%" PRIu64 "}}",
             json_escape(s.name).c_str(), json_escape(s.category).c_str(),
             static_cast<double>(s.start) / 1000.0,
             static_cast<double>(end - s.start) / 1000.0, pid, t.trace_id,
             json_escape(s.session).c_str(), s.span_id, s.parent_span);
      // Causality crossing nodes gets a flow arrow: start ("s") on the
      // parent's track where the child was caused, finish ("f") where the
      // child began executing.
      const auto pit = by_id.find(s.parent_span);
      if (pit == by_id.end() || pit->second->node == s.node) continue;
      const SpanRecord& p = *pit->second;
      const int ppid = pid_of(p.node);
      const SimTime anchor =
          std::max(p.start, std::min(s.start, p.end >= 0 ? p.end : t.end));
      sep();
      append(out,
             "{\"name\":\"causes\",\"cat\":\"trace\",\"ph\":\"s\",\"id\":%"
             PRIu64 ",\"ts\":%.3f,\"pid\":%d,\"tid\":%" PRIu64 "}",
             s.span_id, static_cast<double>(anchor) / 1000.0, ppid,
             t.trace_id);
      sep();
      append(out,
             "{\"name\":\"causes\",\"cat\":\"trace\",\"ph\":\"f\",\"bp\":"
             "\"e\",\"id\":%" PRIu64 ",\"ts\":%.3f,\"pid\":%d,\"tid\":%"
             PRIu64 "}",
             s.span_id, static_cast<double>(s.start) / 1000.0, pid,
             t.trace_id);
    }
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    sep();
    append(out,
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{"
           "\"name\":\"%s\"}}",
           static_cast<int>(i + 1), json_escape(nodes[i]).c_str());
  }
  out += "\n]}\n";
  return out;
}

}  // namespace pvn::telemetry
