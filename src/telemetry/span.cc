#include "telemetry/span.h"

#include <algorithm>

namespace pvn::telemetry {

SpanRecorder::SpanRecorder(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

SpanRecorder& SpanRecorder::global() {
  static SpanRecorder recorder;
  return recorder;
}

int SpanRecorder::open_depth(std::string_view session) const {
  const auto it = open_by_session_.find(session);
  return it == open_by_session_.end() ? 0 : it->second;
}

int SpanRecorder::open_one(std::string_view session) {
  auto it = open_by_session_.find(session);
  if (it == open_by_session_.end()) {
    it = open_by_session_.emplace(std::string(session), 0).first;
  }
  return it->second++;
}

void SpanRecorder::close_one(std::string_view session) {
  const auto it = open_by_session_.find(session);
  if (it != open_by_session_.end() && --it->second == 0) {
    open_by_session_.erase(it);
  }
}

SpanRecord& SpanRecorder::claim(std::string_view name,
                                std::string_view category,
                                std::string_view session) {
  SpanRecord& r = ring_[next_seq_ % ring_.size()];
  if (next_seq_ >= ring_.size() && r.end < 0) {
    // Wrapping past a span that is still open: keep it on the side list so
    // export can emit an incomplete ("B"-only) event and a late finish()
    // still lands, instead of silently dropping it.
    if (evicted_open_.size() >= ring_.size()) {
      // Side list full: the oldest evictee really is lost. Close out its
      // depth accounting now — its finish() will miss everywhere.
      close_one(evicted_open_.front().session);
      evicted_open_.erase(evicted_open_.begin());
    }
    evicted_open_.push_back(r);
  }
  r.seq = next_seq_++;
  r.name.assign(name);
  r.category.assign(category);
  r.session.assign(session);
  r.start = now();
  r.end = -1;
  r.trace_id = 0;
  r.span_id = 0;
  r.parent_span = 0;
  r.node.clear();
  last_time_ = std::max(last_time_, r.start);
  return r;
}

Span SpanRecorder::start(std::string_view name, std::string_view category,
                         std::string_view session) {
  SpanRecord& r = claim(name, category, session);
  r.depth = open_one(session);
  return Span(this, r.seq);
}

Span SpanRecorder::start(std::string_view name, std::string_view category,
                         std::string_view session, const TraceContext& parent,
                         std::string_view node) {
  SpanRecord& r = claim(name, category, session);
  r.depth = open_one(session);
  r.node.assign(node);
  if (!parent.valid()) return Span(this, r.seq);
  r.trace_id = parent.trace_id;
  r.span_id = r.seq + 1;  // nonzero, unique, deterministic
  r.parent_span = parent.parent_span;
  return Span(this, r.seq, TraceContext{r.trace_id, r.span_id, parent.seq + 1});
}

void SpanRecorder::instant(std::string_view name, std::string_view category,
                           std::string_view session) {
  SpanRecord& r = claim(name, category, session);
  r.depth = open_depth(session);
  r.end = r.start;
}

void SpanRecorder::instant(std::string_view name, std::string_view category,
                           std::string_view session, const TraceContext& parent,
                           std::string_view node) {
  SpanRecord& r = claim(name, category, session);
  r.depth = open_depth(session);
  r.end = r.start;
  r.node.assign(node);
  if (!parent.valid()) return;
  r.trace_id = parent.trace_id;
  r.span_id = r.seq + 1;
  r.parent_span = parent.parent_span;
}

void SpanRecorder::finish_span(std::uint64_t seq) {
  SpanRecord* r = &ring_[seq % ring_.size()];
  if (r->seq != seq) {
    // The ring wrapped past this span; it may live on the evicted list.
    r = nullptr;
    for (SpanRecord& e : evicted_open_) {
      if (e.seq == seq) {
        r = &e;
        break;
      }
    }
    if (r == nullptr) return;  // truly lost (side list overflowed)
  }
  if (r->end < 0) r->end = std::max(r->start, now());
  last_time_ = std::max(last_time_, r->end);
  close_one(r->session);
}

std::vector<SpanRecord> SpanRecorder::records() const {
  std::vector<SpanRecord> out;
  const std::uint64_t count =
      std::min<std::uint64_t>(next_seq_, ring_.size());
  out.reserve(count + evicted_open_.size());
  // Evicted-open spans first: their seqs predate everything in the ring.
  out.insert(out.end(), evicted_open_.begin(), evicted_open_.end());
  const std::uint64_t first = next_seq_ - count;
  for (std::uint64_t seq = first; seq < next_seq_; ++seq) {
    out.push_back(ring_[seq % ring_.size()]);
  }
  return out;
}

void SpanRecorder::clear() {
  for (SpanRecord& r : ring_) r = SpanRecord{};
  next_seq_ = 0;
  next_trace_id_ = 0;
  last_time_ = 0;
  open_by_session_.clear();
  evicted_open_.clear();
}

}  // namespace pvn::telemetry
