#include "workload/generators.h"

#include <algorithm>

namespace pvn {

int LoadStats::ok_count() const {
  int n = 0;
  for (const FetchTiming& t : timings) n += t.ok ? 1 : 0;
  return n;
}

SimDuration LoadStats::mean_total() const {
  if (timings.empty()) return 0;
  SimDuration sum = 0;
  for (const FetchTiming& t : timings) sum += t.total();
  return sum / static_cast<SimDuration>(timings.size());
}

SimDuration LoadStats::p95_total() const {
  if (timings.empty()) return 0;
  std::vector<SimDuration> totals;
  totals.reserve(timings.size());
  for (const FetchTiming& t : timings) totals.push_back(t.total());
  std::sort(totals.begin(), totals.end());
  const std::size_t idx =
      std::min(totals.size() - 1, (totals.size() * 95) / 100);
  return totals[idx];
}

std::uint64_t LoadStats::total_bytes() const {
  std::uint64_t sum = 0;
  for (const FetchTiming& t : timings) sum += t.body_bytes;
  return sum;
}

HttpLoadGen::HttpLoadGen(Host& client) : client_(&client), http_(client) {}

void HttpLoadGen::run(Ipv4Addr server, Port port, const std::string& path,
                      int count, SimDuration think_time, Callback done) {
  server_ = server;
  port_ = port;
  path_ = path;
  remaining_ = count;
  think_ = think_time;
  stats_ = LoadStats{};
  done_ = std::move(done);
  next();
}

void HttpLoadGen::next() {
  if (remaining_ == 0) {
    if (done_) done_(stats_);
    return;
  }
  --remaining_;
  http_.fetch(server_, port_, path_,
              [this](const HttpResponse&, const FetchTiming& timing) {
                stats_.timings.push_back(timing);
                client_->sim().schedule_after(think_, SimCategory::kWorkload, [this] { next(); });
              });
}

VideoStreamer::VideoStreamer(Host& client) : client_(&client), http_(client) {}

void VideoStreamer::run(Ipv4Addr server, Port port, int segments,
                        std::size_t segment_bytes, SimDuration segment_seconds,
                        Callback done) {
  server_ = server;
  port_ = port;
  total_ = segments;
  fetched_ = 0;
  segment_bytes_ = segment_bytes;
  segment_duration_ = segment_seconds;
  mbps_sum_ = 0;
  stats_ = VideoStats{};
  done_ = std::move(done);
  next();
}

void VideoStreamer::next() {
  if (fetched_ == total_) {
    stats_.segments = total_;
    stats_.mean_segment_mbps = total_ > 0 ? mbps_sum_ / total_ : 0;
    if (done_) done_(stats_);
    return;
  }
  const std::string path = "/video/seg-" + std::to_string(fetched_);
  ++fetched_;
  http_.fetch(server_, port_, path,
              [this](const HttpResponse&, const FetchTiming& timing) {
                stats_.bytes += timing.body_bytes;
                if (timing.total() > segment_duration_) ++stats_.rebuffers;
                if (timing.total() > 0) {
                  mbps_sum_ += static_cast<double>(timing.body_bytes) * 8.0 /
                               to_seconds(timing.total()) / 1e6;
                }
                next();
              });
}

void install_video_server(HttpServer& server, std::size_t segment_bytes) {
  server.set_handler([segment_bytes](const HttpRequest& req) {
    if (req.path.rfind("/video/", 0) == 0) {
      HttpResponse resp;
      resp.body = periodic_body(segment_bytes, 'v', 17);
      resp.set_header("Content-Type", "video/mp4");
      return resp;
    }
    return synthesize_response(req);
  });
}

TelemetryEmitter::TelemetryEmitter(Host& client, Ipv4Addr collector, Port port,
                                   std::vector<std::string> pii_values)
    : client_(&client),
      http_(client),
      collector_(collector),
      port_(port),
      pii_(std::move(pii_values)) {}

void TelemetryEmitter::start(int count, SimDuration interval) {
  remaining_ = count;
  interval_ = interval;
  emit();
}

void TelemetryEmitter::emit() {
  if (remaining_ == 0) return;
  --remaining_;
  std::string body = "event=heartbeat";
  for (const std::string& pii : pii_) body += "&" + pii;
  http_.fetch(collector_, port_, "/collect",
              [this](const HttpResponse&, const FetchTiming&) { ++sent_; },
              {{"Content-Type", "application/x-www-form-urlencoded"}},
              to_bytes(body), "POST");
  client_->sim().schedule_after(interval_, SimCategory::kWorkload, [this] { emit(); });
}

}  // namespace pvn
