// TCP-terminating proxy middleboxes.
//
// These change byte counts / timing, so unlike the inline modules they
// re-originate connections (the paper's §2.2 "In-network optimizations"):
//   SplitTcpProxy    — terminates TCP near the client and opens a second
//                      connection to the server (E6: who wins and when)
//   TranscodingProxy — HTTP proxy that shrinks video/image bodies (Fig. 1a's
//                      "Transcoder/Compressor" box)
//   PrefetchingProxy — HTTP proxy that prefetches into an in-network cache
//                      so unused prefetches never cross the access link (§4)
#pragma once

#include <deque>
#include <map>

#include "proto/http.h"

namespace pvn {

// --- SplitTcpProxy ------------------------------------------------------------

class SplitTcpProxy : public Host {
 public:
  // Accepts on `listen_port`; each accepted connection is bridged to
  // `upstream`:`upstream_port`.
  SplitTcpProxy(Network& net, std::string name, Ipv4Addr addr,
                Ipv4Addr upstream, Port upstream_port, Port listen_port);
  ~SplitTcpProxy() override;

  std::uint64_t connections_bridged() const { return bridged_; }
  std::uint64_t bytes_upstream() const { return bytes_up_; }
  std::uint64_t bytes_downstream() const { return bytes_down_; }

 private:
  struct Bridge;
  void on_accept(TcpConnection& client);

  Ipv4Addr upstream_;
  Port upstream_port_;
  std::uint64_t bridged_ = 0;
  std::uint64_t bytes_up_ = 0;
  std::uint64_t bytes_down_ = 0;
  std::vector<std::unique_ptr<Bridge>> bridges_;
};

// --- TranscodingProxy -----------------------------------------------------------

struct TranscodeConfig {
  // Content-Type substrings that get transcoded, with the size ratio kept.
  // E.g. {"video", 0.4} -> video bodies shrink to 40%.
  std::map<std::string, double> ratios = {{"video", 0.4}, {"image", 0.5}};
  SimDuration processing_delay = milliseconds(5);  // per response
};

class TranscodingProxy : public Host {
 public:
  TranscodingProxy(Network& net, std::string name, Ipv4Addr addr,
                   Ipv4Addr upstream, Port listen_port = 8080,
                   TranscodeConfig cfg = {});
  ~TranscodingProxy() override;

  std::uint64_t responses_transcoded() const { return transcoded_; }
  std::uint64_t bytes_saved() const { return bytes_saved_; }

 private:
  struct ProxyConn;
  void on_accept(TcpConnection& client);
  HttpResponse maybe_transcode(HttpResponse resp);

  Ipv4Addr upstream_;
  TranscodeConfig cfg_;
  HttpClient http_;
  std::uint64_t transcoded_ = 0;
  std::uint64_t bytes_saved_ = 0;
  std::vector<std::unique_ptr<ProxyConn>> conns_;
};

// --- PrefetchingProxy ------------------------------------------------------------

class PrefetchingProxy : public Host {
 public:
  PrefetchingProxy(Network& net, std::string name, Ipv4Addr addr,
                   Ipv4Addr upstream, Port listen_port = 8081);
  ~PrefetchingProxy() override;

  // Warms the cache with these paths (runs upstream fetches immediately).
  void prefetch(const std::vector<std::string>& paths);

  std::uint64_t cache_hits() const { return hits_; }
  std::uint64_t cache_misses() const { return misses_; }
  std::size_t cached_entries() const { return cache_.size(); }

 private:
  struct ProxyConn;
  void on_accept(TcpConnection& client);
  void respond(TcpConnection& client, const HttpResponse& resp);

  Ipv4Addr upstream_;
  HttpClient http_;
  std::map<std::string, HttpResponse> cache_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::vector<std::unique_ptr<ProxyConn>> conns_;
};

}  // namespace pvn
