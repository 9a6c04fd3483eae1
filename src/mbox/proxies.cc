#include "mbox/proxies.h"

namespace pvn {

// --- SplitTcpProxy ------------------------------------------------------------

struct SplitTcpProxy::Bridge {
  TcpConnection* client = nullptr;
  TcpConnection* upstream = nullptr;
  Bytes pending_up;  // client bytes received before upstream established
  bool upstream_ready = false;
};

SplitTcpProxy::SplitTcpProxy(Network& net, std::string name, Ipv4Addr addr,
                             Ipv4Addr upstream, Port upstream_port,
                             Port listen_port)
    : Host(net, std::move(name), addr),
      upstream_(upstream),
      upstream_port_(upstream_port) {
  tcp_listen(listen_port, [this](TcpConnection& c) { on_accept(c); });
}

void SplitTcpProxy::on_accept(TcpConnection& client) {
  ++bridged_;
  auto bridge = std::make_unique<Bridge>();
  Bridge* b = bridge.get();
  b->client = &client;
  b->upstream = &tcp_connect(upstream_, upstream_port_);

  b->upstream->on_connected = [this, b] {
    b->upstream_ready = true;
    if (!b->pending_up.empty()) {
      bytes_up_ += b->pending_up.size();
      b->upstream->send(std::move(b->pending_up));
      b->pending_up.clear();
    }
  };
  b->client->on_data = [this, b](const Bytes& data) {
    if (b->upstream_ready) {
      bytes_up_ += data.size();
      b->upstream->send(data);
    } else {
      b->pending_up.insert(b->pending_up.end(), data.begin(), data.end());
    }
  };
  b->upstream->on_data = [this, b](const Bytes& data) {
    bytes_down_ += data.size();
    b->client->send(data);
  };
  // Half-close propagation in both directions.
  b->client->on_eof = [b] { b->upstream->close(); };
  b->upstream->on_eof = [b] { b->client->close(); };
  b->client->on_closed = [b] {
    if (b->upstream->state() != TcpConnection::State::kClosed &&
        b->upstream->unsent_bytes() == 0) {
      b->upstream->close();
    }
  };
  b->upstream->on_closed = [b] {
    if (b->client->state() != TcpConnection::State::kClosed &&
        b->client->unsent_bytes() == 0) {
      b->client->close();
    }
  };
  bridges_.push_back(std::move(bridge));
}

// --- TranscodingProxy -----------------------------------------------------------

struct TranscodingProxy::ProxyConn {
  TcpConnection* client = nullptr;
  HttpParser parser{HttpParser::Kind::kRequest, nullptr, nullptr};
};

TranscodingProxy::TranscodingProxy(Network& net, std::string name,
                                   Ipv4Addr addr, Ipv4Addr upstream,
                                   Port listen_port, TranscodeConfig cfg)
    : Host(net, std::move(name), addr),
      upstream_(upstream),
      cfg_(cfg),
      http_(*this) {
  tcp_listen(listen_port, [this](TcpConnection& c) { on_accept(c); });
}

HttpResponse TranscodingProxy::maybe_transcode(HttpResponse resp) {
  const std::string* content_type = resp.header("Content-Type");
  if (content_type == nullptr) return resp;
  for (const auto& [needle, ratio] : cfg_.ratios) {
    if (content_type->find(needle) == std::string::npos) continue;
    const std::size_t original = resp.body.size();
    const auto target = static_cast<std::size_t>(
        static_cast<double>(original) * ratio);
    if (target >= original) break;
    resp.body.resize(target);
    resp.set_header("Content-Length", std::to_string(target));
    resp.set_header("X-Transcoded", "1");
    ++transcoded_;
    bytes_saved_ += original - target;
    break;
  }
  return resp;
}

void TranscodingProxy::on_accept(TcpConnection& client) {
  auto state = std::make_unique<ProxyConn>();
  ProxyConn* s = state.get();
  s->client = &client;
  s->parser = HttpParser(
      HttpParser::Kind::kRequest,
      [this, s](HttpRequest req) {
        http_.fetch(
            upstream_, 80, req.path,
            [this, s](const HttpResponse& resp, const FetchTiming&) {
              // Charge the transcoding compute time before replying.
              sim().schedule_after(cfg_.processing_delay, SimCategory::kMbox,
                                   [this, s, resp]() mutable {
                                     const HttpResponse out =
                                         maybe_transcode(std::move(resp));
                                     s->client->send(out.serialize());
                                   });
            },
            req.headers, req.body, req.method);
      },
      nullptr);
  client.on_data = [s](const Bytes& data) { s->parser.feed(data); };
  client.on_eof = [s] { s->client->close(); };
  conns_.push_back(std::move(state));
}

// --- PrefetchingProxy ------------------------------------------------------------

struct PrefetchingProxy::ProxyConn {
  TcpConnection* client = nullptr;
  HttpParser parser{HttpParser::Kind::kRequest, nullptr, nullptr};
};

PrefetchingProxy::PrefetchingProxy(Network& net, std::string name,
                                   Ipv4Addr addr, Ipv4Addr upstream,
                                   Port listen_port)
    : Host(net, std::move(name), addr), upstream_(upstream), http_(*this) {
  tcp_listen(listen_port, [this](TcpConnection& c) { on_accept(c); });
}

void PrefetchingProxy::prefetch(const std::vector<std::string>& paths) {
  for (const std::string& path : paths) {
    if (cache_.contains(path)) continue;
    http_.fetch(upstream_, 80, path,
                [this, path](const HttpResponse& resp, const FetchTiming& t) {
                  if (t.ok) cache_[path] = resp;
                });
  }
}

void PrefetchingProxy::respond(TcpConnection& client,
                               const HttpResponse& resp) {
  client.send(resp.serialize());
}

void PrefetchingProxy::on_accept(TcpConnection& client) {
  auto state = std::make_unique<ProxyConn>();
  ProxyConn* s = state.get();
  s->client = &client;
  s->parser = HttpParser(
      HttpParser::Kind::kRequest,
      [this, s](HttpRequest req) {
        if (const auto it = cache_.find(req.path); it != cache_.end()) {
          ++hits_;
          respond(*s->client, it->second);
          return;
        }
        ++misses_;
        http_.fetch(upstream_, 80, req.path,
                    [this, s, path = req.path](const HttpResponse& resp,
                                               const FetchTiming& t) {
                      if (t.ok) cache_[path] = resp;
                      respond(*s->client, resp);
                    },
                    req.headers, req.body, req.method);
      },
      nullptr);
  client.on_data = [s](const Bytes& data) { s->parser.feed(data); };
  client.on_eof = [s] { s->client->close(); };
  conns_.push_back(std::move(state));
}

// Out of line so the unique_ptr members destroy with complete types.
SplitTcpProxy::~SplitTcpProxy() = default;
TranscodingProxy::~TranscodingProxy() = default;
PrefetchingProxy::~PrefetchingProxy() = default;

}  // namespace pvn
