#include "proto/http.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <utility>

namespace pvn {
namespace {

constexpr std::string_view kHeadEnd = "\r\n\r\n";

// Most body bytes parse_head reserves from a declared Content-Length, which
// the peer controls: a lying peer can make a parser hold at most this much
// it never fills. A connection already advertises a 4 MiB receive window.
constexpr std::size_t kMaxBodyReserve = std::size_t{1} << 20;

const std::string* find_header(
    const std::vector<std::pair<std::string, std::string>>& headers,
    const std::string& name) {
  for (const auto& [k, v] : headers) {
    if (k == name) return &v;
  }
  return nullptr;
}

void append_headers(
    std::string& out,
    const std::vector<std::pair<std::string, std::string>>& headers,
    std::size_t body_size) {
  bool has_length = false;
  for (const auto& [k, v] : headers) {
    out += k;
    out += ": ";
    out += v;
    out += "\r\n";
    if (k == "Content-Length") has_length = true;
  }
  if (!has_length) {
    out += "Content-Length: " + std::to_string(body_size) + "\r\n";
  }
  out += "\r\n";
}

Bytes head_and_body(const std::string& head, const Bytes& body) {
  Bytes raw;
  raw.reserve(head.size() + body.size());
  raw.insert(raw.end(), head.begin(), head.end());
  raw.insert(raw.end(), body.begin(), body.end());
  return raw;
}

}  // namespace

const std::string* HttpRequest::header(const std::string& name) const {
  return find_header(headers, name);
}
void HttpRequest::set_header(const std::string& name,
                             const std::string& value) {
  for (auto& [k, v] : headers) {
    if (k == name) {
      v = value;
      return;
    }
  }
  headers.emplace_back(name, value);
}

const std::string* HttpResponse::header(const std::string& name) const {
  return find_header(headers, name);
}
void HttpResponse::set_header(const std::string& name,
                              const std::string& value) {
  for (auto& [k, v] : headers) {
    if (k == name) {
      v = value;
      return;
    }
  }
  headers.emplace_back(name, value);
}

Bytes HttpRequest::serialize() const {
  std::string out = method + " " + path + " HTTP/1.1\r\n";
  append_headers(out, headers, body.size());
  return head_and_body(out, body);
}

Bytes HttpResponse::serialize() const {
  std::string out =
      "HTTP/1.1 " + std::to_string(status) + " " + reason + "\r\n";
  append_headers(out, headers, body.size());
  return head_and_body(out, body);
}

void HttpParser::feed(const Bytes& chunk) {
  const std::uint8_t* p = chunk.data();
  std::size_t n = chunk.size();
  while (!error_) {
    if (in_body_) {
      const std::size_t take = std::min(n, body_left_);
      Bytes& b = body();
      b.insert(b.end(), p, p + take);
      p += take;
      n -= take;
      body_left_ -= take;
      if (body_left_ > 0) return;
      emit();
      continue;
    }
    if (n == 0) return;
    const std::string_view rest(reinterpret_cast<const char*>(p), n);
    const std::size_t used = head_end_in(rest);
    if (used == 0) {
      head_.append(rest);
      return;
    }
    if (head_.empty()) {
      parse_head(rest.substr(0, used - kHeadEnd.size()));
    } else {
      head_.append(rest.substr(0, used));
      parse_head(std::string_view(head_).substr(
          0, head_.size() - kHeadEnd.size()));
      std::string().swap(head_);
    }
    p += used;
    n -= used;
  }
}

// Bytes of `chunk` up to and including the blank line that ends the head
// being read, or 0 if the head does not end in `chunk`. head_ never holds a
// whole "\r\n\r\n", so the search resumes in its last three bytes.
std::size_t HttpParser::head_end_in(std::string_view chunk) const {
  const std::string_view held(head_);
  for (std::size_t k = std::min<std::size_t>(3, held.size()); k > 0; --k) {
    if (held.ends_with(kHeadEnd.substr(0, k)) &&
        chunk.starts_with(kHeadEnd.substr(k))) {
      return kHeadEnd.size() - k;
    }
  }
  const std::size_t at = chunk.find(kHeadEnd);
  return at == std::string_view::npos ? 0 : at + kHeadEnd.size();
}

// Parses a head (without its closing blank line) into req_ or resp_ and
// starts its body, or sets error_.
void HttpParser::parse_head(std::string_view head) {
  const std::size_t line_end = head.find("\r\n");
  const std::string first_line(head.substr(0, line_end));
  std::vector<std::pair<std::string, std::string>> headers;
  if (line_end != std::string_view::npos) {
    std::size_t pos = line_end + 2;
    while (pos < head.size()) {
      std::size_t eol = head.find("\r\n", pos);
      if (eol == std::string_view::npos) eol = head.size();
      const std::string_view line = head.substr(pos, eol - pos);
      const auto colon = line.find(": ");
      if (colon == std::string_view::npos) {
        error_ = true;
        return;
      }
      headers.emplace_back(line.substr(0, colon), line.substr(colon + 2));
      pos = eol + 2;
    }
  }
  std::size_t content_length = 0;
  if (const std::string* cl = find_header(headers, "Content-Length")) {
    const auto [p, ec] =
        std::from_chars(cl->data(), cl->data() + cl->size(), content_length);
    if (ec != std::errc() || p != cl->data() + cl->size()) {
      error_ = true;
      return;
    }
  }

  if (kind_ == Kind::kRequest) {
    const auto sp1 = first_line.find(' ');
    const auto sp2 = first_line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
      error_ = true;
      return;
    }
    req_.method = first_line.substr(0, sp1);
    req_.path = first_line.substr(sp1 + 1, sp2 - sp1 - 1);
    req_.headers = std::move(headers);
  } else {
    const auto sp1 = first_line.find(' ');
    if (sp1 == std::string::npos) {
      error_ = true;
      return;
    }
    const auto sp2 = first_line.find(' ', sp1 + 1);
    resp_.status = std::atoi(first_line.c_str() + sp1 + 1);
    resp_.reason = sp2 == std::string::npos ? "" : first_line.substr(sp2 + 1);
    resp_.headers = std::move(headers);
  }
  in_body_ = true;
  body_left_ = content_length;
  body().reserve(std::min(content_length, kMaxBodyReserve));
}

void HttpParser::emit() {
  in_body_ = false;
  if (kind_ == Kind::kRequest) {
    HttpRequest req = std::exchange(req_, HttpRequest{});
    if (on_request_) on_request_(std::move(req));
  } else {
    HttpResponse resp = std::exchange(resp_, HttpResponse{});
    if (on_response_) on_response_(std::move(resp));
  }
}

Bytes periodic_body(std::size_t n, std::uint8_t first, std::size_t period) {
  Bytes body(n);
  const std::size_t once = std::min(n, period);
  for (std::size_t i = 0; i < once; ++i) {
    body[i] = static_cast<std::uint8_t>(first + i);
  }
  // body[0, filled) is whole periods, so copying a prefix of it to `filled`
  // continues the pattern.
  for (std::size_t filled = once; filled < n;) {
    const std::size_t len = std::min(filled, n - filled);
    std::memcpy(body.data() + filled, body.data(), len);
    filled += len;
  }
  return body;
}

HttpResponse synthesize_response(const HttpRequest& req) {
  HttpResponse resp;
  if (req.path.starts_with("/bytes/")) {
    const std::string_view arg = std::string_view(req.path).substr(7);
    std::size_t n = 0;
    const auto [end, ec] =
        std::from_chars(arg.data(), arg.data() + arg.size(), n);
    if (ec != std::errc() || end != arg.data() + arg.size() ||
        n > TcpConfig{}.max_send_buffer) {
      resp.status = 400;
      resp.reason = "Bad Request";
      resp.body = to_bytes("/bytes/N needs a decimal N of at most " +
                           std::to_string(TcpConfig{}.max_send_buffer));
      resp.set_header("Content-Type", "text/plain");
      return resp;
    }
    resp.body = periodic_body(n, 'a', 23);
    resp.set_header("Content-Type", "application/octet-stream");
  } else {
    const std::string text = "hello from pvn http-lite: " + req.path;
    resp.body = to_bytes(text);
    resp.set_header("Content-Type", "text/plain");
  }
  return resp;
}

struct HttpServer::ConnState {
  TcpConnection* conn = nullptr;
  HttpParser parser{HttpParser::Kind::kRequest, nullptr, nullptr};
};

HttpServer::HttpServer(Host& host, Port port)
    : host_(&host), handler_(synthesize_response) {
  host_->tcp_listen(port, [this](TcpConnection& conn) { on_accept(conn); });
}

void HttpServer::on_accept(TcpConnection& conn) {
  auto state = std::make_unique<ConnState>();
  ConnState* s = state.get();
  s->conn = &conn;
  s->parser = HttpParser(
      HttpParser::Kind::kRequest,
      [this, s](HttpRequest req) {
        ++requests_;
        const HttpResponse resp = handler_(req);
        s->conn->send(resp.serialize());
        const std::string* connection = req.header("Connection");
        if (connection != nullptr && *connection == "close") s->conn->close();
      },
      nullptr);
  conn.on_data = [s](const Bytes& data) { s->parser.feed(data); };
  conns_.push_back(std::move(state));
}

struct HttpClient::FetchState {
  HttpParser parser{HttpParser::Kind::kResponse, nullptr, nullptr};
  FetchTiming timing;
  Callback cb;
  bool done = false;
};

void HttpClient::fetch(Ipv4Addr dst, Port port, const std::string& path,
                       Callback cb,
                       std::vector<std::pair<std::string, std::string>> headers,
                       Bytes body, const std::string& method) {
  auto state = std::make_unique<FetchState>();
  FetchState* s = state.get();
  s->cb = std::move(cb);
  s->timing.started = host_->sim().now();

  TcpConnection& conn = host_->tcp_connect(dst, port);
  HttpRequest req;
  req.method = method;
  req.path = path;
  req.headers = std::move(headers);
  req.body = std::move(body);

  s->parser = HttpParser(
      HttpParser::Kind::kResponse, nullptr, [this, s, &conn](HttpResponse resp) {
        if (s->done) return;
        s->done = true;
        s->timing.completed = host_->sim().now();
        s->timing.ok = resp.status >= 200 && resp.status < 400;
        s->timing.body_bytes = resp.body.size();
        conn.close();
        if (s->cb) s->cb(resp, s->timing);
      });

  conn.on_connected = [this, s, &conn, req = std::move(req)]() {
    s->timing.connected = host_->sim().now();
    conn.send(req.serialize());
  };
  conn.on_data = [this, s](const Bytes& data) {
    if (s->timing.first_byte == 0) s->timing.first_byte = host_->sim().now();
    s->parser.feed(data);
  };
  conn.on_closed = [this, s]() {
    if (s->done) return;
    s->done = true;
    s->timing.completed = host_->sim().now();
    s->timing.ok = false;
    HttpResponse failed;
    failed.status = 0;
    if (s->cb) s->cb(failed, s->timing);
  };
  fetches_.push_back(std::move(state));
}

// Out of line so unique_ptr<ConnState>/unique_ptr<FetchState> destroy with
// the complete types in scope.
HttpClient::HttpClient(Host& host) : host_(&host) {}
HttpServer::~HttpServer() = default;
HttpClient::~HttpClient() = default;

}  // namespace pvn
