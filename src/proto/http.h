// HTTP-lite: a text-shaped request/response protocol over TCP.
//
// Real-enough for the paper's workloads: headers are plaintext (so the PII
// detector and classifier middleboxes can inspect them), bodies have
// Content-Length framing, and a server can synthesize payloads of any size
// ("/bytes/N") for download experiments.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "proto/host.h"

namespace pvn {

struct HttpRequest {
  std::string method = "GET";
  std::string path = "/";
  std::vector<std::pair<std::string, std::string>> headers;
  Bytes body;

  const std::string* header(const std::string& name) const;
  void set_header(const std::string& name, const std::string& value);
  Bytes serialize() const;
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  std::vector<std::pair<std::string, std::string>> headers;
  Bytes body;

  const std::string* header(const std::string& name) const;
  void set_header(const std::string& name, const std::string& value);
  Bytes serialize() const;
};

// Incremental parser for one direction of an HTTP-lite stream.
// Emits complete messages via the callback. Handles pipelined messages.
//
// Each head is parsed once: the search for the blank line that ends it
// resumes where the previous feed stopped, and only the bytes of a head
// that spans feeds are buffered. Body bytes are appended straight onto the
// message under construction, which is moved out to the callback. Storage
// grows only with the bytes that have arrived, never with the declared
// Content-Length.
class HttpParser {
 public:
  enum class Kind { kRequest, kResponse };
  using RequestHandler = std::function<void(HttpRequest)>;
  using ResponseHandler = std::function<void(HttpResponse)>;

  HttpParser(Kind kind, RequestHandler on_request, ResponseHandler on_response)
      : kind_(kind),
        on_request_(std::move(on_request)),
        on_response_(std::move(on_response)) {}

  void feed(const Bytes& chunk);
  bool error() const { return error_; }

 private:
  std::size_t head_end_in(std::string_view chunk) const;
  void parse_head(std::string_view head);
  Bytes& body() { return kind_ == Kind::kRequest ? req_.body : resp_.body; }
  void emit();

  Kind kind_;
  RequestHandler on_request_;
  ResponseHandler on_response_;
  std::string head_;          // a head that has not ended yet
  bool in_body_ = false;      // head parsed; req_/resp_ awaits its body
  std::size_t body_left_ = 0;
  HttpRequest req_;
  HttpResponse resp_;
  bool error_ = false;
};

// A server application bound to a listening port of a Host.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer(Host& host, Port port = 80);
  ~HttpServer();

  // Overrides the default handler. The default serves:
  //   /bytes/N        -> N bytes of deterministic filler
  //   anything else   -> 200 with a small text body
  void set_handler(Handler handler) { handler_ = std::move(handler); }

  std::uint64_t requests_served() const { return requests_; }

 private:
  struct ConnState;
  void on_accept(TcpConnection& conn);

  Host* host_;
  Handler handler_;
  std::uint64_t requests_ = 0;
  std::vector<std::unique_ptr<ConnState>> conns_;
};

// Default content generator used by HttpServer. /bytes/N answers 400 unless
// N is a decimal no larger than the default TcpConfig::max_send_buffer
// (64 MiB); a larger body could never be sent.
HttpResponse synthesize_response(const HttpRequest& req);

// n bytes of `first + i % period` (period > 0): one period written byte by
// byte, then doubled with memcpy. Serves /bytes/N and the video segments.
Bytes periodic_body(std::size_t n, std::uint8_t first, std::size_t period);

// Timing observed by an HttpClient fetch.
struct FetchTiming {
  SimTime started = 0;
  SimTime connected = 0;
  SimTime first_byte = 0;
  SimTime completed = 0;
  bool ok = false;
  std::size_t body_bytes = 0;

  SimDuration total() const { return completed - started; }
  SimDuration ttfb() const { return first_byte - started; }
};

// One-shot HTTP client: opens a connection per fetch.
class HttpClient {
 public:
  explicit HttpClient(Host& host);
  ~HttpClient();

  using Callback = std::function<void(const HttpResponse&, const FetchTiming&)>;

  // Fetches http://<dst>:<port><path>. Extra headers ride on the request
  // (the PII experiments put leaky headers there).
  void fetch(Ipv4Addr dst, Port port, const std::string& path, Callback cb,
             std::vector<std::pair<std::string, std::string>> headers = {},
             Bytes body = {}, const std::string& method = "GET");

 private:
  struct FetchState;
  Host* host_;
  std::vector<std::unique_ptr<FetchState>> fetches_;
};

}  // namespace pvn
