// Tests for DNS-lite (resolution, forgery, DNSSEC-lite, quorum), TLS-lite
// (cert chains, validation failure modes, handshake, record MACs), HTTP-lite
// (codec, parser, server/client), and DHCP-lite (leases, PVN option).
#include <gtest/gtest.h>

#include "fixtures.h"
#include "proto/dhcp.h"
#include "proto/dns.h"
#include "proto/http.h"
#include "proto/tls.h"
#include "util/rng.h"

namespace pvn {
namespace {

using testing::DumbbellTopo;

LinkParams quick() {
  LinkParams lp;
  lp.rate = Rate::mbps(100);
  lp.latency = milliseconds(2);
  return lp;
}

// ---------------------------------------------------------------- DNS ------

struct DnsTopo {
  Network net;
  Host* client;
  Host* resolver1;
  Host* resolver2;
  Host* resolver3;
  Router* router;

  DnsTopo() {
    client = &net.add_node<Host>("client", Ipv4Addr(10, 0, 0, 2));
    resolver1 = &net.add_node<Host>("resolver1", Ipv4Addr(8, 8, 8, 8));
    resolver2 = &net.add_node<Host>("resolver2", Ipv4Addr(9, 9, 9, 9));
    resolver3 = &net.add_node<Host>("resolver3", Ipv4Addr(1, 1, 1, 1));
    router = &net.add_node<Router>("router");
    net.connect(*client, *router, quick());
    net.connect(*resolver1, *router, quick());
    net.connect(*resolver2, *router, quick());
    net.connect(*resolver3, *router, quick());
    router->add_route(*Prefix::parse("10.0.0.0/8"), 0);
    router->add_route(*Prefix::parse("8.0.0.0/8"), 1);
    router->add_route(*Prefix::parse("9.0.0.0/8"), 2);
    router->add_route(*Prefix::parse("1.0.0.0/8"), 3);
  }
};

TEST(DnsCodec, MessageRoundTrip) {
  DnsMessage m;
  m.id = 77;
  m.response = true;
  m.question = "example.com";
  DnsRecord rec;
  rec.name = "example.com";
  rec.addr = Ipv4Addr(93, 184, 216, 34);
  rec.ttl_seconds = 60;
  m.answers.push_back(rec);
  const auto back = DnsMessage::decode(m.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, m);
}

TEST(DnsCodec, SignedRecordRoundTrip) {
  KeyPair zone(42);
  DnsRecord rec;
  rec.name = "secure.example";
  rec.addr = Ipv4Addr(1, 2, 3, 4);
  rec.signed_record = true;
  rec.signature = zone.sign(rec.canonical_bytes());
  DnsMessage m;
  m.question = rec.name;
  m.answers.push_back(rec);
  const auto back = DnsMessage::decode(m.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->answers.at(0).signature, rec.signature);
}

TEST(DnsCodec, DecodeRejectsTruncated) {
  DnsMessage m;
  m.question = "example.com";
  Bytes raw = m.encode();
  raw.resize(raw.size() - 3);
  EXPECT_FALSE(DnsMessage::decode(raw).has_value());
}

TEST(Dns, ResolvesKnownName) {
  DnsTopo topo;
  DnsServer server(*topo.resolver1);
  server.add_record("example.com", Ipv4Addr(93, 184, 216, 34));
  StubResolver stub(*topo.client, {topo.resolver1->addr()});
  DnsResult result;
  stub.resolve("example.com", [&](const DnsResult& r) { result = r; });
  topo.net.sim().run();
  EXPECT_EQ(result.status, DnsResult::Status::kOk);
  EXPECT_EQ(result.addr, Ipv4Addr(93, 184, 216, 34));
  EXPECT_FALSE(result.authenticated);
  EXPECT_EQ(server.queries_served(), 1u);
}

TEST(Dns, UnknownNameIsNxDomain) {
  DnsTopo topo;
  DnsServer server(*topo.resolver1);
  StubResolver stub(*topo.client, {topo.resolver1->addr()});
  DnsResult result;
  stub.resolve("missing.example", [&](const DnsResult& r) { result = r; });
  topo.net.sim().run();
  EXPECT_EQ(result.status, DnsResult::Status::kNxDomain);
}

TEST(Dns, UnreachableResolverTimesOut) {
  DnsTopo topo;
  // No DnsServer bound on resolver1.
  StubResolver stub(*topo.client, {topo.resolver1->addr()});
  DnsResult result;
  result.status = DnsResult::Status::kOk;
  stub.resolve("example.com", [&](const DnsResult& r) { result = r; });
  topo.net.sim().run();
  EXPECT_EQ(result.status, DnsResult::Status::kTimeout);
}

TEST(Dns, ForgedAnswerAcceptedWithoutDefences) {
  // A lone malicious resolver wins when the client has no validation.
  DnsTopo topo;
  DnsServer evil(*topo.resolver1);
  evil.add_record("bank.example", Ipv4Addr(10, 9, 9, 9));
  evil.forge("bank.example", Ipv4Addr(66, 6, 6, 6));
  StubResolver stub(*topo.client, {topo.resolver1->addr()});
  DnsResult result;
  stub.resolve("bank.example", [&](const DnsResult& r) { result = r; });
  topo.net.sim().run();
  EXPECT_EQ(result.status, DnsResult::Status::kOk);
  EXPECT_EQ(result.addr, Ipv4Addr(66, 6, 6, 6));  // the attack succeeded
}

TEST(Dns, QuorumOutvotesSingleForger) {
  DnsTopo topo;
  DnsServer evil(*topo.resolver1);
  DnsServer good2(*topo.resolver2);
  DnsServer good3(*topo.resolver3);
  const Ipv4Addr truth(93, 184, 216, 34);
  evil.forge("bank.example", Ipv4Addr(66, 6, 6, 6));
  evil.add_record("bank.example", truth);
  good2.add_record("bank.example", truth);
  good3.add_record("bank.example", truth);
  StubResolver stub(*topo.client, {topo.resolver1->addr(),
                                   topo.resolver2->addr(),
                                   topo.resolver3->addr()});
  DnsResult result;
  stub.resolve("bank.example", [&](const DnsResult& r) { result = r; },
               /*quorum=*/3);
  topo.net.sim().run();
  EXPECT_EQ(result.status, DnsResult::Status::kOk);
  EXPECT_EQ(result.addr, truth);
}

TEST(Dns, SignedRecordAuthenticatesAgainstZoneKey) {
  DnsTopo topo;
  KeyPair zone(7);
  KeyRegistry trusted;
  trusted.trust(zone);
  DnsServer server(*topo.resolver1, &zone);
  server.add_record("secure.example", Ipv4Addr(5, 5, 5, 5));
  StubResolver stub(*topo.client, {topo.resolver1->addr()}, &trusted,
                    zone.public_key());
  DnsResult result;
  stub.resolve("secure.example", [&](const DnsResult& r) { result = r; });
  topo.net.sim().run();
  EXPECT_EQ(result.status, DnsResult::Status::kOk);
  EXPECT_TRUE(result.authenticated);
  EXPECT_EQ(result.addr, Ipv4Addr(5, 5, 5, 5));
}

TEST(Dns, ForgedSignatureIsBogus) {
  DnsTopo topo;
  KeyPair zone(7), attacker(666);
  KeyRegistry trusted;
  trusted.trust(zone);
  // Attacker signs with its own key but claims to be the zone.
  DnsServer server(*topo.resolver1, &attacker);
  server.add_record("secure.example", Ipv4Addr(66, 6, 6, 6));
  StubResolver stub(*topo.client, {topo.resolver1->addr()}, &trusted,
                    zone.public_key());
  DnsResult result;
  stub.resolve("secure.example", [&](const DnsResult& r) { result = r; });
  topo.net.sim().run();
  EXPECT_EQ(result.status, DnsResult::Status::kBogus);
}

// ---------------------------------------------------------------- TLS ------

TEST(TlsCerts, ValidChainValidates) {
  CertificateAuthority root("RootCA", 1);
  auto intermediate = root.issue_intermediate("MidCA", 2, 0, seconds(1000));
  KeyPair server_key(3);
  const Certificate leaf = intermediate->issue(
      "example.com", server_key.public_key(), 0, seconds(1000));
  TrustStore trust;
  trust.trust_root(root);
  trust.add_intermediate(*intermediate);
  const CertChain chain{leaf, intermediate->self_certificate(),
                        root.self_certificate()};
  EXPECT_EQ(validate_chain(chain, trust, seconds(10), "example.com"),
            CertStatus::kOk);
}

TEST(TlsCerts, DetectsEveryFailureMode) {
  CertificateAuthority root("RootCA", 1);
  CertificateAuthority rogue("RogueCA", 99);
  KeyPair server_key(3);
  TrustStore trust;
  trust.trust_root(root);

  const Certificate good =
      root.issue("example.com", server_key.public_key(), 0, seconds(1000));
  const CertChain good_chain{good, root.self_certificate()};

  // Expired.
  EXPECT_EQ(validate_chain(good_chain, trust, seconds(2000), "example.com"),
            CertStatus::kExpired);
  // Not yet valid.
  const Certificate future = root.issue("example.com", server_key.public_key(),
                                        seconds(500), seconds(1000));
  EXPECT_EQ(validate_chain({future, root.self_certificate()}, trust,
                           seconds(10), "example.com"),
            CertStatus::kNotYetValid);
  // Name mismatch.
  EXPECT_EQ(validate_chain(good_chain, trust, seconds(10), "evil.com"),
            CertStatus::kNameMismatch);
  // Untrusted root (rogue CA).
  const Certificate rogue_leaf =
      rogue.issue("example.com", server_key.public_key(), 0, seconds(1000));
  EXPECT_EQ(validate_chain({rogue_leaf, rogue.self_certificate()}, trust,
                           seconds(10), "example.com"),
            CertStatus::kUntrustedRoot);
  // Bad signature (tampered subject key after signing).
  Certificate tampered = good;
  tampered.subject_key.id ^= 1;
  EXPECT_EQ(validate_chain({tampered, root.self_certificate()}, trust,
                           seconds(10), "example.com"),
            CertStatus::kBadSignature);
  // Revoked.
  TrustStore crl = trust;
  crl.keys.trust(root.key());
  crl.trusted_roots.insert(root.key().public_key().id);
  crl.revoked_serials.insert(good.serial);
  EXPECT_EQ(validate_chain(good_chain, crl, seconds(10), "example.com"),
            CertStatus::kRevoked);
  // Empty chain.
  EXPECT_EQ(validate_chain({}, trust, seconds(10), "example.com"),
            CertStatus::kEmptyChain);
}

TEST(TlsCerts, ChainCodecRoundTrip) {
  CertificateAuthority root("RootCA", 1);
  KeyPair k(2);
  const Certificate leaf = root.issue("x.com", k.public_key(), 0, seconds(99));
  const CertChain chain{leaf, root.self_certificate()};
  const auto back = decode_chain(encode_chain(chain));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, chain);
}

TEST(TlsRecords, SealOpenRoundTripAndTamperDetection) {
  const Digest key = digest_of("session");
  const Bytes plain = to_bytes("secret payload");
  Bytes sealed = seal_app_data(key, plain);
  EXPECT_EQ(open_app_data(key, sealed), plain);
  sealed[5] ^= 0xFF;
  EXPECT_FALSE(open_app_data(key, sealed).has_value());
  EXPECT_FALSE(open_app_data(digest_of("wrong"), seal_app_data(key, plain))
                   .has_value());
}

struct TlsTopo {
  DumbbellTopo topo{LinkParams{Rate::mbps(100), milliseconds(5), 0.0,
                               1 * kMiB},
                    LinkParams{Rate::mbps(100), milliseconds(5), 0.0,
                               1 * kMiB}};
  CertificateAuthority root{"RootCA", 1};
  KeyPair server_key{2};
  TrustStore trust;
  std::unique_ptr<TlsServer> tls_server;

  TlsTopo(const std::string& cert_name = "example.com") {
    trust.trust_root(root);
    const Certificate leaf = root.issue(cert_name, server_key.public_key(), 0,
                                        seconds(3600));
    const CertChain chain{leaf, root.self_certificate()};
    topo.server->tcp_listen(443, [this, chain](TcpConnection& conn) {
      tls_server = std::make_unique<TlsServer>(conn, chain, server_key);
      tls_server->set_on_data([this](const Bytes& data) {
        server_received.insert(server_received.end(), data.begin(), data.end());
        tls_server->send(to_bytes("echo:" + to_string(data)));
      });
    });
  }

  Bytes server_received;
};

TEST(Tls, StrictClientCompletesHandshakeAndExchangesData) {
  TlsTopo t;
  TcpConnection& conn = t.topo.client->tcp_connect(t.topo.server->addr(), 443);
  TlsClient client(conn, "example.com", &t.trust, TlsClientPolicy::kStrict, 9);
  std::string got;
  client.set_on_connected([&](const TlsSessionInfo& info) {
    EXPECT_EQ(info.cert_status, CertStatus::kOk);
    client.send(to_bytes("hello"));
  });
  client.set_on_data([&](const Bytes& data) { got = to_string(data); });
  t.topo.net.sim().run();
  EXPECT_TRUE(client.info().established);
  EXPECT_EQ(to_string(t.server_received), "hello");
  EXPECT_EQ(got, "echo:hello");
  EXPECT_FALSE(client.saw_bad_mac());
}

TEST(Tls, StrictClientRejectsWrongName) {
  TlsTopo t("not-example.com");
  TcpConnection& conn = t.topo.client->tcp_connect(t.topo.server->addr(), 443);
  TlsClient client(conn, "example.com", &t.trust, TlsClientPolicy::kStrict, 9);
  CertStatus seen = CertStatus::kOk;
  client.set_on_connected(
      [&](const TlsSessionInfo& info) { seen = info.cert_status; });
  t.topo.net.sim().run();
  EXPECT_EQ(seen, CertStatus::kNameMismatch);
  EXPECT_FALSE(client.info().established);
}

TEST(Tls, BrokenClientAcceptsUntrustedCert) {
  // Models the [23] population: no validation at all.
  TlsTopo t;
  CertificateAuthority rogue("Rogue", 66);
  KeyPair mitm_key(67);
  const Certificate forged =
      rogue.issue("example.com", mitm_key.public_key(), 0, seconds(3600));
  // Re-point the server at a forged chain.
  t.topo.server->tcp_unlisten(443);
  std::unique_ptr<TlsServer> mitm_server;
  t.topo.server->tcp_listen(443, [&](TcpConnection& conn) {
    mitm_server = std::make_unique<TlsServer>(
        conn, CertChain{forged, rogue.self_certificate()}, mitm_key);
  });
  TcpConnection& conn = t.topo.client->tcp_connect(t.topo.server->addr(), 443);
  TlsClient naive(conn, "example.com", nullptr, TlsClientPolicy::kNone, 9);
  t.topo.net.sim().run();
  EXPECT_TRUE(naive.info().established);  // interception succeeded

  // The same forged chain fails strict validation.
  EXPECT_EQ(validate_chain(naive.info().server_chain, t.trust, seconds(1),
                           "example.com"),
            CertStatus::kUntrustedRoot);
}

// ---------------------------------------------------------------- HTTP -----

TEST(HttpCodec, RequestRoundTripThroughParser) {
  HttpRequest req;
  req.method = "POST";
  req.path = "/submit";
  req.set_header("Host", "example.com");
  req.set_header("X-Device-Id", "abc123");
  req.body = to_bytes("k=v&user=bob");

  HttpRequest parsed;
  bool got = false;
  HttpParser parser(HttpParser::Kind::kRequest,
                    [&](HttpRequest r) {
                      parsed = std::move(r);
                      got = true;
                    },
                    nullptr);
  parser.feed(req.serialize());
  ASSERT_TRUE(got);
  EXPECT_EQ(parsed.method, "POST");
  EXPECT_EQ(parsed.path, "/submit");
  EXPECT_EQ(*parsed.header("Host"), "example.com");
  EXPECT_EQ(*parsed.header("X-Device-Id"), "abc123");
  EXPECT_EQ(parsed.body, req.body);
  EXPECT_FALSE(parser.error());
}

TEST(HttpCodec, ResponseParsesAcrossChunkBoundaries) {
  HttpResponse resp;
  resp.status = 404;
  resp.reason = "Not Found";
  resp.body = to_bytes("nothing here");
  const Bytes wire = resp.serialize();

  HttpResponse parsed;
  int count = 0;
  HttpParser parser(HttpParser::Kind::kResponse, nullptr, [&](HttpResponse r) {
    parsed = std::move(r);
    ++count;
  });
  // Feed byte by byte.
  for (std::uint8_t b : wire) parser.feed(Bytes{b});
  EXPECT_EQ(count, 1);
  EXPECT_EQ(parsed.status, 404);
  EXPECT_EQ(to_string(parsed.body), "nothing here");
}

TEST(HttpCodec, PipelinedMessages) {
  HttpRequest a, b;
  a.path = "/first";
  b.path = "/second";
  Bytes wire = a.serialize();
  const Bytes second = b.serialize();
  wire.insert(wire.end(), second.begin(), second.end());
  std::vector<std::string> paths;
  HttpParser parser(HttpParser::Kind::kRequest,
                    [&](HttpRequest r) { paths.push_back(r.path); }, nullptr);
  parser.feed(wire);
  EXPECT_EQ(paths, (std::vector<std::string>{"/first", "/second"}));
}

TEST(HttpCodec, MalformedHeaderSetsError) {
  HttpParser parser(HttpParser::Kind::kRequest, nullptr, nullptr);
  parser.feed(to_bytes("GET / HTTP/1.1\r\nBadHeaderNoColon\r\n\r\n"));
  EXPECT_TRUE(parser.error());
}

// Seeded streams of 1-4 pipelined requests or responses (bodies of 0-300
// KB, random extra headers), fed whole and then split: one byte per feed,
// at random points, and inside every head's closing "\r\n\r\n". Every split
// must emit exactly what the whole-buffer feed emits. A stream whose k-th
// message has a header line without ": " or a non-numeric Content-Length
// emits the messages before it and sets error() at every split.
class HttpParserProperty : public ::testing::TestWithParam<std::uint64_t> {};

struct ParseResult {
  std::vector<Bytes> messages;  // each emitted message, re-serialized
  bool error = false;
};

ParseResult parse_in_feeds(HttpParser::Kind kind, const Bytes& wire,
                           std::vector<std::size_t> cuts) {
  ParseResult out;
  HttpParser parser(
      kind, [&](HttpRequest r) { out.messages.push_back(r.serialize()); },
      [&](HttpResponse r) { out.messages.push_back(r.serialize()); });
  std::sort(cuts.begin(), cuts.end());
  cuts.push_back(wire.size());
  std::size_t from = 0;
  for (const std::size_t cut : cuts) {
    if (cut < from) continue;
    parser.feed(Bytes(wire.begin() + static_cast<std::ptrdiff_t>(from),
                      wire.begin() + static_cast<std::ptrdiff_t>(cut)));
    from = cut;
  }
  out.error = parser.error();
  return out;
}

std::string random_token(Rng& rng, int min_len, int max_len) {
  static constexpr char kChars[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_";
  std::string s(static_cast<std::size_t>(rng.uniform_int(min_len, max_len)),
                'x');
  for (char& c : s) c = kChars[rng.uniform_int(0, sizeof(kChars) - 2)];
  return s;
}

Bytes random_body(Rng& rng) {
  const int shape = static_cast<int>(rng.uniform_int(0, 2));
  const std::int64_t n = shape == 0   ? 0
                         : shape == 1 ? rng.uniform_int(1, 2000)
                                      : rng.uniform_int(0, 300000);
  Bytes body(static_cast<std::size_t>(n));
  for (std::uint8_t& b : body) b = static_cast<std::uint8_t>(rng.next_u64());
  return body;
}

template <typename Message>
void add_random_headers(Rng& rng, Message& m) {
  const int n = static_cast<int>(rng.uniform_int(0, 4));
  for (int i = 0; i < n; ++i) {
    m.set_header("X-" + random_token(rng, 1, 12),
                 random_token(rng, 0, 40) + ": " + random_token(rng, 0, 8));
  }
}

enum class Defect { kNone, kHeaderWithoutColon, kNonNumericLength };

// Serializes one random message; `defect` breaks its head.
Bytes random_message(Rng& rng, HttpParser::Kind kind, Defect defect) {
  Bytes wire;
  if (kind == HttpParser::Kind::kRequest) {
    HttpRequest req;
    req.method = rng.bernoulli(0.5) ? "GET" : "POST";
    req.path = "/" + random_token(rng, 0, 30);
    add_random_headers(rng, req);
    req.body = random_body(rng);
    if (defect == Defect::kNonNumericLength) {
      req.set_header("Content-Length", "12x");
    }
    wire = req.serialize();
  } else {
    HttpResponse resp;
    resp.status = static_cast<int>(rng.uniform_int(100, 599));
    resp.reason = random_token(rng, 0, 10) + " " + random_token(rng, 0, 10);
    add_random_headers(rng, resp);
    resp.body = random_body(rng);
    if (defect == Defect::kNonNumericLength) {
      resp.set_header("Content-Length", "abc");
    }
    wire = resp.serialize();
  }
  if (defect == Defect::kHeaderWithoutColon) {
    const std::string bad = "Broken-Header-Line\r\n";
    const auto first_eol = std::search(wire.begin(), wire.end(), bad.end() - 2,
                                       bad.end());
    wire.insert(first_eol + 2, bad.begin(), bad.end());
  }
  return wire;
}

std::vector<std::size_t> head_ends(const Bytes& wire) {
  static const std::string kEnd = "\r\n\r\n";
  std::vector<std::size_t> at;
  for (auto it = wire.begin();
       (it = std::search(it, wire.end(), kEnd.begin(), kEnd.end())) !=
       wire.end();
       ++it) {
    at.push_back(static_cast<std::size_t>(it - wire.begin()));
  }
  return at;
}

TEST_P(HttpParserProperty, EverySplitEmitsTheWholeBufferMessages) {
  Rng rng(GetParam());
  for (int round = 0; round < 6; ++round) {
    const auto kind = rng.bernoulli(0.5) ? HttpParser::Kind::kRequest
                                         : HttpParser::Kind::kResponse;
    const int count = static_cast<int>(rng.uniform_int(1, 4));
    // Rounds 0-3 are well formed; 4 and 5 break one message's head.
    const Defect defect = round < 4    ? Defect::kNone
                          : round == 4 ? Defect::kHeaderWithoutColon
                                       : Defect::kNonNumericLength;
    const int broken =
        defect == Defect::kNone
            ? count
            : static_cast<int>(rng.uniform_int(0, count - 1));
    Bytes wire;
    std::vector<Bytes> expected;
    for (int i = 0; i < count; ++i) {
      const Bytes m =
          random_message(rng, kind, i == broken ? defect : Defect::kNone);
      if (i < broken) expected.push_back(m);
      wire.insert(wire.end(), m.begin(), m.end());
    }

    const ParseResult whole = parse_in_feeds(kind, wire, {});
    EXPECT_EQ(whole.messages, expected) << "round " << round;
    EXPECT_EQ(whole.error, defect != Defect::kNone) << "round " << round;

    std::vector<std::vector<std::size_t>> splits;
    std::vector<std::size_t> every_byte(wire.size());
    for (std::size_t i = 0; i < wire.size(); ++i) every_byte[i] = i;
    splits.push_back(std::move(every_byte));
    std::vector<std::size_t> random_cuts;
    for (std::size_t at = 0; at < wire.size();) {
      at += static_cast<std::size_t>(rng.uniform_int(1, 4096));
      random_cuts.push_back(std::min(at, wire.size()));
    }
    splits.push_back(std::move(random_cuts));
    const std::vector<std::size_t> ends = head_ends(wire);
    for (std::size_t k = 1; k <= 3; ++k) {
      std::vector<std::size_t> inside;
      for (const std::size_t e : ends) inside.push_back(e + k);
      splits.push_back(std::move(inside));
    }
    for (std::size_t i = 0; i < splits.size(); ++i) {
      const ParseResult split = parse_in_feeds(kind, wire, splits[i]);
      EXPECT_EQ(split.messages, whole.messages)
          << "round " << round << " split " << i;
      EXPECT_EQ(split.error, whole.error)
          << "round " << round << " split " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HttpParserProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// The peer controls Content-Length: a huge declared body with 1 KB behind
// it must wait for more bytes, not reserve the declared size (which would
// throw bad_alloc) or report an error.
TEST(HttpCodec, HugeContentLengthWaitsWithoutReserving) {
  Bytes wire = to_bytes(
      "HTTP/1.1 200 OK\r\nContent-Length: 4611686018427387904\r\n\r\n");
  wire.resize(wire.size() + 1000, 'z');
  for (const std::size_t step : {wire.size(), std::size_t{1}, std::size_t{7}}) {
    std::vector<std::size_t> cuts;
    for (std::size_t at = step; at < wire.size(); at += step) cuts.push_back(at);
    ParseResult out;
    EXPECT_NO_THROW(out = parse_in_feeds(HttpParser::Kind::kResponse, wire,
                                         cuts));
    EXPECT_TRUE(out.messages.empty()) << "step " << step;
    EXPECT_FALSE(out.error) << "step " << step;
  }
}

// Every body byte of the period-doubling fill equals the modulo fill.
TEST(HttpBody, PeriodicBodyMatchesModuloFill) {
  for (const std::size_t period : {1, 17, 23}) {
    for (const std::size_t n : {0, 1, 16, 17, 22, 23, 24, 46, 47, 1000,
                                250000}) {
      const std::uint8_t first = period == 17 ? 'v' : 'a';
      Bytes want(n);
      for (std::size_t i = 0; i < n; ++i) {
        want[i] = static_cast<std::uint8_t>(first + (i % period));
      }
      EXPECT_EQ(periodic_body(n, first, period), want)
          << "n=" << n << " period=" << period;
    }
  }
}

HttpResponse synthesize(const std::string& path) {
  HttpRequest req;
  req.path = path;
  return synthesize_response(req);
}

void expect_bad_request(const HttpResponse& resp) {
  EXPECT_EQ(resp.status, 400);
  ASSERT_NE(resp.header("Content-Type"), nullptr);
  EXPECT_EQ(*resp.header("Content-Type"), "text/plain");
  EXPECT_FALSE(resp.body.empty());
  EXPECT_LT(resp.body.size(), 100u);
}

// These used to throw std::length_error / std::bad_alloc from inside the
// server's receive callback, or silently serve 12 or 0 bytes.
TEST(HttpBytesPath, NegativeLengthIsBadRequest) {
  expect_bad_request(synthesize("/bytes/-1"));
}
TEST(HttpBytesPath, HugeLengthIsBadRequest) {
  expect_bad_request(synthesize("/bytes/99999999999999"));
}
TEST(HttpBytesPath, TrailingJunkIsBadRequest) {
  expect_bad_request(synthesize("/bytes/12x"));
}
TEST(HttpBytesPath, NonNumericLengthIsBadRequest) {
  expect_bad_request(synthesize("/bytes/abc"));
}

TEST(HttpBytesPath, LengthsUpToTheSendBufferAreServed) {
  const std::size_t limit = TcpConfig{}.max_send_buffer;
  EXPECT_EQ(synthesize("/bytes/0").status, 200);
  EXPECT_TRUE(synthesize("/bytes/0").body.empty());
  const HttpResponse small = synthesize("/bytes/50");
  EXPECT_EQ(small.status, 200);
  EXPECT_EQ(small.body, periodic_body(50, 'a', 23));
  EXPECT_EQ(synthesize("/bytes/" + std::to_string(limit)).body.size(), limit);
  expect_bad_request(synthesize("/bytes/" + std::to_string(limit + 1)));
  expect_bad_request(synthesize("/bytes/"));
}

TEST(Http, BadBytesPathIsAnsweredOverTheWire) {
  DumbbellTopo topo(quick(), quick());
  HttpServer server(*topo.server);
  HttpClient client(*topo.client);
  int status = 0;
  client.fetch(topo.server->addr(), 80, "/bytes/-1",
               [&](const HttpResponse& r, const FetchTiming&) {
                 status = r.status;
               });
  topo.net.sim().run();
  EXPECT_EQ(status, 400);
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(Http, EndToEndFetch) {
  DumbbellTopo topo(quick(), quick());
  HttpServer server(*topo.server);
  HttpClient client(*topo.client);
  FetchTiming timing;
  HttpResponse response;
  client.fetch(topo.server->addr(), 80, "/bytes/50000",
               [&](const HttpResponse& r, const FetchTiming& t) {
                 response = r;
                 timing = t;
               });
  topo.net.sim().run();
  EXPECT_TRUE(timing.ok);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body.size(), 50000u);
  EXPECT_GT(timing.total(), 0);
  EXPECT_LE(timing.ttfb(), timing.total());
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(Http, LargerDownloadsTakeLonger) {
  DumbbellTopo topo(quick(), quick());
  HttpServer server(*topo.server);
  HttpClient client(*topo.client);
  SimDuration small_time = 0, large_time = 0;
  client.fetch(topo.server->addr(), 80, "/bytes/1000",
               [&](const HttpResponse&, const FetchTiming& t) {
                 small_time = t.total();
               });
  topo.net.sim().run();
  client.fetch(topo.server->addr(), 80, "/bytes/2000000",
               [&](const HttpResponse&, const FetchTiming& t) {
                 large_time = t.total();
               });
  topo.net.sim().run();
  EXPECT_GT(large_time, small_time);
}

TEST(Http, FetchFromDeadServerFails) {
  DumbbellTopo topo(quick(), quick());
  HttpClient client(*topo.client);
  bool called = false;
  FetchTiming timing;
  client.fetch(topo.server->addr(), 80, "/",
               [&](const HttpResponse&, const FetchTiming& t) {
                 called = true;
                 timing = t;
               });
  topo.net.sim().run();
  EXPECT_TRUE(called);
  EXPECT_FALSE(timing.ok);
}

// ---------------------------------------------------------------- DHCP -----

TEST(DhcpCodec, MessageRoundTrip) {
  DhcpMessage m;
  m.type = DhcpType::kOffer;
  m.xid = 99;
  m.client_id = 0xABCDEF;
  m.offered = Ipv4Addr(10, 0, 0, 50);
  m.options[kDhcpOptPvnStandards] = to_bytes("openflow-lite,mbox-v1");
  const auto back = DhcpMessage::decode(m.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, DhcpType::kOffer);
  EXPECT_EQ(back->offered, m.offered);
  EXPECT_EQ(to_string(back->options.at(kDhcpOptPvnStandards)),
            "openflow-lite,mbox-v1");
}

TEST(Dhcp, LeaseAssignsAddressAndUpdatesHost) {
  DumbbellTopo topo(quick(), quick());
  DhcpServer server(*topo.server, Ipv4Addr(10, 0, 0, 100), 10);
  DhcpClient client(*topo.client);
  DhcpLease lease;
  client.acquire(topo.server->addr(), [&](const DhcpLease& l) { lease = l; });
  topo.net.sim().run();
  EXPECT_TRUE(lease.ok);
  EXPECT_EQ(lease.addr, Ipv4Addr(10, 0, 0, 100));
  EXPECT_EQ(topo.client->addr(), lease.addr);
  EXPECT_FALSE(lease.pvn_supported);
  EXPECT_EQ(server.leases_granted(), 1u);
}

TEST(Dhcp, PvnOptionAdvertised) {
  DumbbellTopo topo(quick(), quick());
  DhcpServer server(*topo.server, Ipv4Addr(10, 0, 0, 100), 10);
  server.advertise_pvn(Ipv4Addr(10, 0, 0, 5), "openflow-lite,mbox-v1");
  DhcpClient client(*topo.client);
  DhcpLease lease;
  client.acquire(topo.server->addr(), [&](const DhcpLease& l) { lease = l; });
  topo.net.sim().run();
  ASSERT_TRUE(lease.ok);
  EXPECT_TRUE(lease.pvn_supported);
  EXPECT_EQ(lease.pvn_server, Ipv4Addr(10, 0, 0, 5));
  EXPECT_EQ(lease.pvn_standards, "openflow-lite,mbox-v1");
}

TEST(Dhcp, TimeoutWhenServerSilent) {
  DumbbellTopo topo(quick(), quick());
  DhcpClient client(*topo.client);
  DhcpLease lease;
  lease.ok = true;
  client.acquire(topo.server->addr(), [&](const DhcpLease& l) { lease = l; });
  topo.net.sim().run();
  EXPECT_FALSE(lease.ok);
}

TEST(Dhcp, SameClientGetsStableLease) {
  DumbbellTopo topo(quick(), quick());
  DhcpServer server(*topo.server, Ipv4Addr(10, 0, 0, 100), 10);
  DhcpClient client(*topo.client);
  Ipv4Addr first, second;
  client.acquire(topo.server->addr(),
                 [&](const DhcpLease& l) { first = l.addr; });
  topo.net.sim().run();
  client.acquire(topo.server->addr(),
                 [&](const DhcpLease& l) { second = l.addr; });
  topo.net.sim().run();
  EXPECT_EQ(first, second);
}

// Framing property: arbitrary chunkings reassemble identically.
class FramerProperty : public ::testing::TestWithParam<int> {};

TEST_P(FramerProperty, ReassemblesUnderChunking) {
  const int chunk_size = GetParam();
  std::vector<Bytes> frames_in = {to_bytes("alpha"), to_bytes(""),
                                  to_bytes(std::string(1000, 'x')),
                                  to_bytes("omega")};
  Bytes wire;
  for (const Bytes& f : frames_in) {
    const Bytes framed = StreamFramer::frame(f);
    wire.insert(wire.end(), framed.begin(), framed.end());
  }
  std::vector<Bytes> frames_out;
  StreamFramer framer([&](Bytes f) { frames_out.push_back(std::move(f)); });
  for (std::size_t i = 0; i < wire.size(); i += chunk_size) {
    const std::size_t n = std::min<std::size_t>(chunk_size, wire.size() - i);
    framer.feed(Bytes(wire.begin() + i, wire.begin() + i + n));
  }
  EXPECT_EQ(frames_out, frames_in);
  EXPECT_EQ(framer.buffered(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Chunkings, FramerProperty,
                         ::testing::Values(1, 2, 3, 7, 64, 1024, 100000));

// A length prefix within 4 of 2^32 used to wrap the `4 + len` bounds check
// into a short frame and read ~4 GiB past the buffer. Each must wait for
// bytes that never come.
TEST(StreamFramer, NearMaxLengthPrefixWaitsForItsBytes) {
  for (std::uint32_t len = 0xFFFFFFFCu; len != 0; ++len) {
    ByteWriter w;
    w.u32(len);
    w.raw(to_bytes("abc"));
    const Bytes wire = std::move(w).take();
    int frames = 0;
    StreamFramer framer([&](Bytes) { ++frames; });
    framer.feed(wire);
    EXPECT_EQ(frames, 0) << len;
    EXPECT_EQ(framer.buffered(), wire.size()) << len;
  }
}

TEST(StreamFramer, TakeFramesLeavesThePartialTail) {
  Bytes buf = StreamFramer::frame(to_bytes("one"));
  const Bytes two = StreamFramer::frame(to_bytes("two"));
  buf.insert(buf.end(), two.begin(), two.end());
  const Bytes tail = {0, 0, 0, 9, 'p'};
  buf.insert(buf.end(), tail.begin(), tail.end());
  EXPECT_EQ(take_frames(buf),
            (std::vector<Bytes>{to_bytes("one"), to_bytes("two")}));
  EXPECT_EQ(buf, tail);
  EXPECT_TRUE(take_frames(buf).empty());
  EXPECT_EQ(buf, tail);
}

}  // namespace
}  // namespace pvn
