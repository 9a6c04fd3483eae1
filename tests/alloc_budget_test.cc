// Allocation budget of the per-packet path. This executable replaces the
// global operator new/delete with counting versions over malloc/free, so a
// change that puts heap allocations back on the path a data segment takes
// (server TCP, links, the access switch, a deployed middlebox chain, client
// TCP and HTTP, and the ACK back) fails here instead of only showing as
// benchmark wall time. DESIGN.md §9 "Per-packet allocations" has the counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <new>

#include "testbed/testbed.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::size_t> g_largest{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  std::size_t seen = g_largest.load(std::memory_order_relaxed);
  while (n > seen &&
         !g_largest.compare_exchange_weak(seen, n, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pvn {
namespace {

// Allocations per TCP data segment the client receives while it fetches
// 250 KB bodies from the web server through `tb`, counting everything the
// fetches cost (the ACKs, both hosts, links, switch, chain and tunnel). One
// fetch first warms connection tables, chain flow state and telemetry cells.
double allocs_per_data_segment(Testbed& tb) {
  // TCP segments with payload arriving at the client over the access link.
  std::uint64_t data_segments = 0;
  tb.access_link->add_tap([&](const Packet& p, const Node&, const Node& to) {
    if (&to != tb.client || p.ip.proto != IpProto::kTcp) return;
    ByteReader r(p.l4);
    TcpHeader::decode(r);
    if (r.ok() && r.remaining() > 0) ++data_segments;
  });

  HttpClient http(*tb.client);
  int ok = 0;
  const auto fetch = [&] {
    http.fetch(tb.addrs.web, 80, "/bytes/250000",
               [&](const HttpResponse& resp, const FetchTiming& t) {
                 if (t.ok && resp.body.size() == 250000) ++ok;
               });
    tb.net.sim().run_until(tb.net.sim().now() + seconds(10));
  };
  fetch();
  EXPECT_EQ(ok, 1);

  constexpr int kFetches = 4;
  data_segments = 0;
  const std::uint64_t before = g_allocs.load();
  for (int i = 0; i < kFetches; ++i) fetch();
  const std::uint64_t allocs = g_allocs.load() - before;

  EXPECT_EQ(ok, 1 + kFetches);
  EXPECT_GT(data_segments, 0u);
  const double per_segment =
      static_cast<double>(allocs) / static_cast<double>(data_segments);
  std::cout << allocs << " allocations for " << data_segments
            << " data segments (" << per_segment << " per segment)\n";
  return per_segment;
}

// Through the standard PVNC's four-module chain. Measured 13.4 (9606 for
// 716 segments); it was 34.8 before the per-packet path was made
// allocation-lean. The bound leaves ~25% headroom.
constexpr double kMaxAllocsPerDataSegment = 17.0;

TEST(AllocBudget, FetchThroughStandardChain) {
  Testbed tb;
  ASSERT_TRUE(tb.deploy(tb.standard_pvnc()).ok);
  EXPECT_LE(allocs_per_data_segment(tb), kMaxAllocsPerDataSegment);
}

// The standard PVNC plus a kTunnel policy sending the web server's traffic
// through ESP to the cloud gateway (Fig. 1c): the switch encapsulates the
// client's segments and the gateway decapsulates them; the gateway
// re-encapsulates the server's replies and the switch's esp-decap
// processor decapsulates them. Measured 20.6 (14714 for 716 segments); it
// was 30.7 (22014) while encap and decap copied the packet's hop trace and
// the gateway copied each reply before encapsulating it. The bound leaves
// ~25% headroom.
constexpr double kMaxAllocsPerTunneledSegment = 26.0;

TEST(AllocBudget, FetchThroughTunnelToCloudGateway) {
  Testbed tb;
  Pvnc pvnc = tb.standard_pvnc();
  PvncPolicy tunnel;
  tunnel.kind = PvncPolicy::Kind::kTunnel;
  tunnel.match.dst = Prefix{tb.addrs.web, 32};
  tunnel.gateway = tb.addrs.cloud_gw;
  pvnc.policies.push_back(tunnel);
  ASSERT_TRUE(tb.deploy(pvnc).ok);
  EXPECT_LE(allocs_per_data_segment(tb), kMaxAllocsPerTunneledSegment);
  EXPECT_GT(tb.cloud_gw->reencapsulated(), 0u);
  EXPECT_EQ(tb.esp_decap_proc->auth_failures(), 0u);
}

// The body reservation trusts Content-Length only up to 1 MiB: a head that
// declares 2^62 bytes must not make the parser ask for them.
TEST(AllocBudget, HugeContentLengthReservesAtMostOneMiB) {
  int responses = 0;
  HttpParser parser(HttpParser::Kind::kResponse, nullptr,
                    [&](HttpResponse) { ++responses; });
  Bytes wire = to_bytes(
      "HTTP/1.1 200 OK\r\nContent-Length: 4611686018427387904\r\n\r\n");
  wire.resize(wire.size() + 1000, 'x');

  g_largest.store(0);
  parser.feed(wire);
  EXPECT_LE(g_largest.load(), std::size_t{1} << 20);
  EXPECT_FALSE(parser.error());
  EXPECT_EQ(responses, 0);  // the body is still arriving
}

}  // namespace
}  // namespace pvn
