// TCP-lite tests: handshake, byte-stream delivery, teardown, loss recovery,
// congestion control behaviour, flow control, and RST handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "fixtures.h"
#include "util/rng.h"

namespace pvn {
namespace {

using testing::DumbbellTopo;
using testing::StreamSink;
using testing::pattern_bytes;

LinkParams fast_link() {
  LinkParams lp;
  lp.rate = Rate::mbps(100);
  lp.latency = milliseconds(5);
  lp.queue_bytes = 4 * kMiB;
  return lp;
}

TEST(Tcp, HandshakeEstablishesBothSides) {
  DumbbellTopo topo(fast_link(), fast_link());
  TcpConnection* server_conn = nullptr;
  topo.server->tcp_listen(80, [&](TcpConnection& c) { server_conn = &c; });

  bool client_connected = false;
  TcpConnection& client_conn = topo.client->tcp_connect(topo.server->addr(), 80);
  client_conn.on_connected = [&] { client_connected = true; };

  topo.net.sim().run();
  EXPECT_TRUE(client_connected);
  ASSERT_NE(server_conn, nullptr);
  EXPECT_TRUE(client_conn.established());
  EXPECT_TRUE(server_conn->established());
  EXPECT_EQ(server_conn->remote_addr(), topo.client->addr());
}

TEST(Tcp, ConnectToClosedPortFailsFast) {
  DumbbellTopo topo(fast_link(), fast_link());
  TcpConnection& conn = topo.client->tcp_connect(topo.server->addr(), 81);
  bool closed = false;
  conn.on_closed = [&] { closed = true; };
  topo.net.sim().run();
  EXPECT_TRUE(closed);
  EXPECT_EQ(conn.state(), TcpConnection::State::kClosed);
  EXPECT_GE(topo.server->rsts_sent(), 1u);
}

TEST(Tcp, SmallTransferDeliversExactBytes) {
  DumbbellTopo topo(fast_link(), fast_link());
  StreamSink sink;
  topo.server->tcp_listen(80, [&](TcpConnection& c) { sink.attach(c); });

  TcpConnection& conn = topo.client->tcp_connect(topo.server->addr(), 80);
  const Bytes payload = to_bytes("hello over tcp-lite");
  conn.on_connected = [&] { conn.send(payload); };
  topo.net.sim().run();
  EXPECT_EQ(sink.data, payload);
}

TEST(Tcp, SendBeforeEstablishedIsBuffered) {
  DumbbellTopo topo(fast_link(), fast_link());
  StreamSink sink;
  topo.server->tcp_listen(80, [&](TcpConnection& c) { sink.attach(c); });
  TcpConnection& conn = topo.client->tcp_connect(topo.server->addr(), 80);
  EXPECT_TRUE(conn.send(to_bytes("early data")));
  topo.net.sim().run();
  EXPECT_EQ(to_string(sink.data), "early data");
}

TEST(Tcp, LargeTransferIsCompleteAndInOrder) {
  DumbbellTopo topo(fast_link(), fast_link());
  StreamSink sink;
  topo.server->tcp_listen(80, [&](TcpConnection& c) { sink.attach(c); });

  const Bytes payload = pattern_bytes(500 * 1000);
  TcpConnection& conn = topo.client->tcp_connect(topo.server->addr(), 80);
  conn.on_connected = [&] {
    conn.send(payload);
    conn.close();
  };
  topo.net.sim().run();
  EXPECT_EQ(sink.data.size(), payload.size());
  EXPECT_EQ(sink.data, payload);
  EXPECT_TRUE(sink.closed);
}

TEST(Tcp, MultipleSendsPreserveOrder) {
  DumbbellTopo topo(fast_link(), fast_link());
  StreamSink sink;
  topo.server->tcp_listen(80, [&](TcpConnection& c) { sink.attach(c); });
  TcpConnection& conn = topo.client->tcp_connect(topo.server->addr(), 80);
  conn.on_connected = [&] {
    for (int i = 0; i < 50; ++i) {
      conn.send(to_bytes("chunk-" + std::to_string(i) + ";"));
    }
    conn.close();
  };
  topo.net.sim().run();
  std::string expected;
  for (int i = 0; i < 50; ++i) expected += "chunk-" + std::to_string(i) + ";";
  EXPECT_EQ(to_string(sink.data), expected);
}

TEST(Tcp, BidirectionalTransfer) {
  DumbbellTopo topo(fast_link(), fast_link());
  StreamSink server_sink, client_sink;
  topo.server->tcp_listen(80, [&](TcpConnection& c) {
    server_sink.attach(c);
    c.on_data = [&server_sink, &c](const Bytes& data) {
      server_sink.data.insert(server_sink.data.end(), data.begin(), data.end());
      c.send(to_bytes("pong"));
    };
  });
  TcpConnection& conn = topo.client->tcp_connect(topo.server->addr(), 80);
  client_sink.attach(conn);
  conn.on_connected = [&] { conn.send(to_bytes("ping")); };
  topo.net.sim().run();
  EXPECT_EQ(to_string(server_sink.data), "ping");
  EXPECT_EQ(to_string(client_sink.data), "pong");
}

TEST(Tcp, GracefulCloseReachesBothSides) {
  DumbbellTopo topo(fast_link(), fast_link());
  TcpConnection* server_conn = nullptr;
  bool server_closed = false;
  topo.server->tcp_listen(80, [&](TcpConnection& c) {
    server_conn = &c;
    c.on_closed = [&] { server_closed = true; };
    // Server closes in response to peer FIN.
    c.on_data = [](const Bytes&) {};
  });
  TcpConnection& conn = topo.client->tcp_connect(topo.server->addr(), 80);
  bool client_closed = false;
  conn.on_closed = [&] { client_closed = true; };
  conn.on_connected = [&] {
    conn.send(to_bytes("bye"));
    conn.close();
  };
  // Server closes when it sees the FIN (CloseWait).
  topo.net.sim().schedule_after(seconds(1), [&] {
    if (server_conn != nullptr) server_conn->close();
  });
  topo.net.sim().run();
  EXPECT_TRUE(client_closed);
  EXPECT_TRUE(server_closed);
  EXPECT_EQ(conn.state(), TcpConnection::State::kClosed);
  EXPECT_EQ(server_conn->state(), TcpConnection::State::kClosed);
}

TEST(Tcp, AbortSendsRstAndClosesPeer) {
  DumbbellTopo topo(fast_link(), fast_link());
  TcpConnection* server_conn = nullptr;
  bool server_closed = false;
  topo.server->tcp_listen(80, [&](TcpConnection& c) {
    server_conn = &c;
    c.on_closed = [&] { server_closed = true; };
  });
  TcpConnection& conn = topo.client->tcp_connect(topo.server->addr(), 80);
  conn.on_connected = [&] { conn.abort(); };
  topo.net.sim().run();
  EXPECT_TRUE(server_closed);
  EXPECT_EQ(conn.state(), TcpConnection::State::kClosed);
}

TEST(Tcp, RecoversFromLoss) {
  LinkParams lossy = fast_link();
  lossy.loss = 0.02;
  DumbbellTopo topo(lossy, fast_link(), /*seed=*/77);
  StreamSink sink;
  topo.server->tcp_listen(80, [&](TcpConnection& c) { sink.attach(c); });

  const Bytes payload = pattern_bytes(300 * 1000);
  TcpConnection& conn = topo.client->tcp_connect(topo.server->addr(), 80);
  conn.on_connected = [&] {
    conn.send(payload);
    conn.close();
  };
  topo.net.sim().run();
  EXPECT_EQ(sink.data, payload);
  EXPECT_GT(conn.stats().retransmits + conn.stats().fast_retransmits, 0u);
}

TEST(Tcp, SurvivesHeavyLoss) {
  LinkParams lossy = fast_link();
  lossy.loss = 0.15;
  DumbbellTopo topo(lossy, fast_link(), /*seed=*/99);
  StreamSink sink;
  topo.server->tcp_listen(80, [&](TcpConnection& c) { sink.attach(c); });

  const Bytes payload = pattern_bytes(50 * 1000);
  TcpConnection& conn = topo.client->tcp_connect(topo.server->addr(), 80);
  conn.on_connected = [&] {
    conn.send(payload);
    conn.close();
  };
  topo.net.sim().run_until(seconds(600));
  EXPECT_EQ(sink.data, payload);
}

TEST(Tcp, SlowStartGrowsCwnd) {
  DumbbellTopo topo(fast_link(), fast_link());
  StreamSink sink;
  topo.server->tcp_listen(80, [&](TcpConnection& c) { sink.attach(c); });
  TcpConnection& conn = topo.client->tcp_connect(topo.server->addr(), 80);
  conn.on_connected = [&] { conn.send(pattern_bytes(400 * 1000)); };
  topo.net.sim().run();
  // IW10 with no loss: cwnd must have grown well beyond the initial window.
  EXPECT_GT(conn.stats().cwnd_segments, 20.0);
  EXPECT_EQ(conn.stats().timeouts, 0u);
  EXPECT_EQ(conn.stats().retransmits, 0u);
}

TEST(Tcp, LossClampsCwndViaFastRetransmit) {
  LinkParams lossy = fast_link();
  lossy.loss = 0.05;
  DumbbellTopo topo(lossy, fast_link(), /*seed=*/5);
  StreamSink sink;
  topo.server->tcp_listen(80, [&](TcpConnection& c) { sink.attach(c); });
  TcpConnection& conn = topo.client->tcp_connect(topo.server->addr(), 80);
  conn.on_connected = [&] {
    conn.send(pattern_bytes(400 * 1000));
    conn.close();
  };
  topo.net.sim().run();
  EXPECT_GT(conn.stats().fast_retransmits, 0u);
  EXPECT_EQ(to_string(sink.data).size(), 400 * 1000u);
}

TEST(Tcp, RttEstimateTracksPathRtt) {
  LinkParams lp = fast_link();
  lp.latency = milliseconds(40);  // RTT ~160ms across two links
  DumbbellTopo topo(lp, lp);
  StreamSink sink;
  topo.server->tcp_listen(80, [&](TcpConnection& c) { sink.attach(c); });
  TcpConnection& conn = topo.client->tcp_connect(topo.server->addr(), 80);
  conn.on_connected = [&] { conn.send(pattern_bytes(100 * 1000)); };
  topo.net.sim().run();
  EXPECT_GT(conn.stats().srtt, milliseconds(150));
  EXPECT_LT(conn.stats().srtt, milliseconds(400));
}

TEST(Tcp, ThroughputApproachesBottleneckRate) {
  LinkParams access;
  access.rate = Rate::mbps(10);
  access.latency = milliseconds(10);
  access.queue_bytes = 256 * 1024;
  DumbbellTopo topo(access, fast_link());
  StreamSink sink;
  topo.server->tcp_listen(80, [&](TcpConnection& c) { sink.attach(c); });
  const std::size_t size = 2 * 1000 * 1000;
  SimTime done_at = 0;
  TcpConnection& conn = topo.client->tcp_connect(topo.server->addr(), 80);
  conn.on_connected = [&] { conn.send(pattern_bytes(size)); };
  conn.on_closed = [&] {};
  topo.net.sim().run();
  // All bytes delivered; effective rate is a healthy fraction of the 10 Mbps
  // bottleneck (the transfer includes one slow-start overshoot + recovery
  // episode, so it does not reach line rate) and never exceeds it.
  done_at = topo.net.sim().now();
  ASSERT_EQ(sink.data.size(), size);
  const double mbps = static_cast<double>(size) * 8 / to_seconds(done_at) / 1e6;
  EXPECT_GT(mbps, 4.0);
  EXPECT_LT(mbps, 10.5);
}

TEST(Tcp, SendAfterCloseRefused) {
  DumbbellTopo topo(fast_link(), fast_link());
  topo.server->tcp_listen(80, [](TcpConnection&) {});
  TcpConnection& conn = topo.client->tcp_connect(topo.server->addr(), 80);
  conn.on_connected = [&] {
    conn.close();
    EXPECT_FALSE(conn.send(to_bytes("late")));
  };
  topo.net.sim().run();
}

TEST(Tcp, SendBufferBoundRefusesOverflow) {
  DumbbellTopo topo(fast_link(), fast_link());
  topo.server->tcp_listen(80, [](TcpConnection&) {});
  TcpConfig cfg;
  cfg.max_send_buffer = 1000;
  TcpConnection& conn =
      topo.client->tcp_connect(topo.server->addr(), 80, cfg);
  EXPECT_TRUE(conn.send(Bytes(900, 1)));
  EXPECT_FALSE(conn.send(Bytes(200, 2)));
  topo.net.sim().run();
}

TEST(Tcp, GcClosedReapsConnections) {
  DumbbellTopo topo(fast_link(), fast_link());
  topo.server->tcp_listen(80, [](TcpConnection& c) {
    c.on_data = [&c](const Bytes&) { c.close(); };
  });
  TcpConnection& conn = topo.client->tcp_connect(topo.server->addr(), 80);
  conn.on_connected = [&] {
    conn.send(to_bytes("x"));
    conn.close();
  };
  topo.net.sim().run();
  EXPECT_GE(topo.client->gc_closed(), 1u);
  EXPECT_GE(topo.server->gc_closed(), 1u);
}

TEST(Tcp, ConnectionSurvivesSynAckLoss) {
  // Drop everything on the access link briefly so the handshake needs a
  // retransmission, then heal it.
  DumbbellTopo topo(fast_link(), fast_link());
  topo.access->set_loss(1.0);
  StreamSink sink;
  topo.server->tcp_listen(80, [&](TcpConnection& c) { sink.attach(c); });
  TcpConnection& conn = topo.client->tcp_connect(topo.server->addr(), 80);
  conn.on_connected = [&] { conn.send(to_bytes("after retry")); };
  topo.net.sim().schedule_after(milliseconds(1500),
                                [&] { topo.access->set_loss(0.0); });
  topo.net.sim().run();
  EXPECT_EQ(to_string(sink.data), "after retry");
  EXPECT_GT(conn.stats().timeouts, 0u);
}

TEST(Tcp, GivesUpAfterMaxSynRetries) {
  // Server side permanently unreachable.
  DumbbellTopo topo(fast_link(), fast_link());
  topo.access->set_loss(1.0);
  TcpConnection& conn = topo.client->tcp_connect(topo.server->addr(), 80);
  bool closed = false;
  conn.on_closed = [&] { closed = true; };
  topo.net.sim().run_until(seconds(300));
  EXPECT_TRUE(closed);
  EXPECT_EQ(conn.state(), TcpConnection::State::kClosed);
}

// The ephemeral port rule: the next port from the cursor, wrapping
// 65535 -> 49152, skipping ports held by a connection that is not kClosed.
// A seeded run of connects that close by FIN, by RST from an unbound port,
// or by giving up on SYN retries (holding their port ~127 s meanwhile) goes
// past one wrap while a long-lived connection holds the first port. Every
// pick must equal this replica's, which scans the live connections.
TEST(Tcp, EphemeralPortPickMatchesCursorRule) {
  DumbbellTopo topo(fast_link(), fast_link());
  topo.server->tcp_listen(80, [](TcpConnection& c) {
    c.on_eof = [&c] { c.close(); };
  });
  topo.server->tcp_listen(90, [](TcpConnection&) {});  // never closes
  const Ipv4Addr silent(93, 184, 216, 99);  // routed, but nobody answers

  std::vector<TcpConnection*> live;
  Port cursor = 49152;
  int long_lived_skips = 0;
  int other_skips = 0;
  TcpConnection& long_lived = topo.client->tcp_connect(topo.server->addr(), 90);
  const auto replica_pick = [&] {
    std::erase_if(live, [](const TcpConnection* c) {
      return c->state() == TcpConnection::State::kClosed;
    });
    for (int i = 0; i < 16384; ++i) {
      const Port p = cursor;
      cursor = cursor == 65535 ? 49152 : cursor + 1;
      const bool held = std::any_of(
          live.begin(), live.end(),
          [p](const TcpConnection* c) { return c->local_port() == p; });
      if (!held) return p;
      if (p == long_lived.local_port()) {
        ++long_lived_skips;
      } else {
        ++other_skips;
      }
    }
    return Port{0};
  };
  EXPECT_EQ(long_lived.local_port(), replica_pick());
  live.push_back(&long_lived);

  constexpr int kConnects = 17000;  // past one wrap of the 16384 ports
  Rng rng(17);
  int connects = 0;
  int kinds[3] = {};
  std::function<void()> connect = [&] {
    const double u = rng.uniform();
    const int kind = u < 0.9 ? 0 : (u < 0.97 ? 1 : 2);
    ++kinds[kind];
    const Port want = replica_pick();
    TcpConnection& c =
        kind == 0   ? topo.client->tcp_connect(topo.server->addr(), 80)
        : kind == 1 ? topo.client->tcp_connect(topo.server->addr(), 81)
                    : topo.client->tcp_connect(silent, 80);
    EXPECT_EQ(c.local_port(), want) << "connect " << connects;
    if (kind == 0) c.on_connected = [&c] { c.close(); };
    live.push_back(&c);
    if (++connects < kConnects) {
      topo.net.sim().schedule_after(milliseconds(rng.uniform_int(1, 8)),
                                    connect);
    }
  };
  topo.net.sim().schedule_after(milliseconds(1), connect);
  topo.net.sim().run();

  EXPECT_EQ(connects, kConnects);
  EXPECT_GT(kinds[0], 100);
  EXPECT_GT(kinds[1], 100);
  EXPECT_GT(kinds[2], 100);
  EXPECT_GE(topo.server->rsts_sent(), static_cast<std::uint64_t>(kinds[1]));
  EXPECT_EQ(long_lived_skips, 1);  // the wrap came back to its port once
  EXPECT_GT(other_skips, 0);       // retrying connects were skipped too
  EXPECT_TRUE(long_lived.established());
  std::erase_if(live, [](const TcpConnection* c) {
    return c->state() == TcpConnection::State::kClosed;
  });
  EXPECT_EQ(live, std::vector<TcpConnection*>{&long_lived});
}

// unsent_bytes() is the bytes send() accepted minus the bytes that have
// left as segments, checked at every outbound segment and after every send,
// for sends made before and after the handshake. On a 2 Mbit/s access link
// the buffer drains at the ACK clock; each later send lands while fewer than
// 5000 of at least 20000 buffered bytes are unsent, so send() first compacts
// away the sent prefix.
TEST(Tcp, UnsentBytesIsAcceptedMinusSent) {
  LinkParams slow = fast_link();
  slow.rate = Rate::mbps(2);
  DumbbellTopo topo(slow, fast_link());
  StreamSink sink;
  topo.server->tcp_listen(80, [&](TcpConnection& c) { sink.attach(c); });
  TcpConfig cfg;
  cfg.initial_cwnd_segments = 2;
  TcpConnection& conn =
      topo.client->tcp_connect(topo.server->addr(), 80, cfg);

  std::uint64_t accepted = 0;
  std::uint64_t sent = 0;  // payload bytes on the wire (the link is lossless)
  int segments = 0;
  topo.client->set_outbound_transform([&](Packet pkt) {
    const auto seg = parse_tcp(pkt.l4);
    if (seg && !seg->payload.empty()) {
      sent += seg->payload.size();
      ++segments;
      EXPECT_EQ(conn.unsent_bytes(), accepted - sent);
    }
    return pkt;
  });
  Bytes expected;
  const auto send = [&](std::size_t n, std::uint8_t phase) {
    const Bytes data = pattern_bytes(n, phase);
    expected.insert(expected.end(), data.begin(), data.end());
    accepted += n;
    EXPECT_TRUE(conn.send(data));
    EXPECT_EQ(conn.unsent_bytes(), accepted - sent);
  };

  send(3000, 1);  // before the handshake: nothing can leave yet
  EXPECT_EQ(conn.unsent_bytes(), 3000u);
  conn.on_connected = [&] { send(20000, 2); };
  int later_sends = 0;
  std::function<void()> probe = [&] {
    if (conn.unsent_bytes() > 0 && conn.unsent_bytes() < 5000) {
      ++later_sends;
      send(20000 + 777 * static_cast<std::size_t>(later_sends),
           static_cast<std::uint8_t>(later_sends + 2));
    }
    if (later_sends < 6 && topo.net.sim().now() < seconds(10)) {
      topo.net.sim().schedule_after(milliseconds(1), probe);
    } else {
      conn.close();
    }
  };
  topo.net.sim().schedule_after(milliseconds(1), probe);
  topo.net.sim().run();

  EXPECT_EQ(later_sends, 6);
  EXPECT_EQ(conn.stats().retransmits, 0u);
  EXPECT_GT(segments, 100);
  EXPECT_EQ(sent, accepted);
  EXPECT_EQ(conn.unsent_bytes(), 0u);
  EXPECT_EQ(sink.data, expected);
  EXPECT_TRUE(sink.closed);
}

// Property sweep: exactly-once in-order delivery across an RTT x loss grid.
// gtest names each case by its raw bytes, so every field is 8 bytes wide: a
// padded struct would put indeterminate padding bytes into the test names.
struct TcpGridCase {
  std::int64_t latency_ms;
  double loss;
  std::int64_t kilobytes;
  std::uint64_t seed;
};

class TcpDeliveryProperty : public ::testing::TestWithParam<TcpGridCase> {};

TEST_P(TcpDeliveryProperty, ExactlyOnceInOrderDelivery) {
  const TcpGridCase c = GetParam();
  LinkParams access;
  access.rate = Rate::mbps(20);
  access.latency = milliseconds(c.latency_ms);
  access.loss = c.loss;
  access.queue_bytes = 1 * kMiB;
  DumbbellTopo topo(access, fast_link(), c.seed);
  StreamSink sink;
  topo.server->tcp_listen(80, [&](TcpConnection& conn) { sink.attach(conn); });
  const Bytes payload = testing::pattern_bytes(
      static_cast<std::size_t>(c.kilobytes) * 1000);
  TcpConnection& conn = topo.client->tcp_connect(topo.server->addr(), 80);
  conn.on_connected = [&] {
    conn.send(payload);
    conn.close();
  };
  // Whether a retransmission timeout fired while bytes were still unsent:
  // the segment before the timeout left unsent bytes behind.
  bool rto_with_unsent = false;
  std::uint64_t timeouts_before = 0;
  std::uint64_t unsent_before = 0;
  topo.client->set_outbound_transform([&](Packet pkt) {
    if (conn.stats().timeouts > timeouts_before && unsent_before > 0) {
      rto_with_unsent = true;
    }
    timeouts_before = conn.stats().timeouts;
    unsent_before = conn.unsent_bytes();
    return pkt;
  });
  topo.net.sim().run_until(seconds(1200));
  EXPECT_EQ(sink.data, payload)
      << "latency=" << c.latency_ms << "ms loss=" << c.loss;
  EXPECT_TRUE(sink.closed);
  EXPECT_EQ(conn.unsent_bytes(), 0u);
  // The 2000 KB case exists to drive go-back-N with bytes still unsent.
  if (c.kilobytes >= 2000) {
    EXPECT_TRUE(rto_with_unsent);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TcpDeliveryProperty,
    ::testing::Values(TcpGridCase{1, 0.0, 200, 1}, TcpGridCase{1, 0.03, 100, 2},
                      TcpGridCase{20, 0.0, 200, 3},
                      TcpGridCase{20, 0.05, 100, 4},
                      TcpGridCase{60, 0.01, 150, 5},
                      TcpGridCase{100, 0.08, 50, 6},
                      TcpGridCase{5, 0.12, 30, 7},
                      TcpGridCase{40, 0.0, 500, 8},
                      TcpGridCase{10, 0.10, 2000, 9}));

}  // namespace
}  // namespace pvn
