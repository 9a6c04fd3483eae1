// Property suites over every wire format in the repository: randomized
// round-trips, truncation robustness, and malformed-input safety. Decoders
// must never crash and must either reproduce the value exactly or fail
// cleanly.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "chaos/schedule.h"
#include "mbox/checkpoint.h"
#include "mbox/inline_modules.h"
#include "proto/dhcp.h"
#include "proto/dns.h"
#include "proto/ops.h"
#include "proto/tls.h"
#include "pvn/discovery.h"
#include "sdn/meter.h"
#include "tunnel/esp.h"
#include "util/rng.h"

namespace pvn {
namespace {

std::string random_name(Rng& rng) {
  const char* words[] = {"alpha", "beta", "gamma", "delta", "epsilon",
                         "zeta", "eta", "theta"};
  std::string out = words[rng.next_below(8)];
  out += "-" + std::to_string(rng.next_below(1000));
  return out;
}

// --- TcpHeader with SACK ranges ----------------------------------------------------

class TcpHeaderProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TcpHeaderProperty, RandomRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    TcpHeader hdr;
    hdr.src_port = static_cast<Port>(rng.next_u64());
    hdr.dst_port = static_cast<Port>(rng.next_u64());
    hdr.seq = static_cast<std::uint32_t>(rng.next_u64());
    hdr.ack = static_cast<std::uint32_t>(rng.next_u64());
    hdr.flags = static_cast<std::uint8_t>(rng.next_below(16));
    hdr.window = static_cast<std::uint32_t>(rng.next_u64());
    const int n_sacks = static_cast<int>(rng.next_below(4));
    for (int s = 0; s < n_sacks; ++s) {
      const std::uint32_t b = static_cast<std::uint32_t>(rng.next_u64());
      hdr.sacks.emplace_back(b, b + static_cast<std::uint32_t>(
                                       rng.next_below(100000)));
    }
    ByteWriter w;
    hdr.encode(w);
    ByteReader r(w.bytes());
    EXPECT_EQ(TcpHeader::decode(r), hdr);
    EXPECT_TRUE(r.exhausted());
  }
}

TEST_P(TcpHeaderProperty, ExcessSackRangesAreTruncatedNotCorrupted) {
  Rng rng(GetParam());
  TcpHeader hdr;
  for (int s = 0; s < 10; ++s) {
    hdr.sacks.emplace_back(s * 1000, s * 1000 + 500);
  }
  ByteWriter w;
  hdr.encode(w);
  ByteReader r(w.bytes());
  const TcpHeader back = TcpHeader::decode(r);
  EXPECT_EQ(back.sacks.size(), TcpHeader::kMaxSackRanges);
  for (std::size_t i = 0; i < back.sacks.size(); ++i) {
    EXPECT_EQ(back.sacks[i], hdr.sacks[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcpHeaderProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- PVN discovery messages ----------------------------------------------------------

class DiscoveryProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DiscoveryProperty, AllMessageTypesRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    DiscoveryMessage dm;
    dm.seq = static_cast<std::uint32_t>(rng.next_u64());
    dm.device_id = random_name(rng);
    for (std::uint64_t s = 0; s < rng.next_below(4); ++s) {
      dm.standards.push_back(random_name(rng));
    }
    for (std::uint64_t m = 0; m < rng.next_below(6); ++m) {
      dm.modules.push_back(random_name(rng));
    }
    dm.est_memory_bytes = static_cast<std::int64_t>(rng.next_below(1 << 30));
    const auto dm2 = DiscoveryMessage::decode(dm.encode());
    ASSERT_TRUE(dm2.has_value());
    EXPECT_EQ(dm2->seq, dm.seq);
    EXPECT_EQ(dm2->device_id, dm.device_id);
    EXPECT_EQ(dm2->modules, dm.modules);
    EXPECT_EQ(dm2->est_memory_bytes, dm.est_memory_bytes);

    Offer offer;
    offer.seq = dm.seq;
    offer.deployment_server = Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64()));
    offer.offered_modules = dm.modules;
    offer.total_price = rng.uniform(0, 100);
    offer.expires_at = static_cast<SimTime>(rng.next_below(1'000'000'000));
    offer.standby_capacity = rng.bernoulli(0.5);
    offer.lease_duration = static_cast<SimDuration>(rng.next_below(kSecond * 60));
    offer.capacity_bytes = static_cast<std::int64_t>(rng.next_below(1LL << 40));
    const auto offer2 = Offer::decode(offer.encode());
    ASSERT_TRUE(offer2.has_value());
    EXPECT_EQ(offer2->deployment_server, offer.deployment_server);
    EXPECT_DOUBLE_EQ(offer2->total_price, offer.total_price);
    EXPECT_EQ(offer2->expires_at, offer.expires_at);
    EXPECT_EQ(offer2->standby_capacity, offer.standby_capacity);
    EXPECT_EQ(offer2->lease_duration, offer.lease_duration);
    EXPECT_EQ(offer2->capacity_bytes, offer.capacity_bytes);

    DeployAck ack;
    ack.seq = dm.seq;
    ack.chain_id = random_name(rng);
    const auto ack2 = DeployAck::decode(ack.encode());
    ASSERT_TRUE(ack2.has_value());
    EXPECT_EQ(ack2->chain_id, ack.chain_id);

    DeployNack nack;
    nack.seq = dm.seq;
    nack.reason = random_name(rng);
    nack.code = static_cast<NackCode>(rng.next_below(7));
    nack.retry_after = static_cast<SimDuration>(rng.next_below(kSecond * 10));
    const auto nack2 = DeployNack::decode(nack.encode());
    ASSERT_TRUE(nack2.has_value());
    EXPECT_EQ(nack2->reason, nack.reason);
    EXPECT_EQ(nack2->code, nack.code);
    EXPECT_EQ(nack2->retry_after, nack.retry_after);

    StateAck sack;
    sack.seq = dm.seq;
    sack.device_id = dm.device_id;
    sack.chain_id = "chain:" + random_name(rng);
    sack.applied = rng.bernoulli(0.5);
    sack.digest.resize(rng.next_below(40));
    for (auto& b : sack.digest) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto sack2 = StateAck::decode(sack.encode());
    ASSERT_TRUE(sack2.has_value());
    EXPECT_EQ(sack2->device_id, sack.device_id);
    EXPECT_EQ(sack2->chain_id, sack.chain_id);
    EXPECT_EQ(sack2->applied, sack.applied);
    EXPECT_EQ(sack2->digest, sack.digest);
  }
}

TEST_P(DiscoveryProperty, DecodersRejectValuesNoHonestEncoderProduces) {
  // Structural hardening (distinct from vet_offer's semantic bounds): field
  // values that cannot come from an honest encoder — non-finite prices,
  // negative durations, out-of-range enum codes — are refused at decode so
  // they never reach protocol logic at all.
  Offer offer;
  offer.seq = 1;
  offer.total_price = 2.0;
  offer.expires_at = seconds(30);
  offer.lease_duration = seconds(10);
  ASSERT_TRUE(Offer::decode(offer.encode()).has_value());

  Offer bad = offer;
  bad.total_price = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(Offer::decode(bad.encode()).has_value());
  bad.total_price = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(Offer::decode(bad.encode()).has_value());

  bad = offer;
  bad.expires_at = -1;
  EXPECT_FALSE(Offer::decode(bad.encode()).has_value());

  bad = offer;
  bad.lease_duration = -seconds(1);
  EXPECT_FALSE(Offer::decode(bad.encode()).has_value());

  DeployNack nack;
  nack.seq = 1;
  nack.reason = "busy";
  nack.code = NackCode::kBusy;
  nack.retry_after = milliseconds(500);
  ASSERT_TRUE(DeployNack::decode(nack.encode()).has_value());

  DeployNack bad_nack = nack;
  bad_nack.retry_after = -1;
  EXPECT_FALSE(DeployNack::decode(bad_nack.encode()).has_value());

  // Unknown NackCode values have to be hand-assembled — the enum itself
  // cannot hold them, which is exactly why the decoder must bound-check.
  for (const std::uint8_t code : {7, 42, 255}) {
    ByteWriter w;
    w.u32(1);
    w.str("busy");
    w.u8(code);
    w.i64(milliseconds(500));
    EXPECT_FALSE(DeployNack::decode(std::move(w).take()).has_value())
        << "code " << static_cast<int>(code);
  }

  DeployAck ack;
  ack.seq = 1;
  ack.chain_id = "chain:x:0";
  ack.lease_duration = -seconds(1);
  EXPECT_FALSE(DeployAck::decode(ack.encode()).has_value());

  LeaseAck lack;
  lack.seq = 1;
  lack.ok = true;
  lack.lease_duration = -1;
  EXPECT_FALSE(LeaseAck::decode(lack.encode()).has_value());
}

TEST_P(DiscoveryProperty, TruncationNeverCrashes) {
  Rng rng(GetParam());
  DiscoveryMessage dm;
  dm.seq = 1;
  dm.device_id = "device";
  dm.standards = {"openflow-lite"};
  dm.modules = {"pii-detector", "tls-validator"};
  const Bytes full = wrap(PvnMsgType::kDiscovery, dm.encode(), {});
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    Bytes truncated(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut));
    const auto unwrapped = unwrap_frame(truncated);
    if (unwrapped && unwrapped->type == PvnMsgType::kDiscovery) {
      // Inner decode must fail cleanly or produce a valid message.
      const auto inner = DiscoveryMessage::decode(unwrapped->body);
      (void)inner;
    }
  }
  SUCCEED();
}

// --- PVN frame TraceContext trailer -------------------------------------------------

TEST_P(DiscoveryProperty, FrameTraceContextRoundTrips) {
  Rng rng(GetParam() + 40);
  for (int i = 0; i < 100; ++i) {
    DiscoveryMessage dm;
    dm.seq = static_cast<std::uint32_t>(rng.next_u64());
    dm.device_id = random_name(rng);
    const Bytes body = dm.encode();
    telemetry::TraceContext trace;
    trace.trace_id = rng.next_u64();
    trace.parent_span = rng.next_u64();
    trace.seq = static_cast<std::uint32_t>(rng.next_u64());
    const Bytes framed = wrap(PvnMsgType::kDiscovery, body, trace);
    const auto frame = unwrap_frame(framed);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, PvnMsgType::kDiscovery);
    EXPECT_EQ(frame->body, body);
    EXPECT_EQ(frame->trace, trace);
    // An empty context means "untraced": same body, all-zero trailer.
    const auto bare = unwrap_frame(wrap(PvnMsgType::kDiscovery, body, {}));
    ASSERT_TRUE(bare.has_value());
    EXPECT_EQ(bare->body, body);
    EXPECT_FALSE(bare->trace.valid());
  }
}

TEST_P(DiscoveryProperty, FrameEveryTruncationIsRejected) {
  Rng rng(GetParam() + 41);
  DiscoveryMessage dm;
  dm.seq = 9;
  dm.device_id = "alice-phone";
  dm.modules = {"pii-detector"};
  const Bytes full =
      wrap(PvnMsgType::kDiscovery, dm.encode(),
           telemetry::TraceContext{rng.next_u64(), rng.next_u64(), 3});
  ASSERT_TRUE(unwrap_frame(full).has_value());
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    Bytes t(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(unwrap_frame(t).has_value())
        << "truncation at " << cut << " of " << full.size();
  }
}

TEST_P(DiscoveryProperty, FrameBitFlipsAreAllOrNothing) {
  Rng rng(GetParam() + 42);
  DiscoveryMessage dm;
  dm.seq = 11;
  dm.device_id = "alice-phone";
  const Bytes full =
      wrap(PvnMsgType::kDiscovery, dm.encode(),
           telemetry::TraceContext{rng.next_u64(), rng.next_u64(), 7});
  for (int i = 0; i < 400; ++i) {
    Bytes corrupted = full;
    const std::size_t at = rng.next_below(corrupted.size());
    corrupted[at] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    const auto frame = unwrap_frame(corrupted);
    if (!frame.has_value()) continue;
    // Whatever decoded must re-frame to exactly the corrupted bytes: no
    // half-parsed frame where the trailer silently reverts to defaults.
    EXPECT_EQ(wrap(frame->type, frame->body, frame->trace), corrupted)
        << "bit flip at byte " << at;
  }
}

TEST_P(DiscoveryProperty, RandomBytesNeverCrashDecoders) {
  Rng rng(GetParam() + 100);
  for (int i = 0; i < 500; ++i) {
    Bytes junk(rng.next_below(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    (void)unwrap_frame(junk);
    (void)DiscoveryMessage::decode(junk);
    (void)Offer::decode(junk);
    (void)DeployRequest::decode(junk);
    (void)DeployAck::decode(junk);
    (void)DeployNack::decode(junk);
    (void)LeaseRenew::decode(junk);
    (void)LeaseAck::decode(junk);
    (void)StateRequest::decode(junk);
    (void)StateTransfer::decode(junk);
    (void)StateAck::decode(junk);
    (void)Teardown::decode(junk);
    (void)ChainCheckpoint::decode(junk);
    (void)DnsMessage::decode(junk);
    (void)DhcpMessage::decode(junk);
    (void)decode_chain(junk);
    (void)Pvnc::decode(junk);
  }
  SUCCEED();
}

TEST_P(DiscoveryProperty, MutatedValidEncodingsNeverCrashDecoders) {
  // Fuzz-style: start from valid wrapped encodings of every discovery
  // message type, apply random byte flips / truncations / extensions, and
  // push the result through unwrap + the matching decoder. Decoders must
  // fail cleanly (nullopt) or return a well-formed value; they must never
  // crash, over-read, or spin on corrupted length/count fields.
  Rng rng(GetParam() + 1000);

  DiscoveryMessage dm;
  dm.seq = 7;
  dm.device_id = "alice-phone";
  dm.standards = {"openflow-lite", "mbox-v1"};
  dm.modules = {"pii-detector", "tls-validator", "tracker-blocker"};
  dm.est_memory_bytes = 18 * 1024 * 1024;

  Offer offer;
  offer.seq = 7;
  offer.deployment_server = Ipv4Addr(10, 0, 0, 5);
  offer.standards = dm.standards;
  offer.offered_modules = dm.modules;
  offer.total_price = 3.25;
  offer.expires_at = seconds(30);

  DeployRequest req;
  req.seq = 7;
  req.device_id = dm.device_id;
  req.pvnc.name = "alice-phone";
  req.pvnc.chain.push_back(PvncModule{"pii-detector", {{"action", "block"}}});
  req.payment = 3.25;
  req.required_modules = {"pii-detector"};

  DeployAck ack;
  ack.seq = 7;
  ack.chain_id = "chain:alice-phone:0";
  ack.lease_duration = seconds(10);

  DeployNack nack;
  nack.seq = 7;
  nack.reason = "out of middlebox memory";

  LeaseRenew renew;
  renew.seq = 9;
  renew.device_id = dm.device_id;
  renew.chain_id = ack.chain_id;

  LeaseAck lack;
  lack.seq = 9;
  lack.ok = true;
  lack.lease_duration = seconds(10);
  lack.degraded_modules = {"tracker-blocker"};

  StateRequest sreq;
  sreq.seq = 11;
  sreq.device_id = dm.device_id;
  sreq.chain_id = ack.chain_id;

  // A StateTransfer carrying a real chain checkpoint with per-flow state.
  Network cknet(GetParam());
  Classifier ck_classifier({{"Content-Type: video", 0x20}});
  Chain ck_chain(ack.chain_id, microseconds(45));
  ck_chain.append(&ck_classifier);
  for (int f = 0; f < 4; ++f) {
    Packet pkt = cknet.make_packet(
        Ipv4Addr(10, 0, 0, 2), Ipv4Addr(93, 184, 216, 34 + f), IpProto::kTcp,
        to_bytes("HTTP/1.1 200 OK Content-Type: video"));
    SimDuration delay = 0;
    ck_chain.process(pkt, 0, delay);
  }
  StateTransfer xfer;
  xfer.seq = 11;
  xfer.device_id = dm.device_id;
  xfer.chain_id = ack.chain_id;
  xfer.ok = true;
  xfer.checkpoint = capture_chain(ck_chain, 1, 0).encode();

  StateAck sack;
  sack.seq = 11;
  sack.device_id = dm.device_id;
  sack.chain_id = ack.chain_id;
  sack.applied = true;
  sack.digest = {0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03, 0x04};

  const std::vector<Bytes> corpus = {
      wrap(PvnMsgType::kDiscovery, dm.encode(), {}),
      wrap(PvnMsgType::kOffer, offer.encode(), {}),
      wrap(PvnMsgType::kDeployRequest, req.encode(), {}),
      wrap(PvnMsgType::kDeployAck, ack.encode(), {}),
      wrap(PvnMsgType::kDeployNack, nack.encode(), {}),
      wrap(PvnMsgType::kLeaseRenew, renew.encode(), {}),
      wrap(PvnMsgType::kLeaseAck, lack.encode(), {}),
      wrap(PvnMsgType::kStateRequest, sreq.encode(), {}),
      wrap(PvnMsgType::kStateTransfer, xfer.encode(), {}),
      wrap(PvnMsgType::kStateAck, sack.encode(), {}),
  };

  const auto decode_as = [](PvnMsgType type, const Bytes& body) {
    switch (type) {
      case PvnMsgType::kDiscovery: (void)DiscoveryMessage::decode(body); break;
      case PvnMsgType::kOffer: (void)Offer::decode(body); break;
      case PvnMsgType::kDeployRequest: (void)DeployRequest::decode(body); break;
      case PvnMsgType::kDeployAck: (void)DeployAck::decode(body); break;
      case PvnMsgType::kDeployNack: (void)DeployNack::decode(body); break;
      case PvnMsgType::kTeardown: (void)Teardown::decode(body); break;
      case PvnMsgType::kLeaseRenew: (void)LeaseRenew::decode(body); break;
      case PvnMsgType::kLeaseAck: (void)LeaseAck::decode(body); break;
      case PvnMsgType::kStateRequest: (void)StateRequest::decode(body); break;
      case PvnMsgType::kStateTransfer: {
        // The nested snapshot must also reject corruption cleanly.
        if (const auto x = StateTransfer::decode(body)) {
          (void)ChainCheckpoint::decode(x->checkpoint);
        }
        break;
      }
      case PvnMsgType::kStateAck: (void)StateAck::decode(body); break;
      default: break;
    }
  };

  for (int i = 0; i < 2000; ++i) {
    Bytes mutant = corpus[rng.next_below(corpus.size())];
    const std::uint64_t op = rng.next_below(4);
    if (op == 0 && !mutant.empty()) {
      // Flip 1-8 random bytes.
      const std::uint64_t flips = 1 + rng.next_below(8);
      for (std::uint64_t f = 0; f < flips; ++f) {
        mutant[rng.next_below(mutant.size())] ^=
            static_cast<std::uint8_t>(1 + rng.next_below(255));
      }
    } else if (op == 1 && !mutant.empty()) {
      mutant.resize(rng.next_below(mutant.size()));  // truncate
    } else if (op == 2) {
      Bytes extra(rng.next_below(64));
      for (auto& b : extra) b = static_cast<std::uint8_t>(rng.next_u64());
      mutant.insert(mutant.end(), extra.begin(), extra.end());  // extend
    } else if (!mutant.empty()) {
      // Overwrite a random run with 0xFF — maximizes length/count fields.
      const std::size_t at = rng.next_below(mutant.size());
      const std::size_t run = std::min<std::size_t>(
          mutant.size() - at, 1 + rng.next_below(8));
      for (std::size_t k = 0; k < run; ++k) mutant[at + k] = 0xFF;
    }
    if (const auto unwrapped = unwrap_frame(mutant)) {
      decode_as(unwrapped->type, unwrapped->body);
    }
  }
  SUCCEED();
}

TEST_P(DiscoveryProperty, LeaseMessagesRoundTrip) {
  Rng rng(GetParam() + 2000);
  for (int i = 0; i < 50; ++i) {
    LeaseRenew renew;
    renew.seq = static_cast<std::uint32_t>(rng.next_u64());
    renew.device_id = random_name(rng);
    renew.chain_id = "chain:" + random_name(rng);
    const auto renew2 = LeaseRenew::decode(renew.encode());
    ASSERT_TRUE(renew2.has_value());
    EXPECT_EQ(renew2->seq, renew.seq);
    EXPECT_EQ(renew2->device_id, renew.device_id);
    EXPECT_EQ(renew2->chain_id, renew.chain_id);

    LeaseAck ack;
    ack.seq = renew.seq;
    ack.ok = rng.bernoulli(0.5);
    ack.lease_duration = static_cast<SimDuration>(rng.next_below(kSecond * 60));
    for (std::uint64_t m = 0; m < rng.next_below(4); ++m) {
      ack.degraded_modules.push_back(random_name(rng));
    }
    ack.reason = ack.ok ? "" : random_name(rng);
    const auto ack2 = LeaseAck::decode(ack.encode());
    ASSERT_TRUE(ack2.has_value());
    EXPECT_EQ(ack2->seq, ack.seq);
    EXPECT_EQ(ack2->ok, ack.ok);
    EXPECT_EQ(ack2->lease_duration, ack.lease_duration);
    EXPECT_EQ(ack2->degraded_modules, ack.degraded_modules);
    EXPECT_EQ(ack2->reason, ack.reason);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiscoveryProperty,
                         ::testing::Values(11, 12, 13));

// --- Chain checkpoints (survivability) ------------------------------------------------

// Pushes a deterministic mix of classifiable and tracker-bound traffic
// through `chain`, building per-flow state in every stateful module.
void feed_chain(Chain& chain, Network& net, Rng& rng, int flows) {
  SimDuration delay = 0;
  for (int f = 0; f < flows; ++f) {
    Packet video = net.make_packet(
        Ipv4Addr(10, 0, 0, 2),
        Ipv4Addr(93, 184, 216, static_cast<std::uint8_t>(rng.next_below(250))),
        IpProto::kTcp, to_bytes("HTTP/1.1 200 OK Content-Type: video #" +
                                std::to_string(f)));
    (void)chain.process(video, 0, delay);
    Packet tracked = net.make_packet(
        Ipv4Addr(10, 0, 0, 2), Ipv4Addr(6, 6, 6, 6), IpProto::kTcp,
        to_bytes("GET /pixel?id=" + std::to_string(f)));
    (void)chain.process(tracked, 0, delay);
  }
}

class CheckpointProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckpointProperty, RoundTripPreservesModuleState) {
  Rng rng(GetParam());
  Network net(GetParam());
  Classifier classifier({{"Content-Type: video", 0x20}});
  TrackerBlocker blocker({Ipv4Addr(6, 6, 6, 6)});
  Chain chain("chain:ckpt:0", microseconds(45));
  chain.append(&classifier);
  chain.append(&blocker);
  feed_chain(chain, net, rng, 8);
  ASSERT_GT(classifier.flows_classified(), 0u);
  ASSERT_GT(blocker.blocked(), 0u);

  const ChainCheckpoint ckpt = capture_chain(chain, 3, seconds(1));
  const auto back = ChainCheckpoint::decode(ckpt.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->chain_id, ckpt.chain_id);
  EXPECT_EQ(back->seq, ckpt.seq);
  EXPECT_EQ(back->taken_at, ckpt.taken_at);
  EXPECT_EQ(back->incremental, ckpt.incremental);
  ASSERT_EQ(back->modules.size(), ckpt.modules.size());
  for (std::size_t m = 0; m < ckpt.modules.size(); ++m) {
    EXPECT_EQ(back->modules[m].module, ckpt.modules[m].module);
    EXPECT_EQ(back->modules[m].packets_seen, ckpt.modules[m].packets_seen);
    EXPECT_EQ(back->modules[m].state, ckpt.modules[m].state);
  }

  // Restoring into a fresh chain reproduces the source state byte for byte.
  Classifier classifier2({{"Content-Type: video", 0x20}});
  TrackerBlocker blocker2({Ipv4Addr(6, 6, 6, 6)});
  Chain chain2("chain:ckpt:restored", microseconds(45));
  chain2.append(&classifier2);
  chain2.append(&blocker2);
  EXPECT_EQ(restore_chain(chain2, *back), 2u);
  EXPECT_EQ(classifier2.serialize_state(), classifier.serialize_state());
  EXPECT_EQ(blocker2.serialize_state(), blocker.serialize_state());
  EXPECT_EQ(classifier2.flows_classified(), classifier.flows_classified());
  EXPECT_EQ(blocker2.packets_seen, blocker.packets_seen);
  EXPECT_EQ(blocker2.packets_dropped, blocker.packets_dropped);
}

TEST_P(CheckpointProperty, EveryTruncationIsRejected) {
  Rng rng(GetParam());
  Network net(GetParam());
  Classifier classifier({{"Content-Type: video", 0x20}});
  Chain chain("chain:ckpt:1", microseconds(45));
  chain.append(&classifier);
  feed_chain(chain, net, rng, 4);
  const Bytes full = capture_chain(chain, 1, 0).encode();
  ASSERT_TRUE(ChainCheckpoint::decode(full).has_value());
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    Bytes truncated(full.begin(),
                    full.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(ChainCheckpoint::decode(truncated).has_value())
        << "truncation at " << cut << " of " << full.size();
  }
}

TEST_P(CheckpointProperty, BitFlipsAreRejectedWholesale) {
  Rng rng(GetParam() + 50);
  Network net(GetParam());
  Classifier classifier({{"Content-Type: video", 0x20}});
  TrackerBlocker blocker({Ipv4Addr(6, 6, 6, 6)});
  Chain chain("chain:ckpt:2", microseconds(45));
  chain.append(&classifier);
  chain.append(&blocker);
  feed_chain(chain, net, rng, 6);
  const Bytes full = capture_chain(chain, 1, 0).encode();
  for (int i = 0; i < 300; ++i) {
    Bytes corrupted = full;
    const std::size_t at = rng.next_below(corrupted.size());
    corrupted[at] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    EXPECT_FALSE(ChainCheckpoint::decode(corrupted).has_value())
        << "bit flip at byte " << at;
  }
}

TEST_P(CheckpointProperty, CorruptedSnapshotNeverPartiallyRestores) {
  Rng rng(GetParam() + 99);
  Network net(GetParam());
  Classifier donor({{"Content-Type: video", 0x20}});
  Chain donor_chain("chain:ckpt:3", microseconds(45));
  donor_chain.append(&donor);
  feed_chain(donor_chain, net, rng, 8);
  ChainCheckpoint ckpt = capture_chain(donor_chain, 1, 0);
  ASSERT_EQ(ckpt.modules.size(), 1u);

  // The victim has its own, different state. A snapshot whose module payload
  // is mangled (modeling a serializer bug — the digest only protects the
  // transport) must be rejected by restore_state with zero mutation.
  Classifier victim({{"Content-Type: video", 0x20}});
  Chain victim_chain("chain:ckpt:victim", microseconds(45));
  victim_chain.append(&victim);
  feed_chain(victim_chain, net, rng, 3);
  const Bytes before = victim.serialize_state();
  const std::uint64_t flows_before = victim.flows_classified();

  ChainCheckpoint truncated_state = ckpt;
  truncated_state.modules[0].state.resize(
      truncated_state.modules[0].state.size() / 2);
  EXPECT_EQ(restore_chain(victim_chain, truncated_state), 0u);
  EXPECT_EQ(victim.serialize_state(), before);
  EXPECT_EQ(victim.flows_classified(), flows_before);

  ChainCheckpoint bad_version = ckpt;
  bad_version.modules[0].state_version = 999;
  EXPECT_EQ(restore_chain(victim_chain, bad_version), 0u);
  EXPECT_EQ(victim.serialize_state(), before);

  ChainCheckpoint extended = ckpt;
  extended.modules[0].state.push_back(0xAB);
  EXPECT_EQ(restore_chain(victim_chain, extended), 0u);
  EXPECT_EQ(victim.serialize_state(), before);

  // And the intact checkpoint still applies cleanly afterwards.
  EXPECT_EQ(restore_chain(victim_chain, ckpt), 1u);
  EXPECT_EQ(victim.serialize_state(), donor.serialize_state());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointProperty,
                         ::testing::Values(31, 32, 33));

// --- ESP ------------------------------------------------------------------------------

class EspProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EspProperty, RandomInnerPacketsRoundTrip) {
  Rng rng(GetParam());
  Network net(GetParam());
  const Bytes key = to_bytes("property-key");
  for (int i = 0; i < 100; ++i) {
    Packet inner = net.make_packet(
        Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())),
        Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())),
        rng.bernoulli(0.5) ? IpProto::kTcp : IpProto::kUdp,
        Bytes(rng.next_below(1500), static_cast<std::uint8_t>(rng.next_u64())));
    inner.ip.tos = static_cast<std::uint8_t>(rng.next_u64());
    const Packet outer =
        esp_encap(inner, Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2), key,
                  static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(i));
    const auto back = esp_decap(outer, key);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->ip.src, inner.ip.src);
    EXPECT_EQ(back->ip.dst, inner.ip.dst);
    EXPECT_EQ(back->ip.proto, inner.ip.proto);
    EXPECT_EQ(back->ip.tos, inner.ip.tos);
    EXPECT_EQ(back->l4, inner.l4);
  }
}

TEST_P(EspProperty, SingleBitFlipsAlwaysFailAuth) {
  Rng rng(GetParam() + 7);
  Network net(GetParam());
  const Bytes key = to_bytes("property-key");
  Packet inner = net.make_packet(Ipv4Addr(10, 0, 0, 2), Ipv4Addr(1, 2, 3, 4),
                                 IpProto::kUdp, Bytes(64, 0x42));
  const Packet outer = esp_encap(inner, Ipv4Addr(1, 1, 1, 1),
                                 Ipv4Addr(2, 2, 2, 2), key, 1, 1);
  for (int i = 0; i < 100; ++i) {
    Packet corrupted = outer;
    // Flip a random bit anywhere past the spi/seq prefix.
    const std::size_t at = 8 + rng.next_below(corrupted.l4.size() - 8);
    corrupted.l4[at] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    EXPECT_FALSE(esp_decap(corrupted, key).has_value()) << "bit at " << at;
  }
}

Packet random_inner_packet(Network& net, Rng& rng, std::size_t max_l4) {
  Bytes l4(rng.next_below(max_l4 + 1));
  for (std::uint8_t& b : l4) b = static_cast<std::uint8_t>(rng.next_u64());
  Packet inner = net.make_packet(
      Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())),
      Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())),
      rng.bernoulli(0.5) ? IpProto::kTcp : IpProto::kUdp, std::move(l4));
  inner.ip.tos = static_cast<std::uint8_t>(rng.next_u64());
  inner.ip.ttl = static_cast<std::uint8_t>(rng.next_u64());
  return inner;
}

// The ESP frame layout, built the long way round from the generic codec:
// u32 spi | u32 seq | blob(inner) | hmac(key, inner).to_bytes(), where
// `inner` is normally the inner packet's IP header followed by its l4.
Bytes reference_esp_frame(std::uint32_t spi, std::uint32_t seq,
                          const Bytes& inner, const Bytes& key) {
  ByteWriter w;
  w.u32(spi);
  w.u32(seq);
  w.blob(inner);
  w.raw(hmac(key, inner).to_bytes());
  return std::move(w).take();
}

Packet esp_packet(Bytes frame) {
  Packet p;
  p.ip.proto = IpProto::kEsp;
  p.l4 = std::move(frame);
  return p;
}

TEST_P(EspProperty, EncapMatchesReferenceLayoutByteForByte) {
  Rng rng(GetParam() + 11);
  Network net(GetParam());
  for (int i = 0; i < 200; ++i) {
    const Packet inner = random_inner_packet(net, rng, 1500);
    Bytes key(rng.next_below(65));
    for (std::uint8_t& b : key) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto spi = static_cast<std::uint32_t>(rng.next_u64());
    const auto seq = static_cast<std::uint32_t>(rng.next_u64());
    const Packet outer = esp_encap(inner, Ipv4Addr(1, 1, 1, 1),
                                   Ipv4Addr(2, 2, 2, 2), key, spi, seq);
    ByteWriter inner_bytes;
    inner.ip.encode(inner_bytes);
    inner_bytes.raw(inner.l4);
    ASSERT_EQ(outer.l4, reference_esp_frame(spi, seq, inner_bytes.bytes(), key))
        << "inner l4 " << inner.l4.size() << " B, key " << key.size() << " B";
    EXPECT_EQ(outer.ip.src, Ipv4Addr(1, 1, 1, 1));
    EXPECT_EQ(outer.ip.dst, Ipv4Addr(2, 2, 2, 2));
    EXPECT_EQ(outer.ip.proto, IpProto::kEsp);
    EXPECT_EQ(outer.ip.tos, 0);
    EXPECT_EQ(outer.id, inner.id);
  }
}

TEST_P(EspProperty, EveryStrictPrefixIsRejected) {
  Rng rng(GetParam() + 13);
  Network net(GetParam());
  const Bytes key = to_bytes("property-key");
  for (int i = 0; i < 4; ++i) {
    // Includes an empty inner l4: the smallest valid frame.
    const Packet inner = random_inner_packet(net, rng, i == 0 ? 0 : 300);
    const Packet outer = esp_encap(inner, Ipv4Addr(1, 1, 1, 1),
                                   Ipv4Addr(2, 2, 2, 2), key, 1, 1);
    ASSERT_TRUE(esp_decap(outer, key).has_value());
    const Bytes& full = outer.l4;
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      Packet truncated = outer;
      truncated.l4 =
          Bytes(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut));
      EXPECT_FALSE(esp_decap(truncated, key).has_value())
          << "truncation at " << cut << " of " << full.size();
    }
  }
}

TEST_P(EspProperty, DeclaredLengthMustLeaveAWholeMac) {
  Rng rng(GetParam() + 17);
  Network net(GetParam());
  const Bytes key = to_bytes("property-key");
  const Packet inner = random_inner_packet(net, rng, 200);
  const Bytes full =
      esp_encap(inner, Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2), key, 1, 1).l4;
  const std::uint32_t len = static_cast<std::uint32_t>(inner.size());
  const auto with_len = [&](std::uint32_t declared) {
    Bytes frame = full;
    for (int b = 0; b < 4; ++b) {
      frame[8 + b] = static_cast<std::uint8_t>(declared >> (24 - 8 * b));
    }
    return esp_packet(std::move(frame));
  };
  ASSERT_TRUE(esp_decap(with_len(len), key).has_value());
  // Past the end of the buffer, including lengths that wrap a 32-bit sum.
  const std::uint32_t remaining = static_cast<std::uint32_t>(full.size() - 12);
  for (const std::uint32_t declared :
       {remaining + 1, remaining + 1000, 0x7FFFFFFFu, 0xFFFFFFE0u, 0xFFFFFFFFu}) {
    EXPECT_FALSE(esp_decap(with_len(declared), key).has_value())
        << "declared " << declared;
  }
  // Inside the buffer but leaving 0..31 bytes for the 32-byte MAC.
  for (std::uint32_t short_by = 1; short_by <= 32; ++short_by) {
    EXPECT_FALSE(esp_decap(with_len(len + short_by), key).has_value())
        << "MAC short by " << short_by;
  }
}

TEST_P(EspProperty, AuthenticInnerShorterThanIpHeaderIsRejected) {
  Rng rng(GetParam() + 19);
  const Bytes key = to_bytes("property-key");
  Bytes inner_bytes;
  for (std::size_t n = 0; n < IpHeader::kWireSize; ++n) {
    // A correct MAC over a too-short inner packet: only the length rejects.
    const Packet outer = esp_packet(reference_esp_frame(1, 1, inner_bytes, key));
    EXPECT_FALSE(esp_decap(outer, key).has_value()) << "inner of " << n << " B";
    inner_bytes.push_back(static_cast<std::uint8_t>(rng.next_u64()));
  }
  // A bare 20-byte header with the same framing decodes, to an empty l4.
  const auto header_only =
      esp_decap(esp_packet(reference_esp_frame(1, 1, inner_bytes, key)), key);
  ASSERT_TRUE(header_only.has_value());
  EXPECT_TRUE(header_only->l4.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EspProperty, ::testing::Values(21, 22, 23));

// --- Meter long-run conformance property ----------------------------------------------

struct MeterCase {
  int rate_kbps;
  int offered_kbps;
  std::uint64_t seed;
};

class MeterProperty : public ::testing::TestWithParam<MeterCase> {};

TEST_P(MeterProperty, LongRunOutputNeverExceedsConfiguredRate) {
  const MeterCase c = GetParam();
  Meter meter(Rate::kbps(c.rate_kbps), 16 * 1024);
  Rng rng(c.seed);
  const std::int64_t pkt = 1000;  // bytes
  const double pkts_per_sec = c.offered_kbps * 1000.0 / 8.0 / pkt;
  std::int64_t passed_bytes = 0;
  SimTime now = 0;
  const SimDuration horizon = seconds(30);
  while (now < horizon) {
    now += static_cast<SimDuration>(rng.exponential(kSecond / pkts_per_sec));
    if (meter.conforms(pkt, now)) passed_bytes += pkt;
  }
  const double out_kbps = passed_bytes * 8.0 / to_seconds(horizon) / 1000.0;
  // Never above configured rate (+ burst amortized over 30 s ≈ 4 kbps).
  EXPECT_LE(out_kbps, c.rate_kbps * 1.05 + 5);
  // And if offered >= configured, the meter should pass ~the full rate.
  if (c.offered_kbps >= c.rate_kbps * 2) {
    EXPECT_GE(out_kbps, c.rate_kbps * 0.9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MeterProperty,
    ::testing::Values(MeterCase{500, 250, 1}, MeterCase{500, 1000, 2},
                      MeterCase{1500, 8000, 3}, MeterCase{1500, 1500, 4},
                      MeterCase{100, 5000, 5}, MeterCase{8000, 16000, 6}));

// --- Ops protocol ---------------------------------------------------------------------

FlowRule random_ops_rule(Rng& rng) {
  FlowRule r;
  r.priority = static_cast<int>(rng.next_below(1000));
  r.cookie = "ops:" + random_name(rng);
  if (rng.next_below(2)) r.match.in_port = static_cast<int>(rng.next_below(8));
  if (rng.next_below(2)) {
    r.match.src = Prefix{Ipv4Addr{static_cast<std::uint32_t>(rng.next_u64())},
                         static_cast<int>(rng.next_below(33))};
  }
  if (rng.next_below(2)) {
    r.match.dst = Prefix{Ipv4Addr{static_cast<std::uint32_t>(rng.next_u64())},
                         static_cast<int>(rng.next_below(33))};
  }
  if (rng.next_below(2)) r.match.proto = IpProto::kUdp;
  if (rng.next_below(2)) r.match.src_port = static_cast<Port>(rng.next_u64());
  if (rng.next_below(2)) r.match.dst_port = static_cast<Port>(rng.next_u64());
  if (rng.next_below(2)) r.match.tos = static_cast<std::uint8_t>(rng.next_below(256));
  const int n_actions = static_cast<int>(rng.next_below(4));
  for (int i = 0; i < n_actions; ++i) {
    Action a;
    switch (rng.next_below(8)) {
      case 0: a = ActOutput{static_cast<int>(rng.next_below(8))}; break;
      case 1: a = ActDrop{}; break;
      case 2: a = ActSetTos{static_cast<std::uint8_t>(rng.next_below(256))}; break;
      case 3: a = ActSetDst{Ipv4Addr{static_cast<std::uint32_t>(rng.next_u64())}}; break;
      case 4: a = ActMbox{"chain:" + random_name(rng)}; break;
      case 5: a = ActMeter{"meter:" + random_name(rng)}; break;
      case 6: a = ActGotoTable{static_cast<int>(rng.next_below(4))}; break;
      default: a = ActTunnel{Ipv4Addr{static_cast<std::uint32_t>(rng.next_u64())}}; break;
    }
    r.actions.push_back(a);
  }
  return r;
}

OpsReconfigRequest random_reconfig(Rng& rng) {
  OpsReconfigRequest m;
  m.seq = static_cast<std::uint32_t>(rng.next_u64());
  m.verb = static_cast<OpsVerb>(1 + rng.next_below(5));
  m.switch_name = random_name(rng);
  m.table = static_cast<std::int32_t>(rng.next_below(4));
  m.rule = random_ops_rule(rng);
  m.cache_id = rng.next_below(2) ? random_name(rng) : "";
  m.device_id = random_name(rng);
  m.target_host = random_name(rng);
  m.quarantine = static_cast<std::uint8_t>(rng.next_below(2));
  m.sample_interval = static_cast<std::uint32_t>(rng.next_u64());
  return m;
}

class OpsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OpsProperty, AllMessageTypesRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    OpsSnapshotRequest sreq;
    sreq.seq = static_cast<std::uint32_t>(rng.next_u64());
    sreq.prefix = rng.next_below(2) ? "netsim.link." : "";
    const auto sreq2 = OpsSnapshotRequest::decode(sreq.encode());
    ASSERT_TRUE(sreq2.has_value());
    EXPECT_EQ(sreq2->seq, sreq.seq);
    EXPECT_EQ(sreq2->prefix, sreq.prefix);

    OpsSnapshotReply srep;
    srep.seq = sreq.seq;
    srep.barrier_time = static_cast<SimTime>(rng.next_below(1u << 30));
    const int n_samples = static_cast<int>(rng.next_below(5));
    for (int s = 0; s < n_samples; ++s) {
      OpsMetricSample ms;
      ms.name = "m." + random_name(rng);
      ms.instance = rng.next_below(2) ? random_name(rng) : "";
      ms.kind = static_cast<std::uint8_t>(rng.next_below(3));
      ms.counter_value = rng.next_u64();
      ms.gauge_value = static_cast<std::int64_t>(rng.next_u64());
      ms.hist_count = rng.next_below(1000);
      ms.hist_sum = rng.next_u64();
      srep.samples.push_back(std::move(ms));
    }
    srep.digest = ops_snapshot_digest(srep.samples);
    const auto srep2 = OpsSnapshotReply::decode(srep.encode());
    ASSERT_TRUE(srep2.has_value());
    EXPECT_EQ(srep2->barrier_time, srep.barrier_time);
    EXPECT_EQ(srep2->samples, srep.samples);
    // The digest survives the wire and re-verifies against the samples.
    EXPECT_EQ(srep2->digest, ops_snapshot_digest(srep2->samples));

    OpsSessionQuery q;
    q.seq = static_cast<std::uint32_t>(rng.next_u64());
    q.device_id = random_name(rng);
    q.max_spans = static_cast<std::uint32_t>(rng.next_below(32));
    const auto q2 = OpsSessionQuery::decode(q.encode());
    ASSERT_TRUE(q2.has_value());
    EXPECT_EQ(q2->device_id, q.device_id);
    EXPECT_EQ(q2->max_spans, q.max_spans);

    OpsSessionInfo info;
    info.seq = q.seq;
    info.found = rng.next_below(2) != 0;
    info.device_id = q.device_id;
    info.chain_id = "chain:" + random_name(rng);
    info.switch_name = random_name(rng);
    info.modules = {"Nat", "Firewall"};
    info.lease_expires_at = static_cast<SimTime>(rng.next_below(1u << 30));
    info.degraded = rng.next_below(2) != 0;
    info.standby_ready = rng.next_below(2) != 0;
    info.promoted = rng.next_below(2) != 0;
    info.standby_pool = rng.next_below(2) ? -1 : static_cast<std::int32_t>(rng.next_below(8));
    info.checkpoint_seq = rng.next_u64();
    info.reputation = static_cast<double>(rng.next_below(1001)) / 1000.0;
    info.quarantined = rng.next_below(2) != 0;
    const int n_spans = static_cast<int>(rng.next_below(4));
    for (int s = 0; s < n_spans; ++s) {
      OpsSpan sp;
      sp.name = random_name(rng);
      sp.category = "control";
      sp.start = static_cast<SimTime>(rng.next_below(1u << 20));
      sp.end = rng.next_below(2) ? sp.start + 100 : -1;
      info.spans.push_back(std::move(sp));
    }
    const auto info2 = OpsSessionInfo::decode(info.encode());
    ASSERT_TRUE(info2.has_value());
    EXPECT_EQ(info2->found, info.found);
    EXPECT_EQ(info2->modules, info.modules);
    EXPECT_EQ(info2->standby_pool, info.standby_pool);
    EXPECT_EQ(info2->reputation, info.reputation);
    EXPECT_EQ(info2->spans, info.spans);

    const OpsReconfigRequest rq = random_reconfig(rng);
    const auto rq2 = OpsReconfigRequest::decode(rq.encode());
    ASSERT_TRUE(rq2.has_value());
    EXPECT_EQ(rq2->seq, rq.seq);
    EXPECT_EQ(rq2->verb, rq.verb);
    EXPECT_EQ(rq2->switch_name, rq.switch_name);
    EXPECT_EQ(rq2->table, rq.table);
    EXPECT_TRUE(same_rule(rq2->rule, rq.rule));
    EXPECT_EQ(rq2->cache_id, rq.cache_id);
    EXPECT_EQ(rq2->device_id, rq.device_id);
    EXPECT_EQ(rq2->target_host, rq.target_host);
    EXPECT_EQ(rq2->quarantine, rq.quarantine);
    EXPECT_EQ(rq2->sample_interval, rq.sample_interval);

    OpsReconfigReply rrep;
    rrep.seq = rq.seq;
    rrep.verb = rq.verb;
    rrep.ok = rng.next_below(2) != 0;
    rrep.applied = rrep.ok && rng.next_below(2) != 0;
    rrep.detail = random_name(rng);
    const auto rrep2 = OpsReconfigReply::decode(rrep.encode());
    ASSERT_TRUE(rrep2.has_value());
    EXPECT_EQ(rrep2->ok, rrep.ok);
    EXPECT_EQ(rrep2->applied, rrep.applied);
    EXPECT_EQ(rrep2->detail, rrep.detail);

    OpsTraceDumpReply dump;
    dump.seq = static_cast<std::uint32_t>(rng.next_u64());
    dump.samples = static_cast<std::uint32_t>(rng.next_below(100));
    dump.trace_json = "{\"traceEvents\": []}";
    const auto dump2 = OpsTraceDumpReply::decode(dump.encode());
    ASSERT_TRUE(dump2.has_value());
    EXPECT_EQ(dump2->trace_json, dump.trace_json);

    // Typed framing round-trips and preserves the body bytes exactly.
    const Bytes body = rq.encode();
    const auto unwrapped = ops_unwrap(ops_wrap(OpsMsgType::kReconfigRequest, body));
    ASSERT_TRUE(unwrapped.has_value());
    EXPECT_EQ(unwrapped->first, OpsMsgType::kReconfigRequest);
    EXPECT_EQ(unwrapped->second, body);
  }
}

TEST_P(OpsProperty, ReconfigTruncationNeverYieldsARequest) {
  // A reconfiguration verb must be all-or-nothing on the wire: any prefix of
  // a valid request fails decode outright, so the endpoint can never act on
  // half a request.
  Rng rng(GetParam());
  const Bytes full = random_reconfig(rng).encode();
  ASSERT_TRUE(OpsReconfigRequest::decode(full).has_value());
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    Bytes truncated(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(OpsReconfigRequest::decode(truncated).has_value())
        << "truncation at " << cut << " of " << full.size();
  }
}

TEST_P(OpsProperty, ReconfigBitFlipsAreAllOrNothing) {
  // The codec has no checksum, so a flipped bit may still decode — but then
  // it must decode to a *complete* alternative request whose canonical
  // encoding is exactly the corrupted bytes. There is no middle ground where
  // a parse half-succeeds and leaves trailing fields at defaults.
  Rng rng(GetParam() + 77);
  const Bytes full = random_reconfig(rng).encode();
  for (int i = 0; i < 300; ++i) {
    Bytes corrupted = full;
    const std::size_t at = rng.next_below(corrupted.size());
    corrupted[at] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    const auto m = OpsReconfigRequest::decode(corrupted);
    if (!m.has_value()) continue;
    EXPECT_EQ(m->encode(), corrupted) << "bit flip at byte " << at;
  }
}

TEST_P(OpsProperty, MalformedRuleAndVerbEncodingsAreRejected) {
  Rng rng(GetParam());
  {
    // Unknown match bit.
    ByteWriter w;
    w.u32(5);
    w.str("cookie");
    w.u8(0x80);  // only bits 0..6 are assigned
    w.u16(0);
    ByteReader r(w.bytes());
    EXPECT_FALSE(decode_flow_rule(r).has_value());
  }
  {
    // Prefix length out of range.
    ByteWriter w;
    w.u32(5);
    w.str("cookie");
    w.u8(1u << 1);  // src prefix present
    w.u32(0x0A000000);
    w.u8(33);
    w.u16(0);
    ByteReader r(w.bytes());
    EXPECT_FALSE(decode_flow_rule(r).has_value());
  }
  for (const std::uint8_t tag : {std::uint8_t{0}, std::uint8_t{9}, std::uint8_t{255}}) {
    // Unknown action tag rejects the whole rule.
    ByteWriter w;
    w.u32(5);
    w.str("cookie");
    w.u8(0);  // empty match
    w.u16(1);
    w.u8(tag);
    ByteReader r(w.bytes());
    EXPECT_FALSE(decode_flow_rule(r).has_value()) << "tag " << int(tag);
  }
  {
    // Out-of-range verb byte (offset 4, right after the u32 seq).
    Bytes full = random_reconfig(rng).encode();
    ASSERT_TRUE(OpsReconfigRequest::decode(full).has_value());
    for (const std::uint8_t verb : {std::uint8_t{0}, std::uint8_t{6}, std::uint8_t{200}}) {
      Bytes bad = full;
      bad[4] = verb;
      EXPECT_FALSE(OpsReconfigRequest::decode(bad).has_value()) << "verb " << int(verb);
    }
  }
  {
    // Quarantine flag must be 0 or 1 on the wire.
    OpsReconfigRequest m = random_reconfig(rng);
    m.quarantine = 2;
    EXPECT_FALSE(OpsReconfigRequest::decode(m.encode()).has_value());
  }
  // Framing rejects unassigned message types (13 = one past kTraceReply).
  EXPECT_FALSE(ops_unwrap(ops_wrap(static_cast<OpsMsgType>(0), Bytes{})).has_value());
  EXPECT_FALSE(ops_unwrap(ops_wrap(static_cast<OpsMsgType>(13), Bytes{})).has_value());
}

TEST_P(OpsProperty, RandomBytesNeverCrashOpsDecoders) {
  Rng rng(GetParam() + 1234);
  for (int i = 0; i < 300; ++i) {
    Bytes junk(rng.next_below(120));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    (void)OpsSnapshotRequest::decode(junk);
    (void)OpsSnapshotReply::decode(junk);
    (void)OpsSessionQuery::decode(junk);
    (void)OpsSessionInfo::decode(junk);
    (void)OpsReconfigRequest::decode(junk);
    (void)OpsReconfigReply::decode(junk);
    (void)OpsTraceDumpRequest::decode(junk);
    (void)OpsTraceDumpReply::decode(junk);
    (void)OpsAlertsRequest::decode(junk);
    (void)OpsAlertsReply::decode(junk);
    (void)OpsTraceRequest::decode(junk);
    (void)OpsTraceReply::decode(junk);
    (void)ops_unwrap(junk);
  }
}

// --- Health-plane messages (alerts + stitched causal traces) ------------------------

OpsAlertsReply random_alerts_reply(Rng& rng) {
  OpsAlertsReply rep;
  rep.seq = static_cast<std::uint32_t>(rng.next_u64());
  rep.barrier_time = static_cast<SimTime>(rng.next_below(1u << 30));
  const int n = static_cast<int>(rng.next_below(5));
  for (int i = 0; i < n; ++i) {
    OpsAlert a;
    a.rule = random_name(rng);
    a.metric = "pvn.client." + random_name(rng);
    a.firing = rng.next_below(2) != 0 ? 1 : 0;
    a.value = static_cast<double>(rng.next_below(1u << 20));
    a.threshold = static_cast<double>(rng.next_below(1u << 20));
    a.since = static_cast<SimTime>(rng.next_below(1u << 30));
    a.windows = static_cast<std::uint32_t>(rng.next_below(64));
    rep.alerts.push_back(std::move(a));
  }
  rep.digest = ops_alerts_digest(rep.alerts);
  return rep;
}

OpsTraceReply random_trace_reply(Rng& rng) {
  OpsTraceReply rep;
  rep.seq = static_cast<std::uint32_t>(rng.next_u64());
  rep.found = rng.next_below(2) != 0;
  rep.trace_id = 1 + rng.next_below(1000);
  rep.session = random_name(rng);
  rep.start = static_cast<SimTime>(rng.next_below(1u << 30));
  rep.end = rep.start + static_cast<SimTime>(rng.next_below(1u << 20));
  const int n = static_cast<int>(rng.next_below(6));
  for (int i = 0; i < n; ++i) {
    OpsTraceSpan ts;
    ts.span_id = 1 + rng.next_below(1u << 20);
    ts.parent_span = rng.next_below(2) ? 0 : 1 + rng.next_below(1u << 20);
    ts.name = random_name(rng);
    ts.node = random_name(rng);
    ts.start = static_cast<SimTime>(rng.next_below(1u << 30));
    ts.end = rng.next_below(2) ? ts.start + 50 : -1;
    if (rng.next_below(2)) {
      rep.critical.push_back(ts);
    }
    rep.spans.push_back(std::move(ts));
  }
  rep.digest = ops_trace_digest(rep.trace_id, rep.session, rep.start, rep.end,
                                rep.spans, rep.critical);
  return rep;
}

TEST_P(OpsProperty, HealthPlaneMessagesRoundTrip) {
  Rng rng(GetParam() + 500);
  for (int i = 0; i < 100; ++i) {
    OpsAlertsRequest areq;
    areq.seq = static_cast<std::uint32_t>(rng.next_u64());
    const auto areq2 = OpsAlertsRequest::decode(areq.encode());
    ASSERT_TRUE(areq2.has_value());
    EXPECT_EQ(areq2->seq, areq.seq);

    const OpsAlertsReply arep = random_alerts_reply(rng);
    const auto arep2 = OpsAlertsReply::decode(arep.encode());
    ASSERT_TRUE(arep2.has_value());
    EXPECT_EQ(arep2->barrier_time, arep.barrier_time);
    EXPECT_EQ(arep2->digest, arep.digest);
    EXPECT_EQ(arep2->alerts, arep.alerts);
    // The digest survives the wire: recomputing over the decoded list
    // reproduces it (the check the bench relies on).
    EXPECT_EQ(ops_alerts_digest(arep2->alerts), arep.digest);

    OpsTraceRequest treq;
    treq.seq = static_cast<std::uint32_t>(rng.next_u64());
    treq.session = random_name(rng);
    const auto treq2 = OpsTraceRequest::decode(treq.encode());
    ASSERT_TRUE(treq2.has_value());
    EXPECT_EQ(treq2->session, treq.session);

    const OpsTraceReply trep = random_trace_reply(rng);
    const auto trep2 = OpsTraceReply::decode(trep.encode());
    ASSERT_TRUE(trep2.has_value());
    EXPECT_EQ(trep2->found, trep.found);
    EXPECT_EQ(trep2->trace_id, trep.trace_id);
    EXPECT_EQ(trep2->session, trep.session);
    EXPECT_EQ(trep2->spans, trep.spans);
    EXPECT_EQ(trep2->critical, trep.critical);
    EXPECT_EQ(ops_trace_digest(trep2->trace_id, trep2->session, trep2->start,
                               trep2->end, trep2->spans, trep2->critical),
              trep.digest);
  }
}

TEST_P(OpsProperty, HealthPlaneTruncationIsRejected) {
  Rng rng(GetParam() + 501);
  const Bytes areply = random_alerts_reply(rng).encode();
  ASSERT_TRUE(OpsAlertsReply::decode(areply).has_value());
  for (std::size_t cut = 0; cut < areply.size(); ++cut) {
    Bytes t(areply.begin(), areply.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(OpsAlertsReply::decode(t).has_value())
        << "truncation at " << cut << " of " << areply.size();
  }
  const Bytes treply = random_trace_reply(rng).encode();
  ASSERT_TRUE(OpsTraceReply::decode(treply).has_value());
  for (std::size_t cut = 0; cut < treply.size(); ++cut) {
    Bytes t(treply.begin(), treply.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(OpsTraceReply::decode(t).has_value())
        << "truncation at " << cut << " of " << treply.size();
  }
}

TEST_P(OpsProperty, HealthPlaneBitFlipsAreAllOrNothing) {
  Rng rng(GetParam() + 502);
  const Bytes areply = random_alerts_reply(rng).encode();
  for (int i = 0; i < 300; ++i) {
    Bytes corrupted = areply;
    const std::size_t at = rng.next_below(corrupted.size());
    corrupted[at] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    const auto m = OpsAlertsReply::decode(corrupted);
    if (!m.has_value()) continue;
    EXPECT_EQ(m->encode(), corrupted) << "bit flip at byte " << at;
  }
  const Bytes treply = random_trace_reply(rng).encode();
  for (int i = 0; i < 300; ++i) {
    Bytes corrupted = treply;
    const std::size_t at = rng.next_below(corrupted.size());
    corrupted[at] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    const auto m = OpsTraceReply::decode(corrupted);
    if (!m.has_value()) continue;
    EXPECT_EQ(m->encode(), corrupted) << "bit flip at byte " << at;
  }
}

TEST_P(OpsProperty, AlertsDigestIsOrderAndValueSensitive) {
  Rng rng(GetParam() + 503);
  OpsAlertsReply rep = random_alerts_reply(rng);
  while (rep.alerts.size() < 2) {
    OpsAlert a;
    a.rule = random_name(rng);
    a.metric = random_name(rng);
    rep.alerts.push_back(std::move(a));
  }
  const std::uint64_t base = ops_alerts_digest(rep.alerts);
  auto swapped = rep.alerts;
  std::swap(swapped[0], swapped[1]);
  EXPECT_NE(ops_alerts_digest(swapped), base);
  auto flipped = rep.alerts;
  flipped[0].firing ^= 1;
  EXPECT_NE(ops_alerts_digest(flipped), base);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OpsProperty, ::testing::Values(61, 62, 63, 64));

// --- Chaos schedules ------------------------------------------------------------------

// A structurally valid random schedule: every event starts inside the fault
// window and resolves before the horizon, loss stays in [0, 1], planted-bug
// args stay in range — the same invariants the decoder enforces.
ChaosSchedule random_chaos_schedule(Rng& rng) {
  ChaosSchedule s;
  s.seed = rng.next_u64();
  s.scenario.clients = static_cast<std::uint32_t>(1 + rng.next_below(64));
  s.scenario.lease = static_cast<SimDuration>(kSecond * (5 + rng.next_below(55)));
  s.scenario.standbys = rng.bernoulli(0.5);
  s.scenario.rogue = rng.bernoulli(0.5);
  s.scenario.fault_window =
      static_cast<SimDuration>(kSecond * (10 + rng.next_below(110)));
  s.scenario.settle = static_cast<SimDuration>(kSecond * rng.next_below(120));
  s.scenario.max_pending_deploys = static_cast<std::uint32_t>(rng.next_below(32));
  s.scenario.max_expiries_per_sweep =
      static_cast<std::uint32_t>(rng.next_below(32));
  const std::uint64_t n = rng.next_below(24);
  for (std::uint64_t i = 0; i < n; ++i) {
    ChaosEvent e;
    e.kind = static_cast<ChaosEventKind>(rng.next_below(kChaosEventKindCount));
    e.at = static_cast<SimTime>(
        rng.next_below(static_cast<std::uint64_t>(s.scenario.fault_window) + 1));
    const std::uint64_t room = static_cast<std::uint64_t>(s.horizon() - e.at);
    e.duration = static_cast<SimDuration>(rng.next_below(room + 1));
    e.target = static_cast<std::uint32_t>(rng.next_below(s.scenario.clients));
    e.loss = static_cast<double>(rng.next_below(1001)) / 1000.0;
    e.arg = e.kind == ChaosEventKind::kPlantedBug
                ? static_cast<std::uint32_t>(rng.next_below(kPlantedBugCount))
                : static_cast<std::uint32_t>(rng.next_below(16));
    s.events.push_back(e);
  }
  return s;
}

class ChaosProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosProperty, RandomSchedulesRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    const ChaosSchedule s = random_chaos_schedule(rng);
    const auto back = ChaosSchedule::decode(s.encode());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, s);
  }
}

TEST_P(ChaosProperty, TruncationNeverYieldsASchedule) {
  // A repro file must be all-or-nothing: any prefix of a valid encoding
  // fails decode outright, so a truncated upload can never replay a
  // different experiment than the one that failed.
  Rng rng(GetParam() + 10);
  ChaosSchedule s = random_chaos_schedule(rng);
  while (s.events.empty()) s = random_chaos_schedule(rng);
  const Bytes full = s.encode();
  ASSERT_TRUE(ChaosSchedule::decode(full).has_value());
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    Bytes truncated(full.begin(),
                    full.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(ChaosSchedule::decode(truncated).has_value())
        << "truncation at " << cut << " of " << full.size();
  }
}

TEST_P(ChaosProperty, BitFlipsAreAllOrNothing) {
  // No checksum, so a flipped bit may still decode — but then it must decode
  // to a complete alternative schedule whose canonical encoding is exactly
  // the corrupted bytes: no half-parsed schedule with defaulted tail fields.
  Rng rng(GetParam() + 20);
  ChaosSchedule s = random_chaos_schedule(rng);
  while (s.events.empty()) s = random_chaos_schedule(rng);
  const Bytes full = s.encode();
  for (int i = 0; i < 500; ++i) {
    Bytes corrupted = full;
    const std::size_t at = rng.next_below(corrupted.size());
    corrupted[at] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    const auto m = ChaosSchedule::decode(corrupted);
    if (!m.has_value()) continue;
    EXPECT_EQ(m->encode(), corrupted) << "bit flip at byte " << at;
  }
}

TEST_P(ChaosProperty, RandomBytesNeverCrashTheDecoder) {
  Rng rng(GetParam() + 30);
  for (int i = 0; i < 500; ++i) {
    Bytes junk(rng.next_below(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    (void)ChaosSchedule::decode(junk);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosProperty, ::testing::Values(71, 72, 73));

}  // namespace
}  // namespace pvn
