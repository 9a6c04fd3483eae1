// Unit and property tests for the simulation kernel, byte codecs, RNG, and
// structural crypto in src/util.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <vector>

#include "util/bytes.h"
#include "util/digest.h"
#include "util/rng.h"
#include "util/sim.h"
#include "util/units.h"

namespace pvn {
namespace {

// --- Simulator --------------------------------------------------------------

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(milliseconds(30), [&] { order.push_back(3); });
  sim.schedule_at(milliseconds(10), [&] { order.push_back(1); });
  sim.schedule_at(milliseconds(20), [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), milliseconds(30));
}

TEST(Simulator, SameTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  SimTime fired = -1;
  sim.schedule_at(seconds(1), [&] {
    sim.schedule_after(milliseconds(500), [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, seconds(1) + milliseconds(500));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(milliseconds(1), [&] { ran = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelInvalidAndSpentIdsAreNoOps) {
  Simulator sim;
  sim.cancel(kInvalidEventId);
  bool ran = false;
  const EventId id = sim.schedule_at(0, [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  sim.cancel(id);  // already fired; must not disturb future events
  bool ran2 = false;
  sim.schedule_after(1, [&] { ran2 = true; });
  sim.run();
  EXPECT_TRUE(ran2);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(seconds(i), [&] { ++count; });
  }
  EXPECT_EQ(sim.run_until(seconds(5)), 5u);
  EXPECT_EQ(count, 5);
  EXPECT_LE(sim.now(), seconds(5));
  EXPECT_EQ(sim.run(), 5u);
}

TEST(Simulator, RunUntilAdvancesClockOnEmptyQueue) {
  Simulator sim;
  sim.run_until(seconds(3));
  EXPECT_EQ(sim.now(), seconds(3));
}

TEST(Simulator, PastScheduleClampsToNow) {
  Simulator sim;
  sim.schedule_at(seconds(2), [&] {
    SimTime fired = -1;
    sim.schedule_at(seconds(1), [&sim, &fired] { fired = sim.now(); });
    (void)fired;
  });
  sim.run();
  EXPECT_EQ(sim.now(), seconds(2));
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule_after(milliseconds(1), recurse);
  };
  sim.schedule_at(0, recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
}

TEST(Simulator, PendingEventsExcludesCancelled) {
  Simulator sim;
  const EventId a = sim.schedule_at(milliseconds(1), [] {});
  sim.schedule_at(milliseconds(2), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.cancel(a);  // double-cancel is a no-op
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Regression for the PR 1 lease-renewal pattern: schedule+cancel repeated
// indefinitely (timers that are always re-armed before firing) must not
// accumulate cancellation state or grow pending_events.
TEST(Simulator, RepeatedScheduleCancelCyclesDoNotAccumulateState) {
  Simulator sim;
  int fired = 0;
  EventId timer = kInvalidEventId;
  for (int i = 0; i < 10000; ++i) {
    sim.cancel(timer);  // for most iterations cancels an unfired event
    timer = sim.schedule_after(seconds(1000), [&] { ++fired; });
    EXPECT_EQ(sim.pending_events(), 1u);
    // Drive unrelated traffic so the queue keeps churning.
    sim.schedule_after(1, [] {});
    sim.run_until(sim.now() + 2);
  }
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(fired, 0);
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, CancelledEventIdIsStaleAfterSlotReuse) {
  Simulator sim;
  bool first = false, second = false;
  const EventId a = sim.schedule_at(milliseconds(1), [&] { first = true; });
  sim.cancel(a);
  sim.run();  // reclaims the slot
  [[maybe_unused]] const EventId b =
      sim.schedule_at(milliseconds(2), [&] { second = true; });
  sim.cancel(a);  // stale id, possibly pointing at b's recycled slot
  sim.run();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
}

// --- EventFn -----------------------------------------------------------------

TEST(EventFn, InvokesInlineAndHeapCallables) {
  int hits = 0;
  EventFn small([&hits] { ++hits; });
  EXPECT_TRUE(small.inlined());
  small();
  EXPECT_EQ(hits, 1);

  struct Big {
    unsigned char pad[256];
  } big{};
  EventFn large([&hits, big] {
    (void)big;
    ++hits;
  });
  EXPECT_FALSE(large.inlined());
  large();
  EXPECT_EQ(hits, 2);
}

TEST(EventFn, MovePreservesCallableAndReleasesSource) {
  int hits = 0;
  EventFn a([&hits] { ++hits; });
  EventFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);

  EventFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(EventFn, PacketSizedCapturesStayInline) {
  // The link-delivery lambda captures a pointer-rich context plus a Packet;
  // it must fit the inline buffer so per-hop scheduling never heap-allocates
  // the callback.
  struct DeliveryCapture {
    void* link;
    void* dir;
    void* from;
    bool lost;
    std::uint64_t id;
    void* shared_payload;
    std::int64_t created_at;
    void* trace_vec[3];
    void* names;
  } cap{};
  EventFn fn([cap] { (void)cap; });
  EXPECT_TRUE(fn.inlined());
  static_assert(sizeof(DeliveryCapture) <= EventFn::kInlineSize);
}

TEST(EventFn, DestroysMoveOnlyCaptureExactlyOnce) {
  auto token = std::make_unique<int>(7);
  int got = 0;
  {
    EventFn fn([&got, token = std::move(token)] { got = *token; });
    EventFn moved(std::move(fn));
    moved();
  }
  EXPECT_EQ(got, 7);
}

// --- Time formatting ---------------------------------------------------------

TEST(TimeFormat, AdaptiveUnits) {
  EXPECT_EQ(format_duration(nanoseconds(5)), "5ns");
  EXPECT_EQ(format_duration(microseconds(45)), "45.000us");
  EXPECT_EQ(format_duration(milliseconds(30)), "30.000ms");
  EXPECT_EQ(format_duration(seconds(2)), "2.000s");
}

// --- Rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliApproximatesProbability) {
  Rng r(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialHasRoughlyCorrectMean) {
  Rng r(17);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.15);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowZeroBoundYieldsZero) {
  Rng r(23);
  EXPECT_EQ(r.next_below(0), 0u);
}

// --- ByteWriter / ByteReader ---------------------------------------------------

TEST(Bytes, RoundTripScalars) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.14159);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, BigEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.bytes()[0], 0x01);
  EXPECT_EQ(w.bytes()[3], 0x04);
  w.u16(0x0506);
  w.u64(0x0708090A0B0C0D0Eull);
  const Bytes want = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14};
  EXPECT_EQ(w.bytes(), want);
}

TEST(Bytes, RoundTripStringsAndBlobs) {
  ByteWriter w;
  w.str("hello pvn");
  w.blob(to_bytes("payload"));
  w.str("");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.str(), "hello pvn");
  EXPECT_EQ(to_string(r.blob()), "payload");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, OverrunLatchesError) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u32(), 0u);  // overrun
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);  // still failed
  EXPECT_FALSE(r.exhausted());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, TruncatedBlobFails) {
  ByteWriter w;
  w.u32(100);  // claims 100 bytes follow
  w.u8(1);
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.blob().empty());
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, EmptyReaderIsExhausted) {
  ByteReader r(Bytes{});
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, SkipAdvancesAndLatchesOverrun) {
  ByteWriter w;
  w.u32(0xDEADBEEF);
  w.u16(0x0A0B);
  ByteReader r(w.bytes());
  r.skip(4);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.u16(), 0x0A0B);
  EXPECT_TRUE(r.exhausted());

  ByteReader past(w.bytes());
  past.skip(7);  // one byte beyond the end
  EXPECT_FALSE(past.ok());
  EXPECT_EQ(past.remaining(), 0u);
  EXPECT_EQ(past.u8(), 0u);  // still failed
  EXPECT_FALSE(past.ok());
}

// --- Digest / HMAC / signatures ------------------------------------------------

TEST(Digest, DeterministicAndInputSensitive) {
  EXPECT_EQ(digest_of("hello"), digest_of("hello"));
  EXPECT_NE(digest_of("hello"), digest_of("hellp"));
  EXPECT_NE(digest_of("hello"), digest_of("hell"));
  EXPECT_NE(digest_of(""), digest_of(std::string_view("\0", 1)));
}

TEST(Digest, HexIs64Chars) {
  EXPECT_EQ(digest_of("x").hex().size(), 64u);
}

TEST(Digest, BytesRoundTrip) {
  const Digest d = digest_of("round trip");
  const auto back = Digest::from_bytes(d.to_bytes());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, d);
}

TEST(Digest, FromBytesRejectsWrongLength) {
  EXPECT_FALSE(Digest::from_bytes(Bytes(31, 0)).has_value());
  EXPECT_FALSE(Digest::from_bytes(Bytes(33, 0)).has_value());
}

TEST(Hmac, KeyedAndDataSensitive) {
  const Bytes k1 = to_bytes("key1"), k2 = to_bytes("key2");
  const Bytes m = to_bytes("message");
  EXPECT_EQ(hmac(k1, m), hmac(k1, m));
  EXPECT_NE(hmac(k1, m), hmac(k2, m));
  EXPECT_NE(hmac(k1, m), hmac(k1, to_bytes("messagf")));
}

// Reference digest: one full FNV-1a pass over the input per lane, then the
// in-place cross-lane avalanche. digest_of must reproduce it bit for bit,
// because every stored digest, MAC and determinism digest depends on it.
Digest reference_digest(std::span<const std::uint8_t> data) {
  const auto mix = [](std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  Digest d;
  for (std::size_t lane = 0; lane < d.lanes.size(); ++lane) {
    std::uint64_t h = 0xCBF29CE484222325ull + 0x9E3779B97F4A7C15ull * lane;
    for (std::uint8_t byte : data) {
      h ^= byte;
      h *= 0x100000001B3ull;
    }
    d.lanes[lane] = mix(h + lane);
  }
  for (std::size_t i = 0; i < d.lanes.size(); ++i) {
    d.lanes[i] = mix(d.lanes[i] ^ d.lanes[(i + 1) % d.lanes.size()]);
  }
  return d;
}

// Reference MAC, spelled apart from util/digest.cc: ByteWriter builds the
// framed input u32 len(key) || key || data || u64 len(data) || key with each
// piece zero-padded to whole 8-byte words, and the four lanes fold it one
// little-endian word at a time, then finish as reference_digest does.
Digest reference_hmac(const Bytes& key, std::span<const std::uint8_t> data) {
  ByteWriter w;
  const auto pad = [&w] {
    while (w.size() % 8 != 0) w.u8(0);
  };
  w.u32(static_cast<std::uint32_t>(key.size()));
  pad();
  w.raw(key);
  pad();
  w.raw(data);
  pad();
  w.u64(data.size());
  w.raw(key);
  pad();
  const Bytes& framed = w.bytes();

  constexpr std::uint64_t kMul[4] = {
      0x9E3779B185EBCA87ull, 0xC2B2AE3D27D4EB4Full, 0x165667B19E3779F9ull,
      0x85EBCA77C2B2AE63ull};
  constexpr int kRot[4] = {31, 27, 33, 29};
  const auto mix = [](std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  Digest d;
  for (std::size_t lane = 0; lane < d.lanes.size(); ++lane) {
    std::uint64_t h = 0xCBF29CE484222325ull + 0x9E3779B97F4A7C15ull * lane;
    for (std::size_t at = 0; at < framed.size(); at += 8) {
      std::uint64_t word = 0;
      for (std::size_t b = 0; b < 8; ++b) {
        word |= std::uint64_t{framed[at + b]} << (8 * b);
      }
      h = std::rotl((h ^ word) * kMul[lane], kRot[lane]);
    }
    d.lanes[lane] = mix(h + lane);
  }
  for (std::size_t i = 0; i < d.lanes.size(); ++i) {
    d.lanes[i] = mix(d.lanes[i] ^ d.lanes[(i + 1) % d.lanes.size()]);
  }
  return d;
}

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes b(n);
  for (std::uint8_t& byte : b) byte = static_cast<std::uint8_t>(rng.next_u64());
  return b;
}

TEST(Digest, MatchesFourPassReferenceBitForBit) {
  EXPECT_EQ(digest_of(Bytes{}), reference_digest({}));
  EXPECT_EQ(digest_of(""), reference_digest({}));
  Rng rng(4096);
  for (int i = 0; i < 400; ++i) {
    // Sizes uniform in [0, 4096]; every fourth input is at most 16 bytes.
    const std::size_t n = i % 4 == 0 ? rng.next_below(17) : rng.next_below(4097);
    const Bytes data = random_bytes(rng, n);
    ASSERT_EQ(digest_of(data), reference_digest(data)) << "size " << n;
  }
  const Bytes max_input = random_bytes(rng, 4096);
  EXPECT_EQ(digest_of(max_input), reference_digest(max_input));
}

TEST(Hmac, MatchesConcatenatingReferenceBitForBit) {
  EXPECT_EQ(hmac(Bytes{}, Bytes{}), reference_hmac({}, {}));
  Rng rng(6464);
  for (int i = 0; i < 400; ++i) {
    const Bytes key = random_bytes(rng, rng.next_below(65));
    const Bytes data = random_bytes(
        rng, i % 4 == 0 ? rng.next_below(17) : rng.next_below(4097));
    ASSERT_EQ(hmac(key, data), reference_hmac(key, data))
        << "key " << key.size() << " B, data " << data.size() << " B";
  }
  const Bytes key = random_bytes(rng, 64);
  EXPECT_EQ(hmac(key, Bytes{}), reference_hmac(key, {}));
  EXPECT_EQ(hmac(Bytes{}, key), reference_hmac({}, key));
}

TEST(Hmac, MatchesReferenceAtEveryPaddingBoundary) {
  Rng rng(6565);
  const Bytes key_pool = random_bytes(rng, 64);
  const Bytes data_pool = random_bytes(rng, 64);
  for (std::size_t k = 0; k <= 64; ++k) {
    const Bytes key(key_pool.begin(),
                    key_pool.begin() + static_cast<std::ptrdiff_t>(k));
    for (std::size_t n = 0; n <= 64; ++n) {
      const std::span<const std::uint8_t> data(data_pool.data(), n);
      ASSERT_EQ(hmac(key, data), reference_hmac(key, data))
          << "key " << k << " B, data " << n << " B";
    }
  }
}

TEST(Hmac, TrailingZeroByteChangesTheMac) {
  // Zero padding never lets data and data || 0x00 share an input: the data
  // length is absorbed after the data.
  Rng rng(6666);
  for (int i = 0; i < 200; ++i) {
    const Bytes key = random_bytes(rng, rng.next_below(65));
    Bytes data = random_bytes(rng, i <= 64 ? static_cast<std::size_t>(i)
                                           : rng.next_below(1501));
    const Digest mac = hmac(key, data);
    data.push_back(0);
    EXPECT_NE(mac, hmac(key, data)) << "data " << data.size() - 1 << " B";
  }
}

TEST(Hmac, KeyAndDataBoundaryIsBound) {
  // Moving bytes from the end of the key to the start of the data changes
  // the MAC: the key length is absorbed first and the key again at the end.
  Rng rng(6767);
  for (int i = 0; i < 200; ++i) {
    const Bytes key = random_bytes(rng, rng.next_below(65));
    const Bytes moved = random_bytes(rng, 1 + rng.next_below(16));
    const Bytes data = random_bytes(rng, rng.next_below(257));
    Bytes longer_key = key;
    longer_key.insert(longer_key.end(), moved.begin(), moved.end());
    Bytes longer_data = moved;
    longer_data.insert(longer_data.end(), data.begin(), data.end());
    EXPECT_NE(hmac(longer_key, data), hmac(key, longer_data))
        << "key " << key.size() << " B, moved " << moved.size() << " B";
  }
}

TEST(Hmac, EverySingleBitFlipChangesAllFourLanes) {
  Rng rng(6868);
  const Bytes key = random_bytes(rng, 32);
  const Bytes data = random_bytes(rng, 1500);
  const Digest mac = hmac(key, data);
  const auto expect_all_lanes_differ = [&mac](const Digest& other,
                                              const char* where,
                                              std::size_t at) {
    for (std::size_t lane = 0; lane < mac.lanes.size(); ++lane) {
      EXPECT_NE(other.lanes[lane], mac.lanes[lane])
          << "lane " << lane << ", bit " << at << " of the " << where;
    }
  };
  for (int i = 0; i < 300; ++i) {
    const std::size_t at = rng.next_below(8 * data.size());
    Bytes flipped = data;
    flipped[at / 8] ^= static_cast<std::uint8_t>(1u << (at % 8));
    expect_all_lanes_differ(hmac(key, flipped), "data", at);
  }
  for (int i = 0; i < 100; ++i) {
    const std::size_t at = rng.next_below(8 * key.size());
    Bytes flipped = key;
    flipped[at / 8] ^= static_cast<std::uint8_t>(1u << (at % 8));
    expect_all_lanes_differ(hmac(flipped, data), "key", at);
  }
}

TEST(Hmac, KnownAnswer) {
  // Any change to the MAC's definition moves this value; rewrite it on
  // purpose, with the reason, or not at all.
  EXPECT_EQ(hmac(to_bytes("pvn-hmac-known-answer-key"),
                 to_bytes("selective redirection through ESP (Fig. 1c)"))
                .hex(),
            "49409b4938a72e99a9269b5cfa37975d740088d3d9015ea172d5fa6f60e53868");
}

TEST(Signatures, VerifyAcceptsGenuineSignature) {
  KeyPair kp(1234);
  KeyRegistry registry;
  registry.trust(kp);
  const Bytes msg = to_bytes("attestation quote");
  const Signature sig = kp.sign(msg);
  EXPECT_TRUE(registry.verify(kp.public_key(), msg, sig));
}

TEST(Signatures, VerifyRejectsTamperedMessage) {
  KeyPair kp(1234);
  KeyRegistry registry;
  registry.trust(kp);
  const Signature sig = kp.sign(to_bytes("original"));
  EXPECT_FALSE(registry.verify(kp.public_key(), to_bytes("tampered"), sig));
}

TEST(Signatures, VerifyRejectsUnknownKey) {
  KeyPair kp(1), other(2);
  KeyRegistry registry;
  registry.trust(other);
  const Bytes msg = to_bytes("m");
  EXPECT_FALSE(registry.verify(kp.public_key(), msg, kp.sign(msg)));
}

TEST(Signatures, VerifyRejectsWrongSigner) {
  KeyPair a(1), b(2);
  KeyRegistry registry;
  registry.trust(a);
  registry.trust(b);
  const Bytes msg = to_bytes("m");
  // b's signature presented as a's.
  EXPECT_FALSE(registry.verify(a.public_key(), msg, b.sign(msg)));
}

TEST(Signatures, RevokedKeyFailsVerification) {
  KeyPair kp(99);
  KeyRegistry registry;
  registry.trust(kp);
  const Bytes msg = to_bytes("m");
  const Signature sig = kp.sign(msg);
  registry.revoke(kp.public_key());
  EXPECT_FALSE(registry.verify(kp.public_key(), msg, sig));
  EXPECT_FALSE(registry.trusts(kp.public_key()));
}

TEST(Signatures, DistinctSeedsDistinctKeys) {
  EXPECT_NE(KeyPair(1).public_key(), KeyPair(2).public_key());
}

// --- Units ---------------------------------------------------------------------

TEST(Units, TransmitTimeMatchesRate) {
  // 1500 bytes at 12 Mbps = 1500*8/12e6 s = 1 ms.
  EXPECT_EQ(Rate::mbps(12).transmit_time(1500), milliseconds(1));
  // Zero-rate links serialize instantly (modelling "infinite" capacity).
  EXPECT_EQ(Rate::bps(0).transmit_time(1500), 0);
}

TEST(Units, RateConstructors) {
  EXPECT_EQ(Rate::kbps(1500).bits_per_second, 1'500'000);
  EXPECT_EQ(Rate::mbps(100).bits_per_second, 100'000'000);
  EXPECT_DOUBLE_EQ(Rate::mbps(100).mbps_value(), 100.0);
  EXPECT_EQ(Rate::gbps(1).bits_per_second, 1'000'000'000);
}

// Property sweep: transmit time is monotone in size and antitone in rate.
class TransmitTimeProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TransmitTimeProperty, MonotoneInSizeAntitoneInRate) {
  const auto [mbps, bytes] = GetParam();
  const Rate rate = Rate::mbps(mbps);
  EXPECT_LE(rate.transmit_time(bytes), rate.transmit_time(bytes + 1000));
  if (mbps > 1) {
    EXPECT_LE(rate.transmit_time(bytes), Rate::mbps(mbps - 1).transmit_time(bytes));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TransmitTimeProperty,
    ::testing::Combine(::testing::Values(1, 5, 10, 100, 1000),
                       ::testing::Values(64, 576, 1500, 9000, 65535)));

}  // namespace
}  // namespace pvn
