#include "util/digest.h"

#include <cstdio>

namespace pvn {
namespace {

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;
constexpr std::uint64_t kLaneStride = 0x9E3779B97F4A7C15ull;

std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// The four FNV-1a lanes of a Digest, advanced together: every input byte
// steps all four independent multiply chains, so they overlap in the
// pipeline instead of costing four serial passes over the data. Feeding the
// input in pieces through update() hashes exactly as one contiguous call.
struct LaneState {
  std::uint64_t h[4] = {kFnvOffset, kFnvOffset + kLaneStride,
                        kFnvOffset + 2 * kLaneStride,
                        kFnvOffset + 3 * kLaneStride};

  void update(std::span<const std::uint8_t> data) {
    std::uint64_t h0 = h[0], h1 = h[1], h2 = h[2], h3 = h[3];
    for (const std::uint8_t byte : data) {
      h0 = (h0 ^ byte) * kFnvPrime;
      h1 = (h1 ^ byte) * kFnvPrime;
      h2 = (h2 ^ byte) * kFnvPrime;
      h3 = (h3 ^ byte) * kFnvPrime;
    }
    h[0] = h0;
    h[1] = h1;
    h[2] = h2;
    h[3] = h3;
  }

  Digest finish() const {
    Digest d;
    for (std::size_t lane = 0; lane < d.lanes.size(); ++lane) {
      d.lanes[lane] = mix(h[lane] + lane);
    }
    // Cross-lane avalanche so lanes are not trivially correlated. In place
    // and in order: the last lane mixes with the already-mixed first one.
    for (std::size_t i = 0; i < d.lanes.size(); ++i) {
      d.lanes[i] = mix(d.lanes[i] ^ d.lanes[(i + 1) % d.lanes.size()]);
    }
    return d;
  }
};

}  // namespace

std::string Digest::hex() const {
  char buf[2 * 4 * 16 + 1];
  char* p = buf;
  for (std::uint64_t lane : lanes) {
    std::snprintf(p, 17, "%016llx", static_cast<unsigned long long>(lane));
    p += 16;
  }
  return std::string(buf, 64);
}

Bytes Digest::to_bytes() const {
  ByteWriter w;
  for (std::uint64_t lane : lanes) w.u64(lane);
  return std::move(w).take();
}

std::optional<Digest> Digest::from_bytes(std::span<const std::uint8_t> b) {
  ByteReader r(b);
  Digest d;
  for (auto& lane : d.lanes) lane = r.u64();
  if (!r.exhausted()) return std::nullopt;
  return d;
}

Digest digest_of(std::span<const std::uint8_t> data) {
  LaneState s;
  s.update(data);
  return s.finish();
}

Digest digest_of(const Bytes& data) {
  return digest_of(std::span<const std::uint8_t>(data));
}

Digest digest_of(std::string_view data) {
  return digest_of(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Digest hmac(const Bytes& key, std::span<const std::uint8_t> data) {
  // Streams blob(key) || data || blob(key), where blob is the ByteWriter
  // framing (big-endian u32 length, then the bytes), without building it.
  const auto n = static_cast<std::uint32_t>(key.size());
  const std::uint8_t len[4] = {
      static_cast<std::uint8_t>(n >> 24), static_cast<std::uint8_t>(n >> 16),
      static_cast<std::uint8_t>(n >> 8), static_cast<std::uint8_t>(n)};
  LaneState s;
  s.update(len);
  s.update(key);
  s.update(data);
  s.update(len);
  s.update(key);
  return s.finish();
}

Digest hmac(const Bytes& key, const Bytes& data) {
  return hmac(key, std::span<const std::uint8_t>(data));
}

KeyPair::KeyPair(std::uint64_t seed) {
  ByteWriter w;
  w.u64(seed);
  w.str("pvn-keypair-secret");
  secret_ = digest_of(w.bytes()).to_bytes();
  public_.id = mix(seed ^ 0xA5A5A5A55A5A5A5Aull);
}

Signature KeyPair::sign(std::span<const std::uint8_t> data) const {
  return Signature{hmac(secret_, data), public_.id};
}

void KeyRegistry::trust(const KeyPair& kp) {
  secrets_[kp.public_.id] = kp.secret_;
}

void KeyRegistry::revoke(const PublicKey& pk) { secrets_.erase(pk.id); }

bool KeyRegistry::trusts(const PublicKey& pk) const {
  return secrets_.contains(pk.id);
}

bool KeyRegistry::verify(const PublicKey& pk, std::span<const std::uint8_t> data,
                         const Signature& sig) const {
  const auto it = secrets_.find(pk.id);
  if (it == secrets_.end()) return false;
  if (sig.signer != pk.id) return false;
  return hmac(it->second, data) == sig.mac;
}

}  // namespace pvn
