#include "util/digest.h"

#include <algorithm>
#include <bit>
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

// hmac's per-lane multipliers and rotations: dense odd constants (the
// xxHash64 primes), so each step is a bijection of the lane, and distinct
// rotations, so no two lanes compute the same function of the input.
constexpr std::uint64_t kWordMul[4] = {
    0x9E3779B185EBCA87ull, 0xC2B2AE3D27D4EB4Full, 0x165667B19E3779F9ull,
    0x85EBCA77C2B2AE63ull};
constexpr int kWordRot[4] = {31, 27, 33, 29};

// Eight bytes as a little-endian word, assembled from bytes so that every
// host computes the same value (compilers fold this into one load).
std::uint64_t load_le64(const std::uint8_t* p) {
  return std::uint64_t{p[0]} | std::uint64_t{p[1]} << 8 |
         std::uint64_t{p[2]} << 16 | std::uint64_t{p[3]} << 24 |
         std::uint64_t{p[4]} << 32 | std::uint64_t{p[5]} << 40 |
         std::uint64_t{p[6]} << 48 | std::uint64_t{p[7]} << 56;
}

// The four lanes of a Digest, advanced together. digest_of feeds bytes
// through update(): every byte steps all four independent FNV-1a multiply
// chains, so they overlap in the pipeline instead of costing four serial
// passes over the data, and feeding the input in pieces hashes exactly as
// one contiguous call. hmac feeds words through update_words() instead.
// Both end in finish().
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

  // Absorbs `data` zero-padded to a whole number of 8-byte words: each
  // little-endian word w steps every lane i as h = rotl((h ^ w) * K_i, r_i).
  // Unlike update(), a call is a framing unit: its padding depends on where
  // the piece ends.
  void update_words(std::span<const std::uint8_t> data) {
    std::uint64_t h0 = h[0], h1 = h[1], h2 = h[2], h3 = h[3];
    const auto step = [&](std::uint64_t w) {
      h0 = std::rotl((h0 ^ w) * kWordMul[0], kWordRot[0]);
      h1 = std::rotl((h1 ^ w) * kWordMul[1], kWordRot[1]);
      h2 = std::rotl((h2 ^ w) * kWordMul[2], kWordRot[2]);
      h3 = std::rotl((h3 ^ w) * kWordMul[3], kWordRot[3]);
    };
    const std::size_t whole = data.size() - data.size() % 8;
    for (std::size_t i = 0; i < whole; i += 8) step(load_le64(&data[i]));
    if (whole < data.size()) {
      std::uint8_t tail[8] = {};
      std::copy(data.begin() + static_cast<std::ptrdiff_t>(whole), data.end(),
                tail);
      step(load_le64(tail));
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
  // Absorbs u32 len(key) || key || data || u64 len(data) || key, each piece
  // zero-padded to whole words; the lengths are big-endian as ByteWriter
  // writes them. The lengths make the padded input unique to (key, data).
  const auto key_len = static_cast<std::uint32_t>(key.size());
  const std::uint64_t data_len = data.size();
  std::uint8_t key_len_be[4];
  std::uint8_t data_len_be[8];
  for (int i = 0; i < 4; ++i) {
    key_len_be[i] = static_cast<std::uint8_t>(key_len >> (24 - 8 * i));
  }
  for (int i = 0; i < 8; ++i) {
    data_len_be[i] = static_cast<std::uint8_t>(data_len >> (56 - 8 * i));
  }
  LaneState s;
  s.update_words(key_len_be);
  s.update_words(key);
  s.update_words(data);
  s.update_words(data_len_be);
  s.update_words(key);
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
