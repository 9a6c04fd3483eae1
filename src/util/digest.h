// Structural cryptography for the simulation.
//
// The PVN design relies on hashes (content digests, path proofs), MACs
// (per-hop proofs, attestation quotes), and signatures (certificates,
// attestations). This module provides *structural* stand-ins: collision
// behaviour and API shape match real primitives closely enough to exercise
// every protocol code path, but none of this is production cryptography
// (see DESIGN.md §2 — the paper's claims are about protocol architecture,
// not cipher strength).
//
// Signatures are simulated asymmetric crypto: a KeyPair holds a secret seed
// and a public id derived from it; verification goes through a KeyRegistry
// that models the PKI's trusted key distribution.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>

#include "util/bytes.h"

namespace pvn {

// 256-bit digest (4 x 64-bit lanes of iterated FNV-1a with lane mixing).
struct Digest {
  std::array<std::uint64_t, 4> lanes = {};

  bool operator==(const Digest&) const = default;
  std::string hex() const;
  Bytes to_bytes() const;
  // Inverse of to_bytes(): exactly 32 bytes, else nullopt.
  static std::optional<Digest> from_bytes(std::span<const std::uint8_t> b);

  // The to_bytes() layout, for util/codec.h.
  template <class F> void fields(F& f) {
    f(lanes[0], lanes[1], lanes[2], lanes[3]);
  }
};

// Hashes an arbitrary byte string.
Digest digest_of(std::span<const std::uint8_t> data);
Digest digest_of(const Bytes& data);
Digest digest_of(std::string_view data);

// Keyed MAC over key-prefixed and key-suffixed data (HMAC-shaped). It reads
// u32 len(key) || key || data || u64 len(data) || key (big-endian lengths,
// as ByteWriter writes them), each piece zero-padded to whole 8-byte words,
// one little-endian word at a time: a word steps all four lanes, then
// digest_of's finisher mixes them. A word per step instead of digest_of's
// byte per step is what keeps ESP cheap (DESIGN.md §9).
Digest hmac(const Bytes& key, std::span<const std::uint8_t> data);
Digest hmac(const Bytes& key, const Bytes& data);

// --- Simulated asymmetric signatures ---------------------------------------

// Public identity: an opaque 64-bit id derived from the secret seed.
struct PublicKey {
  std::uint64_t id = 0;
  template <class F> void fields(F& f) { f(id); }
  bool operator==(const PublicKey&) const = default;
};

struct Signature {
  Digest mac;
  std::uint64_t signer = 0;  // public key id that produced this signature
  template <class F> void fields(F& f) {
    f.blob(mac);
    f(signer);
  }
  bool operator==(const Signature&) const = default;
};

class KeyPair {
 public:
  // Derives a keypair deterministically from a seed (e.g. an Rng draw).
  explicit KeyPair(std::uint64_t seed);

  const PublicKey& public_key() const { return public_; }
  Signature sign(std::span<const std::uint8_t> data) const;
  Signature sign(const Bytes& data) const { return sign(std::span<const std::uint8_t>(data)); }

 private:
  friend class KeyRegistry;
  Bytes secret_;
  PublicKey public_;
};

// Trusted key directory: models PKI distribution of public keys. Verifiers
// hold a registry of keys they trust; verification fails for unknown keys.
class KeyRegistry {
 public:
  void trust(const KeyPair& kp);
  void revoke(const PublicKey& pk);
  bool trusts(const PublicKey& pk) const;
  bool verify(const PublicKey& pk, std::span<const std::uint8_t> data,
              const Signature& sig) const;
  bool verify(const PublicKey& pk, const Bytes& data, const Signature& sig) const {
    return verify(pk, std::span<const std::uint8_t>(data), sig);
  }

 private:
  std::unordered_map<std::uint64_t, Bytes> secrets_;  // public id -> secret
};

}  // namespace pvn
