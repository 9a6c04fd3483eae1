// Chain checkpoints: versioned, digest-protected snapshots of a middlebox
// chain's dynamic state (survivability layer, DESIGN.md "Survivability").
//
// A ChainCheckpoint captures every module's serialized state plus its
// per-module counters. The wire encoding appends a digest over the payload,
// so a snapshot that was truncated or bit-flipped in transit decodes to
// nullopt — never to a partially-restored chain. Incremental checkpoints
// omit modules whose state digest is unchanged since the last full capture;
// restore applies incrementals on top of previously restored state.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mbox/host.h"
#include "util/codec.h"
#include "util/digest.h"

namespace pvn {

struct ModuleSnapshot {
  std::string module;           // Middlebox::name()
  std::uint32_t state_version = 1;
  std::uint64_t packets_seen = 0;
  std::uint64_t packets_dropped = 0;
  Bytes state;                  // Middlebox::serialize_state()

  template <class F> void fields(F& f) {  // util/codec.h
    f(module, state_version, packets_seen, packets_dropped, state);
  }
};

struct ChainCheckpoint {
  static constexpr std::uint32_t kMagic = 0x50564e43;  // "PVNC"
  static constexpr std::uint8_t kFormatVersion = 1;

  std::string chain_id;
  std::uint64_t seq = 0;        // monotonically increasing per chain
  SimTime taken_at = 0;
  bool incremental = false;     // only modules whose state changed
  std::vector<ModuleSnapshot> modules;

  // The fields between the magic and version header and the digest trailer.
  template <class F> void fields(F& f) {
    f(chain_id, seq, taken_at, incremental);
    f.list16(modules, "modules");
  }

  Bytes encode() const;
  // Verifies the trailing digest, magic and format version before decoding
  // any field; corruption anywhere yields nullopt.
  static std::optional<ChainCheckpoint> decode(const Bytes& b);
};

// Captures every module of `chain`. When `changed_since` is non-null (a map
// of module name -> last captured state digest), modules whose serialized
// state digest is unchanged are omitted and the checkpoint is marked
// incremental; the map is updated in place with the new digests.
ChainCheckpoint capture_chain(const Chain& chain, std::uint64_t seq,
                              SimTime now,
                              std::map<std::string, Digest>* changed_since =
                                  nullptr);

// Restores a checkpoint into `chain` by module name. All-or-nothing per
// module (a module that rejects its snapshot is left untouched); returns the
// number of modules restored. Modules present in the chain but absent from
// an incremental checkpoint keep their current state.
std::size_t restore_chain(Chain& chain, const ChainCheckpoint& ckpt);

}  // namespace pvn
