#include "mbox/checkpoint.h"

namespace pvn {

Bytes ChainCheckpoint::encode() const {
  ByteWriter w;
  w.u32(kMagic);
  w.u8(kFormatVersion);
  codec::write(w, *this);
  w.raw(digest_of(w.bytes()).to_bytes());
  return std::move(w).take();
}

std::optional<ChainCheckpoint> ChainCheckpoint::decode(const Bytes& b) {
  constexpr std::size_t kDigestSize = 32;
  if (b.size() < kDigestSize) return std::nullopt;
  const std::span<const std::uint8_t> all(b);
  const auto payload = all.first(b.size() - kDigestSize);
  const auto want = Digest::from_bytes(all.last(kDigestSize));
  if (!want || digest_of(payload) != *want) return std::nullopt;

  ByteReader r(payload);
  if (r.u32() != kMagic || r.u8() != kFormatVersion) return std::nullopt;
  ChainCheckpoint ckpt;
  if (!codec::read(r, ckpt) || !r.exhausted()) return std::nullopt;
  return ckpt;
}

ChainCheckpoint capture_chain(const Chain& chain, std::uint64_t seq,
                              SimTime now,
                              std::map<std::string, Digest>* changed_since) {
  ChainCheckpoint ckpt;
  ckpt.chain_id = chain.id();
  ckpt.seq = seq;
  ckpt.taken_at = now;
  ckpt.incremental = changed_since != nullptr;
  for (const Middlebox* mbox : chain.modules()) {
    ModuleSnapshot m;
    m.module = mbox->name();
    m.state_version = mbox->state_version();
    m.packets_seen = mbox->packets_seen;
    m.packets_dropped = mbox->packets_dropped;
    m.state = mbox->serialize_state();
    if (changed_since != nullptr) {
      const Digest d = digest_of(m.state);
      auto [it, inserted] = changed_since->try_emplace(m.module, d);
      if (!inserted) {
        if (it->second == d) continue;  // unchanged: omit from incremental
        it->second = d;
      }
    }
    ckpt.modules.push_back(std::move(m));
  }
  return ckpt;
}

std::size_t restore_chain(Chain& chain, const ChainCheckpoint& ckpt) {
  std::size_t restored = 0;
  for (const ModuleSnapshot& snap : ckpt.modules) {
    for (Middlebox* mbox : chain.modules()) {
      if (mbox->name() != snap.module) continue;
      if (!mbox->restore_state(snap.state, snap.state_version)) break;
      mbox->packets_seen = snap.packets_seen;
      mbox->packets_dropped = snap.packets_dropped;
      ++restored;
      break;
    }
  }
  return restored;
}

}  // namespace pvn
