#include "sdn/flow_table.h"

#include <algorithm>

#include "telemetry/metrics.h"
#include "util/hash.h"

namespace pvn {
namespace {

// Aggregate (all tables) telemetry cells; per-switch breakdowns live in
// SdnSwitch, which knows its own name. Function-local statics: registered
// once, the references stay valid for the registry's lifetime.
telemetry::Counter& hits_counter() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::global().counter("sdn.flow_table.hits");
  return c;
}
telemetry::Counter& removed_counter() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::global().counter("sdn.flow_table.removed");
  return c;
}

std::size_t cookie_hash(const std::string& cookie) {
  return StringHash{}(cookie);
}

}  // namespace

std::size_t FlowTable::ExactKeyHash::operator()(
    const ExactKey& k) const noexcept {
  std::uint64_t a = (static_cast<std::uint64_t>(k.src) << 32) | k.dst;
  std::uint64_t b = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                         k.in_port))
                     << 32) |
                    (static_cast<std::uint64_t>(k.src_port) << 16) |
                    k.dst_port;
  std::uint64_t c = (static_cast<std::uint64_t>(k.mask) << 16) |
                    (static_cast<std::uint64_t>(k.proto) << 8) | k.tos;
  return static_cast<std::size_t>(
      hash_combine_u64(hash_combine_u64(mix_u64(a), b), c));
}

void FlowTable::add(FlowRule rule) {
  rule.cached_specificity = rule.match.specificity();
  std::uint32_t id;
  if (free_.empty()) {
    id = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    id = free_.back();
    free_.pop_back();
  }
  Slot& slot = slots_[id];
  slot.rule = std::move(rule);
  slot.seq = ++next_seq_;
  const auto [head, fresh] =
      by_cookie_.try_emplace(cookie_hash(slot.rule.cookie), id);
  if (!fresh) {
    slot.next_cookie = head->second;
    slots_[head->second].prev_cookie = id;
    head->second = id;
  }
  index(id);
}

std::size_t FlowTable::remove_by_cookie(const std::string& cookie) {
  const auto head = by_cookie_.find(cookie_hash(cookie));
  if (head == by_cookie_.end()) return 0;
  std::size_t removed = 0;
  for (std::uint32_t id = head->second; id != kNoSlot;) {
    const std::uint32_t next = slots_[id].next_cookie;
    if (slots_[id].rule.cookie == cookie) {
      erase_slot(id);
      ++removed;
    }
    id = next;
  }
  if (removed > 0) removed_counter().inc(removed);
  return removed;
}

std::size_t FlowTable::remove_if(
    const std::function<bool(const FlowRule&)>& pred) {
  std::size_t removed = 0;
  for (std::uint32_t id = 0; id < slots_.size(); ++id) {
    if (slots_[id].seq != 0 && pred(slots_[id].rule)) {
      erase_slot(id);
      ++removed;
    }
  }
  if (removed > 0) removed_counter().inc(removed);
  return removed;
}

std::optional<std::uint8_t> FlowTable::hashable_mask(const FlowMatch& m) {
  std::uint8_t mask = 0;
  if (m.in_port) mask |= kFieldInPort;
  if (m.src) {
    if (m.src->len < 32) return std::nullopt;  // true prefix: wildcard path
    mask |= kFieldSrc;
  }
  if (m.dst) {
    if (m.dst->len < 32) return std::nullopt;
    mask |= kFieldDst;
  }
  if (m.proto) mask |= kFieldProto;
  if (m.src_port) mask |= kFieldSrcPort;
  if (m.dst_port) mask |= kFieldDstPort;
  if (m.tos) mask |= kFieldTos;
  if (mask == 0) return std::nullopt;  // match-all: wildcard path
  return mask;
}

FlowTable::ExactKey FlowTable::key_of(const FlowMatch& m, std::uint8_t mask) {
  ExactKey key;
  key.mask = mask;
  if (m.in_port) key.in_port = *m.in_port;
  if (m.src) key.src = m.src->addr.v;
  if (m.dst) key.dst = m.dst->addr.v;
  if (m.proto) key.proto = static_cast<std::uint8_t>(*m.proto);
  if (m.src_port) key.src_port = *m.src_port;
  if (m.dst_port) key.dst_port = *m.dst_port;
  if (m.tos) key.tos = *m.tos;
  return key;
}

std::vector<FlowTable::Bucket>::iterator FlowTable::bucket_of(int priority) {
  return std::lower_bound(
      buckets_.begin(), buckets_.end(), priority,
      [](const Bucket& b, int p) { return b.priority > p; });
}

void FlowTable::index(std::uint32_t id) {
  const FlowRule& rule = slots_[id].rule;
  auto bucket = bucket_of(rule.priority);
  if (bucket == buckets_.end() || bucket->priority != rule.priority) {
    bucket = buckets_.emplace(bucket);
    bucket->priority = rule.priority;
  }
  ++bucket->rules;
  const auto mask = hashable_mask(rule.match);
  if (!mask) {
    std::vector<std::uint32_t>& wild = bucket->wildcard;
    wild.insert(std::upper_bound(wild.begin(), wild.end(), id,
                                 [this](std::uint32_t a, std::uint32_t b) {
                                   return ranks_before(a, b);
                                 }),
                id);
    return;
  }
  const auto [winner, fresh] =
      bucket->exact.try_emplace(key_of(rule.match, *mask), id);
  if (!fresh) {
    // Equal keys mean equal masks, hence equal specificity: duplicates rank
    // in insertion order, so the newest goes to the chain's tail.
    std::uint32_t tail = winner->second;
    while (slots_[tail].next_dup != kNoSlot) tail = slots_[tail].next_dup;
    slots_[tail].next_dup = id;
  }
  const auto counted =
      std::find_if(bucket->masks.begin(), bucket->masks.end(),
                   [&](const MaskCount& c) { return c.mask == *mask; });
  if (counted != bucket->masks.end()) {
    ++counted->rules;
  } else {
    bucket->masks.push_back(MaskCount{*mask, 1});
  }
}

void FlowTable::unindex(std::uint32_t id) {
  const FlowRule& rule = slots_[id].rule;
  const auto bucket = bucket_of(rule.priority);
  const auto mask = hashable_mask(rule.match);
  if (!mask) {
    std::vector<std::uint32_t>& wild = bucket->wildcard;
    // Ranks are unique (seq is), so the lower bound is the rule itself.
    wild.erase(std::lower_bound(wild.begin(), wild.end(), id,
                                [this](std::uint32_t a, std::uint32_t b) {
                                  return ranks_before(a, b);
                                }));
  } else {
    const auto winner = bucket->exact.find(key_of(rule.match, *mask));
    if (winner->second == id) {
      // The next duplicate, if any, takes the key over.
      if (slots_[id].next_dup == kNoSlot) {
        bucket->exact.erase(winner);
      } else {
        winner->second = slots_[id].next_dup;
      }
    } else {
      std::uint32_t prev = winner->second;
      while (slots_[prev].next_dup != id) prev = slots_[prev].next_dup;
      slots_[prev].next_dup = slots_[id].next_dup;
    }
    const auto counted =
        std::find_if(bucket->masks.begin(), bucket->masks.end(),
                     [&](const MaskCount& c) { return c.mask == *mask; });
    if (--counted->rules == 0) bucket->masks.erase(counted);
  }
  if (--bucket->rules == 0) buckets_.erase(bucket);
}

void FlowTable::erase_slot(std::uint32_t id) {
  unindex(id);
  Slot& slot = slots_[id];
  if (slot.prev_cookie != kNoSlot) {
    slots_[slot.prev_cookie].next_cookie = slot.next_cookie;
  } else if (slot.next_cookie != kNoSlot) {
    by_cookie_.find(cookie_hash(slot.rule.cookie))->second = slot.next_cookie;
  } else {
    by_cookie_.erase(cookie_hash(slot.rule.cookie));
  }
  if (slot.next_cookie != kNoSlot) {
    slots_[slot.next_cookie].prev_cookie = slot.prev_cookie;
  }
  slot = Slot{};
  free_.push_back(id);
}

FlowTable::RuleView FlowTable::rules() const {
  std::vector<std::uint32_t> ids;
  ids.reserve(size());
  for (std::uint32_t id = 0; id < slots_.size(); ++id) {
    if (slots_[id].seq != 0) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end(), [this](std::uint32_t a, std::uint32_t b) {
    const int pa = slots_[a].rule.priority;
    const int pb = slots_[b].rule.priority;
    return pa != pb ? pa > pb : ranks_before(a, b);
  });
  RuleView view;
  view.rules_.reserve(ids.size());
  for (const std::uint32_t id : ids) view.rules_.push_back(&slots_[id].rule);
  return view;
}

const FlowRule* FlowTable::lookup(const Packet& pkt, int in_port) const {
  // L4 ports are parsed lazily, at most once per lookup.
  int ports_state = 0;  // 0 = not parsed, 1 = available, -1 = unavailable
  Port src_port = 0, dst_port = 0;
  const auto ports_available = [&]() {
    if (ports_state == 0) {
      ports_state = peek_ports(static_cast<std::uint8_t>(pkt.ip.proto),
                               pkt.l4, src_port, dst_port)
                        ? 1
                        : -1;
    }
    return ports_state == 1;
  };

  for (const Bucket& bucket : buckets_) {
    std::uint32_t best = kNoSlot;
    for (const MaskCount& counted : bucket.masks) {
      const std::uint8_t mask = counted.mask;
      if ((mask & (kFieldSrcPort | kFieldDstPort)) != 0 && !ports_available()) {
        continue;  // port-matching rules cannot match a portless packet
      }
      ExactKey key;
      key.mask = mask;
      if (mask & kFieldInPort) key.in_port = in_port;
      if (mask & kFieldSrc) key.src = pkt.ip.src.v;
      if (mask & kFieldDst) key.dst = pkt.ip.dst.v;
      if (mask & kFieldProto) key.proto = static_cast<std::uint8_t>(pkt.ip.proto);
      if (mask & kFieldSrcPort) key.src_port = src_port;
      if (mask & kFieldDstPort) key.dst_port = dst_port;
      if (mask & kFieldTos) key.tos = pkt.ip.tos;
      const auto it = bucket.exact.find(key);
      if (it != bucket.exact.end() &&
          (best == kNoSlot || ranks_before(it->second, best))) {
        best = it->second;
      }
    }
    // Wildcards are in rank order, so the first match ranking ahead of the
    // hashed winner decides.
    for (const std::uint32_t id : bucket.wildcard) {
      if (best != kNoSlot && !ranks_before(id, best)) break;
      if (slots_[id].rule.match.matches(pkt, in_port)) {
        best = id;
        break;
      }
    }
    if (best != kNoSlot) {
      const FlowRule& rule = slots_[best].rule;
      ++rule.hit_packets;
      rule.hit_bytes += pkt.size();
      hits_counter().inc();
      return &rule;
    }
  }
  misses_.inc();
  return nullptr;
}

}  // namespace pvn
