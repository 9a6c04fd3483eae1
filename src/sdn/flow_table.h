// A priority flow table: the core SDN data structure PVNCs compile into.
//
// Semantics: lookup() returns the matching rule that is first in
// (priority desc, specificity desc, insertion order) — identical to a linear
// scan of the rules in that order. Structure: rules live in stable slots and
// are indexed two-level — per-priority buckets, each holding an exact-match
// hash map keyed on the fields its hashable rules actually set (refcounted
// per-bucket field masks) plus a rank-ordered wildcard fallback list — so
// the dominant per-subscriber exact-match rules cost O(#priority-bands) hash
// probes per packet instead of an O(#rules) scan. The index is maintained
// on every add and removal, so a rule change costs O(that rule), and a
// cookie index makes remove_by_cookie touch only that cookie's rules. See
// DESIGN.md "Hot paths and performance model".
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sdn/action.h"
#include "sdn/match.h"
#include "telemetry/metrics.h"

namespace pvn {

struct FlowRule {
  int priority = 0;
  FlowMatch match;
  ActionList actions;
  std::string cookie;  // owner tag, e.g. "pvn:<device>" — enables teardown

  // Counters.
  mutable std::uint64_t hit_packets = 0;
  mutable std::uint64_t hit_bytes = 0;

  // match.specificity(), cached by FlowTable::add (callers need not set it).
  int cached_specificity = -1;

  // The wire form an ops reconfiguration carries (proto/ops.h); counters
  // and the cached specificity stay off the wire.
  template <class F> void fields(F& f) {
    f(priority, cookie);
    ops_match_fields(f, match);
    f.list16(actions, "actions");
  }
};

class FlowTable {
 public:
  // Read-only snapshot of the rules in lookup order (priority desc,
  // specificity desc, insertion order). Building one sorts the live rules,
  // O(n log n): it is for inspection, lookups never use it. Valid until the
  // table changes.
  class RuleView {
   public:
    class iterator {
     public:
      const FlowRule& operator*() const { return **it_; }
      iterator& operator++() {
        ++it_;
        return *this;
      }
      bool operator==(const iterator&) const = default;

     private:
      friend class RuleView;
      explicit iterator(std::vector<const FlowRule*>::const_iterator it)
          : it_(it) {}
      std::vector<const FlowRule*>::const_iterator it_;
    };

    std::size_t size() const { return rules_.size(); }
    const FlowRule& operator[](std::size_t i) const { return *rules_[i]; }
    iterator begin() const { return iterator(rules_.begin()); }
    iterator end() const { return iterator(rules_.end()); }

   private:
    friend class FlowTable;
    std::vector<const FlowRule*> rules_;
  };

  // Inserts a rule; it ranks after every rule of higher priority, or of
  // equal priority and greater-or-equal specificity.
  void add(FlowRule rule);

  // Removes all rules with the given cookie; returns how many.
  std::size_t remove_by_cookie(const std::string& cookie);
  // Removes all rules matching `pred`; returns how many. Used for partial
  // rewiring (e.g. dropping only the middlebox-diversion rules of a cookie
  // when its chain host crashed, leaving drop/rate policies installed).
  // Calls `pred` on every rule.
  std::size_t remove_if(const std::function<bool(const FlowRule&)>& pred);

  // Highest-priority matching rule, or nullptr (table miss). Updates the
  // rule's counters.
  const FlowRule* lookup(const Packet& pkt, int in_port) const;

  std::size_t size() const { return slots_.size() - free_.size(); }
  RuleView rules() const;

  std::uint64_t misses() const { return misses_.value(); }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  // Bitmask of FlowMatch fields a hashable rule sets.
  enum FieldBits : std::uint8_t {
    kFieldInPort = 1u << 0,
    kFieldSrc = 1u << 1,
    kFieldDst = 1u << 2,
    kFieldProto = 1u << 3,
    kFieldSrcPort = 1u << 4,
    kFieldDstPort = 1u << 5,
    kFieldTos = 1u << 6,
  };

  // Exact-match hash key: the field mask plus the matched field values
  // (unset fields zeroed, so equal keys imply equal matches).
  struct ExactKey {
    std::uint8_t mask = 0;
    std::uint8_t proto = 0;
    std::uint8_t tos = 0;
    std::int32_t in_port = 0;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint16_t src_port = 0;
    std::uint16_t dst_port = 0;
    bool operator==(const ExactKey&) const = default;
  };
  struct ExactKeyHash {
    std::size_t operator()(const ExactKey& k) const noexcept;
  };

  // A rule plus its index links. Slot ids are stable for a rule's lifetime
  // and freed slots are reused, so the index holds ids, not pointers, and a
  // copied table indexes its own copy.
  struct Slot {
    FlowRule rule;
    std::uint64_t seq = 0;  // insertion sequence (FIFO tie-break); 0 = free
    // Next rule with the same exact key, in rank order.
    std::uint32_t next_dup = kNoSlot;
    // Doubly linked chain of the rules whose cookies hash alike.
    std::uint32_t prev_cookie = kNoSlot;
    std::uint32_t next_cookie = kNoSlot;
  };

  struct MaskCount {
    std::uint8_t mask = 0;
    std::uint32_t rules = 0;  // hashable rules in the bucket with this mask
  };

  struct Bucket {
    int priority = 0;
    std::uint32_t rules = 0;  // every rule in this priority band
    // Distinct field masks of the band's hashable rules; a lookup builds one
    // key per mask.
    std::vector<MaskCount> masks;
    // Exact key -> the key's winning slot, the head of its duplicate chain.
    std::unordered_map<ExactKey, std::uint32_t, ExactKeyHash> exact;
    // Non-hashable rules in rank order (specificity desc, FIFO).
    std::vector<std::uint32_t> wildcard;
  };

  // A rule is hashable iff every set field is an exact value (prefixes /32),
  // so a packet can be probed with one key per distinct mask.
  static std::optional<std::uint8_t> hashable_mask(const FlowMatch& m);
  static ExactKey key_of(const FlowMatch& m, std::uint8_t mask);

  // True iff slot `a` precedes slot `b` within one priority band.
  bool ranks_before(std::uint32_t a, std::uint32_t b) const {
    const Slot& x = slots_[a];
    const Slot& y = slots_[b];
    if (x.rule.cached_specificity != y.rule.cached_specificity) {
      return x.rule.cached_specificity > y.rule.cached_specificity;
    }
    return x.seq < y.seq;
  }
  std::vector<Bucket>::iterator bucket_of(int priority);
  void index(std::uint32_t id);
  void unindex(std::uint32_t id);
  // Unindexes a live slot, unlinks it from its cookie chain and frees it.
  void erase_slot(std::uint32_t id);

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // reusable slot ids
  std::vector<Bucket> buckets_;      // priority desc, no empty bands
  // Cookie hash -> head of its cookie chain. Keyed by hash so no cookie is
  // stored twice; remove_by_cookie compares the strings along the chain.
  std::unordered_map<std::size_t, std::uint32_t> by_cookie_;
  std::uint64_t next_seq_ = 0;
  mutable telemetry::Tally misses_{"sdn.flow_table.misses"};
};

}  // namespace pvn
