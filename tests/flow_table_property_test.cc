// Property tests for the two-level (hashed exact-match + wildcard fallback)
// FlowTable: randomized rule sets and packets run through the indexed table
// and a reference linear-scan implementation side by side, asserting
// identical winners, hit counters, miss counts, and removal behavior — also
// under interleaved add/remove/lookup churn and on copied tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "netsim/network.h"
#include "sdn/flow_table.h"
#include "util/rng.h"

namespace pvn {
namespace {

// The pre-index FlowTable semantics, verbatim: a sorted vector (priority
// desc, specificity desc, insertion order) scanned linearly per lookup.
class ReferenceTable {
 public:
  void add(FlowRule rule) {
    const int prio = rule.priority;
    const int spec = rule.match.specificity();
    auto it = rules_.begin();
    for (; it != rules_.end(); ++it) {
      if (it->priority < prio) break;
      if (it->priority == prio && it->match.specificity() < spec) break;
    }
    rules_.insert(it, std::move(rule));
  }

  std::size_t remove_by_cookie(const std::string& cookie) {
    return remove_if(
        [&cookie](const FlowRule& rule) { return rule.cookie == cookie; });
  }

  std::size_t remove_if(const std::function<bool(const FlowRule&)>& pred) {
    std::size_t removed = 0;
    for (std::size_t i = rules_.size(); i-- > 0;) {
      if (pred(rules_[i])) {
        rules_.erase(rules_.begin() + static_cast<std::ptrdiff_t>(i));
        ++removed;
      }
    }
    return removed;
  }

  const FlowRule* lookup(const Packet& pkt, int in_port) const {
    for (const FlowRule& rule : rules_) {
      if (rule.match.matches(pkt, in_port)) {
        ++rule.hit_packets;
        rule.hit_bytes += pkt.size();
        return &rule;
      }
    }
    ++misses_;
    return nullptr;
  }

  const std::vector<FlowRule>& rules() const { return rules_; }
  std::uint64_t misses() const { return misses_; }

 private:
  std::vector<FlowRule> rules_;
  mutable std::uint64_t misses_ = 0;
};

// Small value pools so random rules and packets actually collide.
const std::uint8_t kOctets[] = {1, 2, 3};
const Port kPorts[] = {53, 80, 443, 5000};
const IpProto kProtos[] = {IpProto::kTcp, IpProto::kUdp, IpProto::kEsp};
const int kPrefixLens[] = {0, 8, 16, 24, 32, 32};  // bias toward exact

Ipv4Addr random_addr(Rng& rng) {
  return Ipv4Addr(10, kOctets[rng.next_below(3)], kOctets[rng.next_below(3)],
                  kOctets[rng.next_below(3)]);
}

FlowRule random_rule(Rng& rng, int index) {
  FlowRule rule;
  rule.priority = static_cast<int>(rng.next_below(4)) * 10;
  // Appended, not "r" + std::to_string(...): GCC 12's -Wrestrict misfires
  // on that temporary concatenation in Release builds.
  rule.cookie = "r";
  rule.cookie += std::to_string(index);
  FlowMatch& m = rule.match;
  if (rng.bernoulli(0.3)) m.in_port = static_cast<int>(rng.next_below(3));
  if (rng.bernoulli(0.5)) {
    m.src = Prefix{random_addr(rng),
                   kPrefixLens[rng.next_below(std::size(kPrefixLens))]};
  }
  if (rng.bernoulli(0.6)) {
    m.dst = Prefix{random_addr(rng),
                   kPrefixLens[rng.next_below(std::size(kPrefixLens))]};
  }
  if (rng.bernoulli(0.5)) m.proto = kProtos[rng.next_below(3)];
  if (rng.bernoulli(0.3)) m.src_port = kPorts[rng.next_below(4)];
  if (rng.bernoulli(0.3)) m.dst_port = kPorts[rng.next_below(4)];
  if (rng.bernoulli(0.2)) m.tos = static_cast<std::uint8_t>(rng.next_below(2) * 0x20);
  return rule;
}

Packet random_packet(Network& net, Rng& rng) {
  const IpProto proto = kProtos[rng.next_below(3)];
  Bytes l4;
  if (proto == IpProto::kTcp) {
    TcpHeader hdr;
    hdr.src_port = kPorts[rng.next_below(4)];
    hdr.dst_port = kPorts[rng.next_below(4)];
    l4 = serialize_tcp(hdr, Bytes(32, 0xAB));
  } else if (proto == IpProto::kUdp) {
    UdpHeader hdr;
    hdr.src_port = kPorts[rng.next_below(4)];
    hdr.dst_port = kPorts[rng.next_below(4)];
    l4 = serialize_udp(hdr, Bytes(32, 0xCD));
  } else {
    l4 = Bytes(16, 0x11);  // portless
  }
  Packet pkt = net.make_packet(random_addr(rng), random_addr(rng), proto,
                               std::move(l4));
  pkt.ip.tos = static_cast<std::uint8_t>(rng.next_below(2) * 0x20);
  return pkt;
}

void expect_same_winner(const FlowRule* got, const FlowRule* want,
                        std::size_t packet_no) {
  if (want == nullptr) {
    EXPECT_EQ(got, nullptr) << "packet " << packet_no << ": indexed table hit "
                            << (got ? got->cookie : "") << ", reference missed";
    return;
  }
  ASSERT_NE(got, nullptr) << "packet " << packet_no
                          << ": indexed table missed, reference hit "
                          << want->cookie;
  EXPECT_EQ(got->cookie, want->cookie) << "packet " << packet_no;
}

void expect_same_state(const FlowTable& table, const ReferenceTable& ref) {
  const auto rules = table.rules();
  ASSERT_EQ(table.size(), ref.rules().size());
  ASSERT_EQ(rules.size(), ref.rules().size());
  EXPECT_EQ(table.misses(), ref.misses());
  for (std::size_t i = 0; i < ref.rules().size(); ++i) {
    const FlowRule& a = rules[i];
    const FlowRule& b = ref.rules()[i];
    EXPECT_EQ(a.cookie, b.cookie) << "rule order diverged at " << i;
    EXPECT_EQ(a.priority, b.priority) << "rule order diverged at " << i;
    EXPECT_EQ(a.match, b.match) << "rule order diverged at " << i;
    EXPECT_EQ(a.hit_packets, b.hit_packets) << a.cookie;
    EXPECT_EQ(a.hit_bytes, b.hit_bytes) << a.cookie;
  }
}

class FlowTableProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowTableProperty, MatchesLinearScanReference) {
  Rng rng(GetParam());
  Network net;
  FlowTable table;
  ReferenceTable ref;

  const int kRules = 120;
  for (int i = 0; i < kRules; ++i) {
    FlowRule rule = random_rule(rng, i);
    table.add(rule);
    ref.add(rule);
  }

  const std::size_t kPackets = 400;
  for (std::size_t p = 0; p < kPackets; ++p) {
    const Packet pkt = random_packet(net, rng);
    const int in_port = static_cast<int>(rng.next_below(3));
    expect_same_winner(table.lookup(pkt, in_port), ref.lookup(pkt, in_port), p);
  }
  expect_same_state(table, ref);
}

TEST_P(FlowTableProperty, RemovalKeepsTablesInLockstep) {
  Rng rng(GetParam() + 1000);
  Network net;
  FlowTable table;
  ReferenceTable ref;

  // Duplicate cookies so remove_by_cookie erases several rules at once.
  for (int i = 0; i < 100; ++i) {
    FlowRule rule = random_rule(rng, i);
    rule.cookie = "owner" + std::to_string(i % 10);
    table.add(rule);
    ref.add(rule);
  }

  for (int round = 0; round < 10; ++round) {
    // Interleave lookups with structural changes.
    for (int p = 0; p < 40; ++p) {
      const Packet pkt = random_packet(net, rng);
      const int in_port = static_cast<int>(rng.next_below(3));
      expect_same_winner(table.lookup(pkt, in_port), ref.lookup(pkt, in_port),
                         static_cast<std::size_t>(round * 100 + p));
    }
    if (round % 2 == 0) {
      const std::string cookie = "owner" + std::to_string(rng.next_below(10));
      EXPECT_EQ(table.remove_by_cookie(cookie), ref.remove_by_cookie(cookie));
    } else {
      const int prio = static_cast<int>(rng.next_below(4)) * 10;
      const auto pred = [prio](const FlowRule& r) {
        return r.priority == prio && r.hit_packets == 0;
      };
      EXPECT_EQ(table.remove_if(pred), ref.remove_if(pred));
    }
    expect_same_state(table, ref);
  }
}

// --- churn: adds, removals and lookups interleaved --------------------------

// Rules from tiny pools, so exact keys repeat across cookies and priority
// bands empty out and refill under churn. Most are hashable (/32 plus exact
// fields); the rest take the wildcard path.
FlowRule churn_rule(Rng& rng, std::string cookie) {
  FlowRule rule;
  rule.priority = static_cast<int>(rng.next_below(3)) * 10;
  rule.cookie = std::move(cookie);
  FlowMatch& m = rule.match;
  const Ipv4Addr host(10, 1, 1, kOctets[rng.next_below(3)]);
  const double shape = rng.uniform();
  if (shape < 0.7) {
    m.dst = Prefix{host, 32};
    if (rng.bernoulli(0.3)) m.proto = kProtos[rng.next_below(3)];
    if (rng.bernoulli(0.2)) m.dst_port = kPorts[rng.next_below(4)];
  } else if (shape < 0.9) {
    m.dst = Prefix{host, kPrefixLens[rng.next_below(4)]};  // /0../24
    if (rng.bernoulli(0.3)) m.proto = kProtos[rng.next_below(3)];
  }  // else match-all
  return rule;
}

// Packets aimed at the churn pool's hosts.
Packet churn_packet(Network& net, Rng& rng) {
  Packet pkt = random_packet(net, rng);
  pkt.ip.dst = Ipv4Addr(10, 1, 1, kOctets[rng.next_below(3)]);
  return pkt;
}

// Which structural cases a churn sequence reached; the tests assert each
// one was hit, so a lucky seed cannot pass without exercising them.
struct ChurnCoverage {
  int duplicate_keys = 0;    // add of a rule whose exact key is installed
  int winners_removed = 0;   // a removal handed a key to its next duplicate
  int bands_emptied = 0;     // a removal left a priority band empty
  int bands_refilled = 0;    // an add into a band that had been emptied
  int slots_reused = 0;      // an add while removed rules' slots were free
};

// True iff `a` and `b` are exact rules sharing one priority band and key.
bool same_exact_key(const FlowRule& a, const FlowRule& b) {
  const FlowMatch& m = a.match;
  if ((m.src && m.src->len < 32) || (m.dst && m.dst->len < 32) ||
      m.specificity() == 0) {
    return false;
  }
  return a.priority == b.priority && a.match == b.match;
}

// One table under churn plus everything the sequence needs to check it.
struct ChurnSubject {
  FlowTable table;
  ReferenceTable ref;
  std::size_t high_water = 0;  // most rules ever live at once
  std::vector<int> emptied_bands;
  std::size_t lookups = 0;
};

// True iff removing `doomed` rules hands some exact key over to a surviving
// duplicate: a doomed rule is its key's winner and a later one survives.
bool hands_over_a_key(const ReferenceTable& ref,
                      const std::function<bool(const FlowRule&)>& doomed) {
  const auto& rules = ref.rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (!doomed(rules[i])) continue;
    bool is_winner = true;
    for (std::size_t j = 0; j < i && is_winner; ++j) {
      is_winner = !same_exact_key(rules[i], rules[j]);
    }
    if (!is_winner) continue;
    for (std::size_t j = i + 1; j < rules.size(); ++j) {
      if (same_exact_key(rules[i], rules[j]) && !doomed(rules[j])) {
        return true;
      }
    }
  }
  return false;
}

bool has_band(const ReferenceTable& ref, int priority) {
  for (const FlowRule& r : ref.rules()) {
    if (r.priority == priority) return true;
  }
  return false;
}

// Applies one random operation to the table and its reference, then checks
// they agree.
void churn_step(Rng& rng, Network& net, ChurnSubject& s, ChurnCoverage& cov) {
  constexpr int kCookies = 12;
  const std::uint64_t op = rng.next_below(10);
  if (op < 4) {
    FlowRule rule = churn_rule(
        rng, "c" + std::to_string(rng.next_below(kCookies)));
    const auto& live = s.ref.rules();
    if (std::any_of(live.begin(), live.end(), [&](const FlowRule& r) {
          return same_exact_key(rule, r);
        })) {
      ++cov.duplicate_keys;
    }
    const auto band = std::find(s.emptied_bands.begin(),
                                s.emptied_bands.end(), rule.priority);
    if (band != s.emptied_bands.end()) {
      ++cov.bands_refilled;
      s.emptied_bands.erase(band);
    }
    if (s.ref.rules().size() < s.high_water) ++cov.slots_reused;
    s.table.add(rule);
    s.ref.add(rule);
    s.high_water = std::max(s.high_water, s.ref.rules().size());
  } else if (op < 7) {
    std::function<bool(const FlowRule&)> doomed;
    const bool by_cookie = op < 6;
    const std::string cookie = "c" + std::to_string(rng.next_below(kCookies));
    if (by_cookie) {
      doomed = [cookie](const FlowRule& r) { return r.cookie == cookie; };
    } else {
      const int prio = static_cast<int>(rng.next_below(3)) * 10;
      const std::uint64_t parity = rng.next_below(2);
      doomed = [prio, parity](const FlowRule& r) {
        return r.priority == prio && r.hit_packets % 2 == parity;
      };
    }
    if (hands_over_a_key(s.ref, doomed)) ++cov.winners_removed;
    std::vector<int> bands_before;
    for (int prio = 0; prio <= 20; prio += 10) {
      if (has_band(s.ref, prio)) bands_before.push_back(prio);
    }
    if (by_cookie) {
      EXPECT_EQ(s.table.remove_by_cookie(cookie),
                s.ref.remove_by_cookie(cookie));
    } else {
      EXPECT_EQ(s.table.remove_if(doomed), s.ref.remove_if(doomed));
    }
    for (const int prio : bands_before) {
      if (!has_band(s.ref, prio)) {
        ++cov.bands_emptied;
        s.emptied_bands.push_back(prio);
      }
    }
  } else {
    for (int p = 0; p < 8; ++p) {
      const Packet pkt = churn_packet(net, rng);
      const int in_port = static_cast<int>(rng.next_below(3));
      expect_same_winner(s.table.lookup(pkt, in_port),
                         s.ref.lookup(pkt, in_port), s.lookups++);
    }
  }
  expect_same_state(s.table, s.ref);
}

void expect_full_coverage(const ChurnCoverage& cov) {
  EXPECT_GT(cov.duplicate_keys, 0);
  EXPECT_GT(cov.winners_removed, 0);
  EXPECT_GT(cov.bands_emptied, 0);
  EXPECT_GT(cov.bands_refilled, 0);
  EXPECT_GT(cov.slots_reused, 0);
}

TEST_P(FlowTableProperty, InterleavedChurnMatchesReference) {
  Rng rng(GetParam() + 2000);
  Network net;
  ChurnSubject s;
  ChurnCoverage cov;
  for (int step = 0; step < 800; ++step) {
    churn_step(rng, net, s, cov);
    if (HasFatalFailure()) return;
  }
  expect_full_coverage(cov);
}

// A copied table is a value: churning the copy and the original differently
// leaves each matching its own reference.
TEST_P(FlowTableProperty, CopiesChurnIndependently) {
  Rng rng(GetParam() + 3000);
  Network net;
  ChurnSubject original;
  ChurnCoverage cov;
  for (int step = 0; step < 200; ++step) churn_step(rng, net, original, cov);
  ChurnSubject copy = original;
  Rng copy_rng(GetParam() + 4000);
  for (int step = 0; step < 400; ++step) {
    churn_step(rng, net, original, cov);
    churn_step(copy_rng, net, copy, cov);
    if (HasFatalFailure()) return;
  }
  expect_full_coverage(cov);
}

TEST(FlowTableProperty, FifoTieBreakAmongIdenticalMatches) {
  Network net;
  FlowTable table;
  for (int i = 0; i < 4; ++i) {
    FlowRule rule;
    rule.priority = 7;
    rule.match.dst = *Prefix::parse("10.1.1.1");
    rule.match.proto = IpProto::kUdp;
    rule.cookie = "dup" + std::to_string(i);
    table.add(rule);
  }
  UdpHeader hdr;
  hdr.src_port = 1;
  hdr.dst_port = 2;
  const Packet pkt =
      net.make_packet(Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 1, 1, 1),
                      IpProto::kUdp, serialize_udp(hdr, Bytes(8, 0)));
  const FlowRule* hit = table.lookup(pkt, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cookie, "dup0");  // first inserted wins
  // Removing the winner promotes the next insertion, not another candidate.
  table.remove_by_cookie("dup0");
  EXPECT_EQ(table.lookup(pkt, 0)->cookie, "dup1");
}

TEST(FlowTableProperty, CachedSpecificityMatchesRecomputation) {
  Rng rng(99);
  FlowTable table;
  for (int i = 0; i < 64; ++i) table.add(random_rule(rng, i));
  for (const FlowRule& rule : table.rules()) {
    EXPECT_EQ(rule.cached_specificity, rule.match.specificity());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowTableProperty,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace pvn
