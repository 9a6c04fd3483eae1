// DNS-lite: name resolution with optionally-signed (DNSSEC-like) records,
// forgeable resolvers, and a stub resolver that supports the PVN DNS
// Validation module's two defences (paper §4 "DNS Validation"):
//   * signature validation against trusted zone keys, and
//   * multi-resolver quorum for unsigned names.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "proto/host.h"
#include "util/codec.h"
#include "util/digest.h"

namespace pvn {

constexpr Port kDnsPort = 53;

struct DnsRecord {
  std::string name;
  Ipv4Addr addr;
  std::uint32_t ttl_seconds = 300;
  bool signed_record = false;
  Signature signature;  // by the zone key over canonical_bytes()

  Bytes canonical_bytes() const;
  template <class F> void fields(F& f) {  // util/codec.h
    f(name, addr, ttl_seconds, signed_record);
    if (signed_record) f(signature);
  }
  bool operator==(const DnsRecord&) const = default;
};

struct DnsMessage : codec::Message<DnsMessage> {
  std::uint16_t id = 0;
  bool response = false;
  bool nxdomain = false;
  std::string question;
  std::vector<DnsRecord> answers;

  template <class F> void fields(F& f) {
    f(id, response, nxdomain, question);
    f.list16(answers, "answers");
  }
  bool operator==(const DnsMessage&) const = default;
};

// An authoritative/recursive resolver bound to UDP port 53 of a Host.
// A dishonest resolver (on-path ISP, §2.1) can be configured to forge
// specific names.
class DnsServer {
 public:
  // If `zone_key` is non-null, records are signed at insertion (DNSSEC-lite).
  explicit DnsServer(Host& host, const KeyPair* zone_key = nullptr);

  // Records are signed when the server has a zone key, unless `sign` is
  // false (models names outside the signed zone).
  void add_record(const std::string& name, Ipv4Addr addr,
                  std::uint32_t ttl_seconds = 300, bool sign = true);
  // Forged answers are returned *unsigned* even when a zone key exists —
  // the forger does not hold the zone's private key.
  void forge(const std::string& name, Ipv4Addr addr);
  void clear_forgeries() { forged_.clear(); }

  std::uint64_t queries_served() const { return queries_; }

 private:
  void on_query(Ipv4Addr src, Port sport, const Bytes& payload);

  Host* host_;
  const KeyPair* zone_key_;
  std::map<std::string, DnsRecord> records_;
  std::map<std::string, Ipv4Addr> forged_;
  std::uint64_t queries_ = 0;
};

// Result of a stub resolution.
struct DnsResult {
  enum class Status {
    kOk,
    kNxDomain,
    kTimeout,
    kBogus,       // signature check failed on a record claiming to be signed
    kNoQuorum,    // multi-resolver answers disagreed beyond the threshold
  };
  Status status = Status::kTimeout;
  Ipv4Addr addr;
  bool authenticated = false;  // true if signature-validated
};

// A stub resolver running on a Host. Queries one or more upstream resolvers;
// validates signatures against `trusted_zone_keys` when provided.
class StubResolver {
 public:
  StubResolver(Host& host, std::vector<Ipv4Addr> resolvers,
               const KeyRegistry* trusted_zone_keys = nullptr,
               PublicKey zone_key_id = {});

  using Callback = std::function<void(const DnsResult&)>;

  // Resolves `name`. With `quorum` > 1, that many resolvers are queried in
  // parallel and the majority answer wins; disagreement -> kNoQuorum.
  void resolve(const std::string& name, Callback cb, int quorum = 1,
               SimDuration timeout = seconds(2));

  std::uint64_t queries_sent() const { return queries_sent_; }

 private:
  struct Pending {
    std::string name;
    Callback cb;
    int expected = 1;
    std::vector<DnsMessage> answers;
    EventId timeout_event = kInvalidEventId;
  };

  void on_response(const Bytes& payload);
  void finish(std::uint16_t id, Pending& p);
  DnsResult judge(const Pending& p) const;

  Host* host_;
  std::vector<Ipv4Addr> resolvers_;
  const KeyRegistry* trusted_;
  PublicKey zone_key_id_;
  Port local_port_ = 5353;
  std::uint16_t next_id_ = 1;
  std::map<std::uint16_t, Pending> pending_;
  std::uint64_t queries_sent_ = 0;
};

}  // namespace pvn
