#include "proto/dns.h"

#include <algorithm>

namespace pvn {

Bytes DnsRecord::canonical_bytes() const {
  ByteWriter w;
  w.str(name);
  w.u32(addr.v);
  w.u32(ttl_seconds);
  return std::move(w).take();
}

DnsServer::DnsServer(Host& host, const KeyPair* zone_key)
    : host_(&host), zone_key_(zone_key) {
  host_->bind_udp(kDnsPort, [this](Ipv4Addr src, Port sport, Port,
                                   const Bytes& payload) {
    on_query(src, sport, payload);
  });
}

void DnsServer::add_record(const std::string& name, Ipv4Addr addr,
                           std::uint32_t ttl_seconds, bool sign) {
  DnsRecord rec;
  rec.name = name;
  rec.addr = addr;
  rec.ttl_seconds = ttl_seconds;
  if (sign && zone_key_ != nullptr) {
    rec.signed_record = true;
    rec.signature = zone_key_->sign(rec.canonical_bytes());
  }
  records_[name] = rec;
}

void DnsServer::forge(const std::string& name, Ipv4Addr addr) {
  forged_[name] = addr;
}

void DnsServer::on_query(Ipv4Addr src, Port sport, const Bytes& payload) {
  const auto query = DnsMessage::decode(payload);
  if (!query || query->response) return;
  ++queries_;

  DnsMessage reply;
  reply.id = query->id;
  reply.response = true;
  reply.question = query->question;

  if (const auto fit = forged_.find(query->question); fit != forged_.end()) {
    DnsRecord rec;
    rec.name = query->question;
    rec.addr = fit->second;
    reply.answers.push_back(rec);  // forgeries cannot carry valid signatures
  } else if (const auto it = records_.find(query->question);
             it != records_.end()) {
    reply.answers.push_back(it->second);
  } else {
    reply.nxdomain = true;
  }
  host_->send_udp(src, kDnsPort, sport, reply.encode());
}

StubResolver::StubResolver(Host& host, std::vector<Ipv4Addr> resolvers,
                           const KeyRegistry* trusted_zone_keys,
                           PublicKey zone_key_id)
    : host_(&host),
      resolvers_(std::move(resolvers)),
      trusted_(trusted_zone_keys),
      zone_key_id_(zone_key_id) {
  host_->bind_udp(local_port_, [this](Ipv4Addr, Port, Port,
                                      const Bytes& payload) {
    on_response(payload);
  });
}

void StubResolver::resolve(const std::string& name, Callback cb, int quorum,
                           SimDuration timeout) {
  const std::uint16_t id = next_id_++;
  Pending& p = pending_[id];
  p.name = name;
  p.cb = std::move(cb);
  p.expected = std::min<int>(quorum, static_cast<int>(resolvers_.size()));
  if (p.expected < 1) p.expected = 1;

  DnsMessage query;
  query.id = id;
  query.question = name;
  const Bytes wire = query.encode();
  for (int i = 0; i < p.expected && i < static_cast<int>(resolvers_.size());
       ++i) {
    host_->send_udp(resolvers_[static_cast<std::size_t>(i)], local_port_,
                    kDnsPort, wire);
    ++queries_sent_;
  }
  p.timeout_event = host_->sim().schedule_after(timeout, SimCategory::kProto, [this, id] {
    const auto it = pending_.find(id);
    if (it == pending_.end()) return;
    it->second.timeout_event = kInvalidEventId;
    finish(id, it->second);
  });
}

void StubResolver::on_response(const Bytes& payload) {
  const auto msg = DnsMessage::decode(payload);
  if (!msg || !msg->response) return;
  const auto it = pending_.find(msg->id);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  if (msg->question != p.name) return;
  p.answers.push_back(*msg);
  if (static_cast<int>(p.answers.size()) >= p.expected) finish(msg->id, p);
}

DnsResult StubResolver::judge(const Pending& p) const {
  DnsResult result;
  if (p.answers.empty()) {
    result.status = DnsResult::Status::kTimeout;
    return result;
  }

  // Signature validation first: one authenticated answer settles it.
  for (const DnsMessage& m : p.answers) {
    for (const DnsRecord& rec : m.answers) {
      if (!rec.signed_record) continue;
      if (trusted_ != nullptr &&
          trusted_->verify(zone_key_id_, rec.canonical_bytes(),
                           rec.signature)) {
        result.status = DnsResult::Status::kOk;
        result.addr = rec.addr;
        result.authenticated = true;
        return result;
      }
      if (trusted_ != nullptr) {
        // Claimed to be signed but failed validation.
        result.status = DnsResult::Status::kBogus;
        return result;
      }
    }
  }

  // Quorum over unsigned answers: majority address wins.
  std::map<std::uint32_t, int> votes;
  int nx = 0;
  for (const DnsMessage& m : p.answers) {
    if (m.nxdomain || m.answers.empty()) {
      ++nx;
      continue;
    }
    ++votes[m.answers.front().addr.v];
  }
  const int total = static_cast<int>(p.answers.size());
  if (nx * 2 > total) {
    result.status = DnsResult::Status::kNxDomain;
    return result;
  }
  for (const auto& [addr, count] : votes) {
    if (count * 2 > total) {
      result.status = DnsResult::Status::kOk;
      result.addr = Ipv4Addr(addr);
      return result;
    }
  }
  if (total == 1 && !votes.empty()) {
    result.status = DnsResult::Status::kOk;
    result.addr = Ipv4Addr(votes.begin()->first);
    return result;
  }
  result.status = DnsResult::Status::kNoQuorum;
  return result;
}

void StubResolver::finish(std::uint16_t id, Pending& p) {
  if (p.timeout_event != kInvalidEventId) {
    host_->sim().cancel(p.timeout_event);
  }
  const DnsResult result = judge(p);
  Callback cb = std::move(p.cb);
  pending_.erase(id);
  if (cb) cb(result);
}

}  // namespace pvn
