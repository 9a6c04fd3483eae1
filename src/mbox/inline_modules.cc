#include "mbox/inline_modules.h"

#include <algorithm>
#include <cstring>

#include "proto/framing.h"

namespace pvn {
namespace {

constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);

// memchr-anchored substring search: jump between candidate first bytes with
// memchr (vectorized in libc) and verify the tail with memcmp, instead of
// std::search's byte-at-a-time outer loop. DPI patterns start with bytes
// that are rare in typical payloads, so the scan is effectively one memchr
// sweep — this is the inner loop of the chain dataplane benchmark.
std::size_t find_anchored(const std::uint8_t* hay, std::size_t hay_n,
                          const std::uint8_t* needle, std::size_t needle_n,
                          std::size_t from) {
  if (needle_n == 0 || hay_n < needle_n) return kNotFound;
  const std::size_t last_start = hay_n - needle_n;
  if (from > last_start) return kNotFound;
  const std::uint8_t first = needle[0];
  const std::uint8_t* p = hay + from;
  const std::uint8_t* const limit = hay + last_start + 1;
  while (p < limit) {
    p = static_cast<const std::uint8_t*>(
        std::memchr(p, first, static_cast<std::size_t>(limit - p)));
    if (p == nullptr) return kNotFound;
    if (needle_n == 1 ||
        std::memcmp(p + 1, needle + 1, needle_n - 1) == 0) {
      return static_cast<std::size_t>(p - hay);
    }
    ++p;
  }
  return kNotFound;
}

}  // namespace

bool payload_contains(const Bytes& haystack, const Bytes& needle) {
  return find_anchored(haystack.data(), haystack.size(), needle.data(),
                       needle.size(), 0) != kNotFound;
}

bool payload_contains(const Bytes& haystack, const std::string& needle) {
  return find_anchored(haystack.data(), haystack.size(),
                       reinterpret_cast<const std::uint8_t*>(needle.data()),
                       needle.size(), 0) != kNotFound;
}

namespace {

// Counter-only module state: a fixed run of u64s, validated before commit.
Bytes counters_state(std::initializer_list<std::uint64_t> vals) {
  ByteWriter w;
  for (const std::uint64_t v : vals) w.u64(v);
  return std::move(w).take();
}

bool restore_counters(const Bytes& state,
                      std::initializer_list<std::uint64_t*> out) {
  ByteReader r(state);
  std::vector<std::uint64_t> tmp;
  tmp.reserve(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) tmp.push_back(r.u64());
  if (!r.exhausted()) return false;
  std::size_t i = 0;
  for (std::uint64_t* p : out) *p = tmp[i++];
  return true;
}

}  // namespace

// --- TlsValidator -----------------------------------------------------------

TlsValidator::TlsValidator(const TrustStore& trust, EnforcementMode mode,
                           Port tls_port)
    : trust_(&trust), mode_(mode), tls_port_(tls_port) {}

TlsValidator::FlowState& TlsValidator::state_for(const FlowKey& key) {
  return flows_[key];
}

void TlsValidator::inject_rsts(const Packet& server_hello_pkt,
                               MboxContext& ctx) {
  const auto seg = parse_tcp(server_hello_pkt.l4);
  if (!seg || ctx.injected == nullptr) return;
  // RST toward the client, spoofed from the server.
  TcpHeader to_client;
  to_client.src_port = seg->hdr.src_port;
  to_client.dst_port = seg->hdr.dst_port;
  to_client.seq = seg->hdr.seq;
  to_client.flags = kTcpRst;
  Packet rst1;
  rst1.ip.src = server_hello_pkt.ip.src;
  rst1.ip.dst = server_hello_pkt.ip.dst;
  rst1.ip.proto = IpProto::kTcp;
  rst1.l4 = serialize_tcp(to_client, {});
  ctx.injected->push_back(std::move(rst1));
  // RST toward the server, spoofed from the client.
  TcpHeader to_server;
  to_server.src_port = seg->hdr.dst_port;
  to_server.dst_port = seg->hdr.src_port;
  to_server.seq = seg->hdr.ack;
  to_server.flags = kTcpRst;
  Packet rst2;
  rst2.ip.src = server_hello_pkt.ip.dst;
  rst2.ip.dst = server_hello_pkt.ip.src;
  rst2.ip.proto = IpProto::kTcp;
  rst2.l4 = serialize_tcp(to_server, {});
  ctx.injected->push_back(std::move(rst2));
}

Middlebox::Verdict TlsValidator::on_record(const FlowKey& key, FlowState& st,
                                           const TlsRecord& rec, Packet& pkt,
                                           MboxContext& ctx) {
  switch (rec.type) {
    case TlsContentType::kClientHello: {
      const auto hello = TlsClientHello::decode(rec.body);
      if (!hello) return Verdict::kForward;
      st.sni = hello->server_name;
      // Remember the SNI for the reverse (server->client) flow.
      sni_by_server_flow_[key.reversed()] = st.sni;
      return Verdict::kForward;
    }
    case TlsContentType::kServerHello: {
      if (st.verdict_done) return Verdict::kForward;
      st.verdict_done = true;
      ++checked_;
      const auto hello = TlsServerHello::decode(rec.body);
      std::string sni;
      if (const auto it = sni_by_server_flow_.find(key);
          it != sni_by_server_flow_.end()) {
        sni = it->second;
      }
      const CertStatus status =
          hello ? validate_chain(hello->chain.certs, *trust_, ctx.now, sni)
                : CertStatus::kEmptyChain;
      if (status == CertStatus::kOk) return Verdict::kForward;
      ctx.report(name_, "tls-invalid-cert",
                 "sni=" + sni + " status=" + to_string(status));
      if (mode_ == EnforcementMode::kBlock) {
        ++blocked_;
        inject_rsts(pkt, ctx);
        return Verdict::kDrop;
      }
      return Verdict::kForward;
    }
    default:
      return Verdict::kForward;
  }
}

Bytes TlsValidator::serialize_state() const {
  ByteWriter w;
  w.u16(static_cast<std::uint16_t>(flows_.size()));
  for (const auto& [key, st] : flows_) {
    write_flow_key(w, key);
    w.u32(st.next_seq);
    w.u8(st.synced ? 1 : 0);
    w.u8(st.gave_up ? 1 : 0);
    w.blob(st.buffer);
    w.str(st.sni);
    w.u8(st.verdict_done ? 1 : 0);
  }
  w.u16(static_cast<std::uint16_t>(sni_by_server_flow_.size()));
  for (const auto& [key, sni] : sni_by_server_flow_) {
    write_flow_key(w, key);
    w.str(sni);
  }
  w.u64(checked_);
  w.u64(blocked_);
  return std::move(w).take();
}

bool TlsValidator::restore_state(const Bytes& state, std::uint32_t version) {
  if (version != state_version()) return false;
  ByteReader r(state);
  std::map<FlowKey, FlowState> flows;
  const std::uint16_t n_flows = r.u16();
  if (!r.ok()) return false;
  for (std::uint16_t i = 0; i < n_flows; ++i) {
    const FlowKey key = read_flow_key(r);
    FlowState st;
    st.next_seq = r.u32();
    st.synced = r.u8() != 0;
    st.gave_up = r.u8() != 0;
    st.buffer = r.blob();
    st.sni = r.str();
    st.verdict_done = r.u8() != 0;
    if (!r.ok()) return false;
    flows[key] = std::move(st);
  }
  std::map<FlowKey, std::string> snis;
  const std::uint16_t n_snis = r.u16();
  if (!r.ok()) return false;
  for (std::uint16_t i = 0; i < n_snis; ++i) {
    const FlowKey key = read_flow_key(r);
    snis[key] = r.str();
    if (!r.ok()) return false;
  }
  const std::uint64_t checked = r.u64();
  const std::uint64_t blocked = r.u64();
  if (!r.exhausted()) return false;
  flows_ = std::move(flows);
  sni_by_server_flow_ = std::move(snis);
  checked_ = checked;
  blocked_ = blocked;
  return true;
}

Middlebox::Verdict TlsValidator::process(Packet& pkt, MboxContext& ctx) {
  if (pkt.ip.proto != IpProto::kTcp) return Verdict::kForward;
  // Check the ports before parse_tcp copies the payload; a packet too short
  // for them is one parse_tcp rejects too.
  Port src = 0;
  Port dst = 0;
  if (!peek_ports(static_cast<std::uint8_t>(pkt.ip.proto), pkt.l4, src, dst) ||
      (src != tls_port_ && dst != tls_port_)) {
    return Verdict::kForward;
  }
  const auto seg = parse_tcp(pkt.l4);
  if (!seg) return Verdict::kForward;
  const FlowKey key = FlowKey::of(pkt);
  FlowState& st = state_for(key);
  if (st.gave_up) return Verdict::kForward;

  if (seg->hdr.syn()) {
    st.next_seq = seg->hdr.seq + 1;
    st.synced = true;
    return Verdict::kForward;
  }
  if (seg->payload.empty()) return Verdict::kForward;
  if (!st.synced) {
    st.gave_up = true;  // joined mid-flow; cannot reassemble reliably
    return Verdict::kForward;
  }
  if (seg->hdr.seq != st.next_seq) {
    if (seg->hdr.seq + seg->payload.size() <= st.next_seq) {
      return Verdict::kForward;  // pure duplicate: already inspected
    }
    // Out-of-order beyond our simple tracker: stop inspecting this flow.
    st.gave_up = true;
    ctx.report(name_, "tls-unverifiable", "out-of-order flow");
    return Verdict::kForward;
  }
  st.next_seq += static_cast<std::uint32_t>(seg->payload.size());

  // Reassemble complete length-prefixed frames, keeping any remainder
  // buffered for the next segment.
  st.buffer.insert(st.buffer.end(), seg->payload.begin(), seg->payload.end());
  const std::vector<Bytes> frames = take_frames(st.buffer);
  Verdict verdict = Verdict::kForward;
  for (const Bytes& frame : frames) {
    const auto rec = TlsRecord::decode(frame);
    if (!rec) continue;
    const Verdict v = on_record(key, st, *rec, pkt, ctx);
    if (v == Verdict::kDrop) verdict = Verdict::kDrop;
  }
  return verdict;
}

// --- DnsValidator -----------------------------------------------------------

DnsValidator::DnsValidator(const KeyRegistry* trusted_zone_keys,
                           PublicKey zone_key_id,
                           std::map<std::string, Ipv4Addr> pins,
                           EnforcementMode mode,
                           std::set<std::string> require_signed)
    : trusted_(trusted_zone_keys),
      zone_key_id_(zone_key_id),
      pins_(std::move(pins)),
      mode_(mode),
      require_signed_(std::move(require_signed)) {}

Middlebox::Verdict DnsValidator::process(Packet& pkt, MboxContext& ctx) {
  if (pkt.ip.proto != IpProto::kUdp) return Verdict::kForward;
  const auto dg = parse_udp(pkt.l4);
  if (!dg || dg->hdr.src_port != kDnsPort) return Verdict::kForward;
  const auto msg = DnsMessage::decode(dg->payload);
  if (!msg || !msg->response) return Verdict::kForward;
  ++checked_;

  for (const DnsRecord& rec : msg->answers) {
    bool bad = false;
    std::string why;
    if (rec.signed_record) {
      if (trusted_ != nullptr &&
          !trusted_->verify(zone_key_id_, rec.canonical_bytes(),
                            rec.signature)) {
        bad = true;
        why = "bad-signature";
      }
    } else if (require_signed_.contains(rec.name)) {
      bad = true;
      why = "unsigned answer for a signed zone";
    } else if (const auto pin = pins_.find(rec.name); pin != pins_.end()) {
      if (pin->second != rec.addr) {
        bad = true;
        why = "pin-mismatch got=" + rec.addr.to_string() +
              " expected=" + pin->second.to_string();
      }
    }
    if (bad) {
      ctx.report(name_, "dns-forgery", "name=" + rec.name + " " + why);
      if (mode_ == EnforcementMode::kBlock) {
        ++blocked_;
        return Verdict::kDrop;
      }
    }
  }
  return Verdict::kForward;
}

Bytes DnsValidator::serialize_state() const {
  return counters_state({checked_, blocked_});
}

bool DnsValidator::restore_state(const Bytes& state, std::uint32_t version) {
  return version == state_version() &&
         restore_counters(state, {&checked_, &blocked_});
}

// --- PiiDetector ------------------------------------------------------------

PiiDetector::PiiDetector(std::vector<std::string> patterns, PiiAction action)
    : patterns_(std::move(patterns)), action_(action) {}

Middlebox::Verdict PiiDetector::process(Packet& pkt, MboxContext& ctx) {
  if (pkt.l4.empty()) return Verdict::kForward;
  // Scan the transport payload only (skip the L4 header bytes).
  std::size_t header = 0;
  if (pkt.ip.proto == IpProto::kTcp) header = TcpHeader::kWireSize;
  if (pkt.ip.proto == IpProto::kUdp) header = UdpHeader::kWireSize;
  if (pkt.l4.size() <= header) return Verdict::kForward;

  bool found_any = false;
  for (const std::string& pattern : patterns_) {
    const auto* needle =
        reinterpret_cast<const std::uint8_t*>(pattern.data());
    // Track positions by offset: scrubbing detaches the CoW payload, which
    // invalidates pointers into the previous buffer — re-fetch data() every
    // iteration.
    std::size_t pos = header;
    while (true) {
      pos = find_anchored(pkt.l4.data(), pkt.l4.size(), needle,
                          pattern.size(), pos);
      if (pos == kNotFound) break;
      found_any = true;
      ++leaks_;
      ctx.report(name_, "pii-leak",
                 "pattern=" + pattern + " dst=" + pkt.ip.dst.to_string());
      if (action_ == PiiAction::kScrub) {
        Bytes& mut = pkt.l4.mutate();
        std::fill(mut.begin() + static_cast<std::ptrdiff_t>(pos),
                  mut.begin() + static_cast<std::ptrdiff_t>(pos +
                                                            pattern.size()),
                  std::uint8_t('x'));
      }
      ++pos;
    }
  }
  if (found_any && action_ == PiiAction::kBlock) return Verdict::kDrop;
  return Verdict::kForward;
}

Bytes PiiDetector::serialize_state() const { return counters_state({leaks_}); }

bool PiiDetector::restore_state(const Bytes& state, std::uint32_t version) {
  return version == state_version() && restore_counters(state, {&leaks_});
}

// --- TrackerBlocker -----------------------------------------------------------

TrackerBlocker::TrackerBlocker(std::set<Ipv4Addr> tracker_addrs)
    : trackers_(std::move(tracker_addrs)) {}

Middlebox::Verdict TrackerBlocker::process(Packet& pkt, MboxContext& ctx) {
  if (!trackers_.contains(pkt.ip.dst)) return Verdict::kForward;
  ++blocked_;
  ctx.report(name_, "tracker-blocked", "dst=" + pkt.ip.dst.to_string());
  return Verdict::kDrop;
}

Bytes TrackerBlocker::serialize_state() const {
  return counters_state({blocked_});
}

bool TrackerBlocker::restore_state(const Bytes& state, std::uint32_t version) {
  return version == state_version() && restore_counters(state, {&blocked_});
}

// --- MalwareDetector ------------------------------------------------------------

MalwareDetector::MalwareDetector(std::vector<Bytes> signatures,
                                 EnforcementMode mode)
    : signatures_(std::move(signatures)), mode_(mode) {}

Middlebox::Verdict MalwareDetector::process(Packet& pkt, MboxContext& ctx) {
  for (const Bytes& sig : signatures_) {
    if (payload_contains(pkt.l4, sig)) {
      ++detections_;
      ctx.report(name_, "malware",
                 "signature-hit src=" + pkt.ip.src.to_string());
      if (mode_ == EnforcementMode::kBlock) return Verdict::kDrop;
    }
  }
  return Verdict::kForward;
}

Bytes MalwareDetector::serialize_state() const {
  return counters_state({detections_});
}

bool MalwareDetector::restore_state(const Bytes& state, std::uint32_t version) {
  return version == state_version() && restore_counters(state, {&detections_});
}

// --- ReplicaSelector ---------------------------------------------------------------

ReplicaSelector::ReplicaSelector(std::map<std::string, Service> services,
                                 std::map<Ipv4Addr, SimDuration> rtt_of)
    : services_(std::move(services)), rtt_(std::move(rtt_of)) {}

Ipv4Addr ReplicaSelector::best_replica(const std::string& service_name) const {
  const auto it = services_.find(service_name);
  if (it == services_.end() || it->second.replicas.empty()) return {};
  Ipv4Addr best = it->second.replicas.front();
  SimDuration best_rtt = kSecond * 3600;
  for (const Ipv4Addr replica : it->second.replicas) {
    const auto rt = rtt_.find(replica);
    const SimDuration rtt = rt == rtt_.end() ? kSecond * 3600 : rt->second;
    if (rtt < best_rtt) {
      best_rtt = rtt;
      best = replica;
    }
  }
  return best;
}

Middlebox::Verdict ReplicaSelector::process(Packet& pkt, MboxContext& ctx) {
  if (pkt.ip.proto != IpProto::kUdp) return Verdict::kForward;
  const auto dg = parse_udp(pkt.l4);
  if (!dg || dg->hdr.src_port != kDnsPort) return Verdict::kForward;
  auto msg = DnsMessage::decode(dg->payload);
  if (!msg || !msg->response) return Verdict::kForward;

  bool rewritten = false;
  for (DnsRecord& rec : msg->answers) {
    if (rec.signed_record) continue;  // cannot rewrite without breaking sigs
    const auto it = services_.find(rec.name);
    if (it == services_.end()) continue;
    const Ipv4Addr best = best_replica(rec.name);
    if (best.is_unspecified() || best == rec.addr) continue;
    ctx.report(name_, "replica-rewrite",
               "name=" + rec.name + " " + rec.addr.to_string() + " -> " +
                   best.to_string());
    rec.addr = best;
    rewritten = true;
    ++rewrites_;
  }
  if (rewritten) {
    pkt.l4 = serialize_udp(dg->hdr, msg->encode());
  }
  return Verdict::kForward;
}

// --- Classifier -----------------------------------------------------------------

Classifier::Classifier(std::vector<Rule> rules) : rules_(std::move(rules)) {}

Bytes Classifier::serialize_state() const {
  ByteWriter w;
  w.u16(static_cast<std::uint16_t>(flow_class_.size()));
  for (const auto& [key, tos] : flow_class_) {
    write_flow_key(w, key);
    w.u8(tos);
  }
  w.u64(classified_);
  return std::move(w).take();
}

bool Classifier::restore_state(const Bytes& state, std::uint32_t version) {
  if (version != state_version()) return false;
  ByteReader r(state);
  std::map<FlowKey, std::uint8_t> classes;
  const std::uint16_t n = r.u16();
  if (!r.ok()) return false;
  for (std::uint16_t i = 0; i < n; ++i) {
    const FlowKey key = read_flow_key(r);
    classes[key] = r.u8();
    if (!r.ok()) return false;
  }
  const std::uint64_t classified = r.u64();
  if (!r.exhausted()) return false;
  flow_class_ = std::move(classes);
  classified_ = classified;
  return true;
}

Middlebox::Verdict Classifier::process(Packet& pkt, MboxContext& ctx) {
  (void)ctx;
  const FlowKey key = FlowKey::of(pkt);
  // Already classified (either direction)?
  if (const auto it = flow_class_.find(key); it != flow_class_.end()) {
    pkt.ip.tos = it->second;
    return Verdict::kForward;
  }
  if (const auto it = flow_class_.find(key.reversed());
      it != flow_class_.end()) {
    pkt.ip.tos = it->second;
    return Verdict::kForward;
  }
  for (const Rule& rule : rules_) {
    if (payload_contains(pkt.l4, rule.substring)) {
      flow_class_[key] = rule.tos;
      ++classified_;
      pkt.ip.tos = rule.tos;
      break;
    }
  }
  return Verdict::kForward;
}

}  // namespace pvn
