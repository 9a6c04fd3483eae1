#include "trace.h"

#include <algorithm>
#include <chrono>
#include <variant>

#include "proto/l4.h"
#include "pvn/pvnc_parser.h"
#include "tunnel/esp.h"

namespace pvnbench {

using namespace pvn;

namespace {

using Clock = std::chrono::steady_clock;

// Captured items kept per corpus for the replays.
constexpr std::size_t kCapture = 4096;
// A replay repeats its corpus until this much host time has passed, so
// sub-microsecond operations are timed over many calls.
constexpr double kMinReplayNs = 3e6;
// Synthetic packets used to time a layer the workload left idle.
constexpr int kProbePackets = 512;

double since_ns(Clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

// Host ns per operation of `pass`, which performs `ops` operations.
template <typename F>
double ns_per_op(std::size_t ops, F&& pass) {
  if (ops == 0) return 0.0;
  std::uint64_t passes = 0;
  double elapsed = 0.0;
  const auto t0 = Clock::now();
  do {
    pass();
    ++passes;
    elapsed = since_ns(t0);
  } while (elapsed < kMinReplayNs);
  return elapsed / static_cast<double>(passes * ops);
}

// Defeats dead-code elimination of replayed results.
volatile std::uint64_t g_sink = 0;

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// Seeded TCP packets of mixed sizes, from the smallest to a full segment.
std::vector<Packet> probe_packets(Rng& rng) {
  std::vector<Packet> out;
  for (int i = 0; i < kProbePackets; ++i) {
    TcpHeader hdr;
    hdr.src_port = static_cast<Port>(49152 + i);
    hdr.dst_port = 80;
    hdr.seq = static_cast<std::uint32_t>(rng.next_u64());
    hdr.flags = kTcpAck;
    const auto len = static_cast<std::size_t>(
        rng.bernoulli(0.5) ? 0 : rng.uniform_int(1, 1400));
    Packet pkt;
    pkt.ip.src = Ipv4Addr(10, 0, 0, 2);
    pkt.ip.dst = Ipv4Addr(93, 184, 216, 34);
    pkt.ip.proto = IpProto::kTcp;
    pkt.l4 = serialize_tcp(hdr, Bytes(len, static_cast<std::uint8_t>(i)));
    out.push_back(std::move(pkt));
  }
  return out;
}

}  // namespace

// Times every call into a switch-registered packet processor.
class Tracer::TimedProcessor final : public PacketProcessor {
 public:
  TimedProcessor(PacketProcessor* inner, Timer& timer)
      : inner_(inner), timer_(&timer) {}

  std::vector<Packet> process(Packet pkt, SimTime now,
                              SimDuration& delay) override {
    const auto t0 = Clock::now();
    std::vector<Packet> out = inner_->process(std::move(pkt), now, delay);
    timer_->ns += static_cast<std::uint64_t>(since_ns(t0));
    ++timer_->pkts;
    return out;
  }
  bool burst_capable() const override { return inner_->burst_capable(); }
  PacketBurst process_burst(PacketBurst burst, SimTime now,
                            SimDuration& delay) override {
    const std::size_t n = burst.size();
    const auto t0 = Clock::now();
    PacketBurst out = inner_->process_burst(std::move(burst), now, delay);
    timer_->ns += static_cast<std::uint64_t>(since_ns(t0));
    timer_->pkts += n;
    return out;
  }

 private:
  PacketProcessor* inner_;
  Timer* timer_;
};

Tracer::Tracer(Workload& w, std::uint64_t seed)
    : w_(w),
      hooks_(w.hooks()),
      access_links_(hooks_.access_links.begin(), hooks_.access_links.end()),
      rng_(seed ^ 0x7ace) {
  Network& net = w_.net();
  net.sim().reset_profile();
  net.sim().enable_profiling(true);
  for (const auto& link : net.links()) {
    const Link* l = link.get();
    link->add_tap([this, l](const Packet& pkt, const Node&, const Node& to) {
      on_delivery(*l, pkt, to);
    });
  }
  w_.on_chain_deployed = [this](const DeployedChain& c) {
    if (c.chain != nullptr) wrap(*c.sw, c.id, c.chain, chain_);
  };
  if (hooks_.decap != nullptr) {
    wrap(*hooks_.decap_switch, "esp-decap", hooks_.decap, decap_);
  }
}

Tracer::~Tracer() = default;

void Tracer::wrap(SdnSwitch& sw, const std::string& id, PacketProcessor* inner,
                  Timer& timer) {
  wrappers_.push_back(std::make_unique<TimedProcessor>(inner, timer));
  sw.register_processor(id, wrappers_.back().get());
}

template <typename T>
void Tracer::sample(std::vector<T>& pool, std::uint64_t& seen, T item) {
  ++seen;
  if (pool.size() < kCapture) {
    pool.push_back(std::move(item));
    return;
  }
  const std::uint64_t j = rng_.next_below(seen);
  if (j < kCapture) pool[j] = std::move(item);
}

void Tracer::on_delivery(const Link& link, const Packet& pkt, const Node& to) {
  if (pkt.ip.proto == IpProto::kEsp) sample(esp_, esp_seen_, pkt);
  if (pkt.ip.proto == IpProto::kTcp && access_links_.count(&link) != 0) {
    on_access_tcp(pkt);
  }
  if (const auto* router = dynamic_cast<const Router*>(&to)) {
    sample(route_dsts_, route_seen_,
           std::make_pair(const_cast<Router*>(router), pkt.ip.dst));
  } else if (const auto* sw = dynamic_cast<const SdnSwitch*>(&to)) {
    Ingress in;
    in.sw = const_cast<SdnSwitch*>(sw);
    in.pkt = pkt;
    in.in_port = link.port_at(to);
    sample(ingress_, ingress_seen_, std::move(in));
  }
}

void Tracer::on_access_tcp(const Packet& pkt) {
  ++tcp_segments_;
  const auto seg = parse_tcp(pkt.l4);
  if (!seg || seg->payload.empty()) return;
  ++tcp_data_segments_;
  sample(segments_, segments_seen_, Bytes(pkt.l4.get()));
  // A data segment that ends at or below the highest sequence end already
  // seen on its flow repeats bytes: a retransmission.
  const FlowKey key{pkt.ip.src.v, pkt.ip.dst.v, seg->hdr.src_port,
                    seg->hdr.dst_port};
  const auto end =
      static_cast<std::uint32_t>(seg->hdr.seq + seg->payload.size());
  auto [it, fresh] = highest_seq_end_.emplace(key, end);
  if (fresh) return;
  if (end <= it->second) {
    ++tcp_retransmits_;
  } else {
    it->second = end;
  }
}

std::vector<Metric> Tracer::finish(Outcome& out, double traced_wall_s) {
  Network& net = w_.net();
  const SimProfile& prof = net.sim().profile();
  const auto reg = telemetry::MetricsRegistry::global().snapshot();
  std::vector<Metric> m;
  const auto add = [&m](std::string name, std::string unit, double v,
                        std::string base = "") {
    m.push_back(Metric{std::move(name), std::move(unit), v, std::move(base)});
  };
  const auto of = [](std::uint64_t n, const char* what) {
    return "of " + std::to_string(n) + " " + what;
  };

  // --- util -----------------------------------------------------------------
  add("util.sim.events", "count", static_cast<double>(out.events));
  add("util.sim.heap_peak", "count", static_cast<double>(out.heap_peak));

  // --- netsim ---------------------------------------------------------------
  // Chains and esp-decap run inside the kLink delivery event that hands the
  // packet to the switch; their wrapped time is that event's child time.
  const double link_ns = static_cast<double>(prof[SimCategory::kLink].wall_ns);
  const double link_self_ns =
      link_ns - static_cast<double>(chain_.ns + decap_.ns);
  add("netsim.link.pkts", "count", static_cast<double>(out.link_pkts));
  add("netsim.link.bytes", "B", static_cast<double>(out.link_bytes));
  add("netsim.link.drops", "count", static_cast<double>(out.link_drops));
  add("netsim.link.ns_per_pkt", "ns",
      out.link_pkts == 0
          ? 0.0
          : link_self_ns / static_cast<double>(out.link_pkts),
      "per delivery");
  add("netsim.router.route_ns", "ns", ns_per_op(route_dsts_.size(), [&] {
        std::uint64_t acc = 0;
        for (const auto& [router, dst] : route_dsts_) {
          acc += static_cast<std::uint64_t>(router->route_for(dst));
        }
        g_sink = g_sink + acc;
      }), of(route_dsts_.size(), "captured") + " " +
              of(route_seen_, "router deliveries"));

  // --- sdn ------------------------------------------------------------------
  std::size_t rules = 0;
  std::map<const SdnSwitch*, FlowTable> table0;
  for (SdnSwitch* sw : hooks_.switches) {
    for (int t = 0; t < sw->table_count(); ++t) rules += sw->table(t).size();
    table0.emplace(sw, sw->table(0));
  }
  const std::uint64_t hits = reg.counter_total("sdn.flow_table.hits");
  const std::uint64_t misses = reg.counter_total("sdn.flow_table.misses");
  add("sdn.switch.pkts_in", "count",
      static_cast<double>(reg.counter_total("sdn.switch.packets_in")));
  add("sdn.flow_table.rules", "count", static_cast<double>(rules));
  add("sdn.flow_table.hit_ratio", "ratio", ratio(hits, hits + misses),
      of(hits + misses, "lookups"));
  // Replayed against copies of the live tables: lookup() bumps counters.
  add("sdn.flow_table.lookup_ns", "ns", ns_per_op(ingress_.size(), [&] {
        std::uint64_t acc = 0;
        for (const Ingress& in : ingress_) {
          acc += table0.at(in.sw).lookup(in.pkt, in.in_port) != nullptr;
        }
        g_sink = g_sink + acc;
      }), of(ingress_.size(), "captured switch-ingress packets"));
  {
    // Rule install: every compiled rule of one deploy added to a copy of
    // the live table it lands in, per deploy.
    constexpr std::size_t kInstalls = 16;
    std::vector<CompiledPvnc> compiled;
    for (const auto& [p, ctx] : hooks_.deploys) {
      if (compiled.size() == kInstalls) break;
      compiled.push_back(compile_pvnc(p, ctx));
    }
    SdnSwitch* sw = hooks_.install_switch;
    double timed_ns = 0.0;
    std::uint64_t installs = 0;
    while (timed_ns < kMinReplayNs) {
      std::vector<FlowTable> tables;
      for (int t = 0; t < sw->table_count(); ++t) tables.push_back(sw->table(t));
      const auto t0 = Clock::now();
      for (const CompiledPvnc& c : compiled) {
        for (const auto& [table, rule] : c.rules) {
          tables[static_cast<std::size_t>(table)].add(rule);
        }
      }
      timed_ns += since_ns(t0);
      installs += compiled.size();
    }
    add("sdn.controller.install_us", "us",
        timed_ns / 1e3 / static_cast<double>(installs), "per deploy");
  }

  // --- mbox -----------------------------------------------------------------
  const std::uint64_t chain_pkts = reg.counter_total("mbox.chain.packets");
  add("mbox.chain.pkts", "count", static_cast<double>(chain_pkts));
  double chain_ns = chain_.pkts == 0 ? 0.0
                                     : static_cast<double>(chain_.ns) /
                                           static_cast<double>(chain_.pkts);
  std::vector<Packet> probes;
  if (chain_.pkts == 0 || decap_.pkts == 0 || esp_.empty() || segments_.empty()) {
    probes = probe_packets(rng_);
  }
  if (chain_.pkts == 0) {
    // No packet crossed a chain: time the probe set through a live one.
    // The outcome counters were read above, so this cannot hide traffic.
    if (Chain* chain = w_.any_chain()) {
      chain_ns = ns_per_op(probes.size(), [&] {
        for (const Packet& p : probes) {
          SimDuration delay = 0;
          g_sink = g_sink + chain->process(p, net.sim().now(), delay).size();
        }
      });
    }
  }
  add("mbox.chain.ns_per_pkt", "ns", chain_ns,
      chain_.pkts == 0 ? of(probes.size(), "probe packets")
                       : of(chain_.pkts, "chain packets"));
  add("mbox.chain.drop_ratio", "ratio",
      ratio(reg.counter_total("mbox.chain.dropped"), chain_pkts),
      of(chain_pkts, "chain packets"));
  add("mbox.host.instantiations", "count",
      static_cast<double>(reg.counter_total("mbox.host.instantiations")));

  // --- tunnel ---------------------------------------------------------------
  // ESP packets put on the wire: switch encapsulations plus the gateway's.
  const std::uint64_t esp_pkts =
      reg.counter_total("sdn.switch.tunneled") +
      reg.counter_total("tunnel.gateway.reencapsulated");
  add("tunnel.esp.pkts", "count", static_cast<double>(esp_pkts));
  {
    // Encapsulation is replayed on captured ESP traffic: each packet's
    // inner packet is encapsulated again with its own outer addresses and
    // SPI (SdnSwitch does not expose its encap hook for wrapping). A
    // workload without ESP traffic replays the probe set instead.
    struct Encap {
      Packet inner;
      Ipv4Addr src, dst;
      std::uint32_t spi = 0;
    };
    const Bytes key = Testbed::tunnel_key();
    std::vector<Encap> encaps;
    for (const Packet& p : esp_) {
      auto inner = esp_decap(p, key);
      const auto spi = esp_peek_spi(p);
      if (inner && spi) {
        encaps.push_back({std::move(*inner), p.ip.src, p.ip.dst, *spi});
      }
    }
    const bool captured = !encaps.empty();
    if (!captured) {
      for (const Packet& p : probes) {
        encaps.push_back({p, p.ip.src, p.ip.dst, 1});
      }
    }
    std::uint32_t seq = 0;
    add("tunnel.esp.encap_ns", "ns", ns_per_op(encaps.size(), [&] {
          for (const Encap& e : encaps) {
            g_sink = g_sink +
                     esp_encap(e.inner, e.src, e.dst, key, e.spi, ++seq).size();
          }
        }),
        of(encaps.size(), captured ? "captured ESP packets" : "probe packets"));
    double decap_ns = decap_.pkts == 0 ? 0.0
                                       : static_cast<double>(decap_.ns) /
                                             static_cast<double>(decap_.pkts);
    if (decap_.pkts == 0) {
      std::vector<Packet> outers;
      for (const Encap& e : encaps) {
        outers.push_back(esp_encap(e.inner, e.src, e.dst, key, e.spi, ++seq));
      }
      decap_ns = ns_per_op(outers.size(), [&] {
        for (const Packet& p : outers) {
          g_sink = g_sink + esp_decap(p, key).has_value();
        }
      });
    }
    add("tunnel.esp.decap_ns", "ns", decap_ns,
        decap_.pkts == 0 ? of(encaps.size(), "probe packets")
                         : of(decap_.pkts, "decapsulated packets"));
  }
  add("tunnel.auth_failures", "count", static_cast<double>(out.auth_failures));

  // --- proto ----------------------------------------------------------------
  add("proto.tcp.segments", "count", static_cast<double>(tcp_segments_),
      "on device access links");
  add("proto.tcp.retransmit_ratio", "ratio",
      ratio(tcp_retransmits_, tcp_data_segments_),
      of(tcp_data_segments_, "data segments"));
  {
    std::vector<Bytes> corpus = segments_;
    if (corpus.empty()) {
      for (const Packet& p : probes) corpus.push_back(p.l4.get());
    }
    add("proto.tcp.codec_ns", "ns", ns_per_op(corpus.size(), [&] {
          std::uint64_t acc = 0;
          for (const Bytes& l4 : corpus) {
            const auto seg = parse_tcp(l4);
            if (seg) acc += serialize_tcp(seg->hdr, seg->payload).size();
          }
          g_sink = g_sink + acc;
        }),
        segments_.empty() ? of(corpus.size(), "probe segments")
                          : of(corpus.size(), "captured segments"));
  }
  add("proto.dns.queries", "count", static_cast<double>(out.dns_queries));

  // --- pvn ------------------------------------------------------------------
  {
    std::vector<std::string> texts;
    for (const auto& [p, ctx] : hooks_.deploys) {
      texts.push_back(format_pvnc(p));
      const auto parsed = parse_pvnc(texts.back());
      if (!std::holds_alternative<Pvnc>(parsed) ||
          std::get<Pvnc>(parsed) != p) {
        out.errors.push_back("parse_pvnc(format_pvnc(p)) != p for " + p.name);
      }
    }
    add("pvn.parse_us", "us", ns_per_op(texts.size(), [&] {
          for (const std::string& t : texts) {
            g_sink = g_sink + parse_pvnc(t).index();
          }
        }) / 1e3, of(texts.size(), "PVNC texts"));
    add("pvn.compile_us", "us", ns_per_op(hooks_.deploys.size(), [&] {
          for (const auto& [p, ctx] : hooks_.deploys) {
            g_sink = g_sink + compile_pvnc(p, ctx).rules.size();
          }
        }) / 1e3, of(hooks_.deploys.size(), "PVNCs"));
  }
  const SimProfile::Entry& ctl = prof[SimCategory::kPvnControl];
  add("pvn.control.ns_per_event", "ns",
      ctl.events == 0 ? 0.0
                      : static_cast<double>(ctl.wall_ns) /
                            static_cast<double>(ctl.events),
      of(ctl.events, "kPvnControl events"));
  add("pvn.server.deploys", "count", static_cast<double>(out.server_deploys));
  add("pvn.server.leases_renewed", "count",
      static_cast<double>(out.leases_renewed));
  add("pvn.server.nacks", "count", static_cast<double>(out.nacks));
  add("pvn.client.retransmissions", "count",
      static_cast<double>(out.client_retransmissions));

  for (const std::string& name : hooks_.bypassed) {
    for (const Metric& metric : m) {
      if (metric.name == name && metric.value != 0.0) {
        out.errors.push_back("bypass: " + name + " = " +
                             std::to_string(metric.value) +
                             " on a workload that claims to leave it idle");
      }
    }
  }

  // --- reconciliation -------------------------------------------------------
  const auto ms = [](double ns) { return ns / 1e6; };
  const auto cat = [&](SimCategory c) {
    return static_cast<double>(prof[c].wall_ns);
  };
  self_times_ = {
      {"netsim.link (delivery, switch pipeline, hosts)", ms(link_self_ns)},
      {"mbox.chain", ms(static_cast<double>(chain_.ns))},
      {"tunnel.esp_decap", ms(static_cast<double>(decap_.ns))},
      {"mbox.continuation (post-chain actions, ESP encap)",
       ms(cat(SimCategory::kMbox))},
      {"sdn.switch (pipeline-latency events)", ms(cat(SimCategory::kSwitch))},
      {"pvn.control (timers)", ms(cat(SimCategory::kPvnControl))},
      {"proto (timers)", ms(cat(SimCategory::kProto))},
      {"tunnel (timers)", ms(cat(SimCategory::kTunnel))},
      {"workload (scheduled starts)",
       ms(cat(SimCategory::kWorkload) + cat(SimCategory::kOther) +
          cat(SimCategory::kFault))},
  };
  const double total_ms = traced_wall_s * 1e3;
  double attributed_ms = 0.0;
  for (const SelfTime& s : self_times_) attributed_ms += s.ms;
  self_times_.push_back({"unattributed (event kernel)", total_ms - attributed_ms});
  const double unattributed = (total_ms - attributed_ms) / total_ms;
  add("telemetry.unattributed_pct", "%", 100.0 * unattributed,
      "of the traced wall time");
  if (link_self_ns < 0.0 || unattributed < 0.0 ||
      unattributed > kUnattributedTolerance) {
    out.errors.push_back(
        "reconciliation: layers account for " + std::to_string(attributed_ms) +
        " ms of the traced " + std::to_string(total_ms) + " ms");
  }
  return m;
}

}  // namespace pvnbench
