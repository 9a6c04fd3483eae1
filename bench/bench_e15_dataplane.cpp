// E15 — Dataplane viability microbenchmarks (google-benchmark + JSON).
//
// Claim (paper §3.3): PVN overhead must be "negligible relative to non-PVN
// connections" even with per-subscriber rules and chains. We measure the
// host-CPU cost of the mechanisms the per-packet path exercises: flow-table
// lookup vs table size (two-level hashed index vs the linear-scan baseline),
// flow-table add/remove churn between lookups, middlebox chain traversal vs
// chain length, simulator event throughput, meter conformance, the codec
// round-trips on the wire path, and how a host's connect cost scales with
// the connections it has opened.
//
// Besides the google-benchmark tables, the binary always emits a
// machine-readable BENCH_dataplane.json summary (override the path with
// PVN_BENCH_JSON) so the perf trajectory is recorded per commit. Quick mode
// (PVN_BENCH_QUICK=1 or --quick) shrinks iteration counts and skips the
// google-benchmark run — that is what the CI perf job uses.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "mbox/host.h"
#include "mbox/inline_modules.h"
#include "netsim/router.h"
#include "proto/http.h"
#include "sdn/flow_table.h"
#include "sdn/switch.h"
#include "tunnel/esp.h"

using namespace pvn;

namespace {

// --- shared workload builders -------------------------------------------------

Packet make_udp_packet(Network& net, std::uint32_t salt = 0) {
  UdpHeader hdr;
  hdr.src_port = static_cast<Port>(40000 + salt % 1000);
  hdr.dst_port = 80;
  return net.make_packet(Ipv4Addr(10, 0, 0, 2 + (salt % 100)),
                         Ipv4Addr(93, 184, 216, 34), IpProto::kUdp,
                         serialize_udp(hdr, Bytes(1200, 0x5A)));
}

Ipv4Addr subscriber_dst(int i) {
  return Ipv4Addr(172, 16, static_cast<std::uint8_t>((i / 256) % 256),
                  static_cast<std::uint8_t>(i % 256));
}

// Installs `rules` per-subscriber exact-match rules plus a low-priority
// catch-all — the shape a PVN deployment compiles to (one /32 per device).
template <typename Table>
void fill_subscriber_rules(Table& table, int rules) {
  for (int i = 0; i < rules; ++i) {
    FlowRule rule;
    rule.priority = 100;
    rule.match.dst = Prefix{subscriber_dst(i), 32};
    rule.actions.push_back(ActOutput{1});
    table.add(rule);
  }
  FlowRule catchall;
  catchall.priority = 1;
  catchall.actions.push_back(ActOutput{1});
  table.add(catchall);
}

// Packets cycling over installed subscriber addresses (hash-path hits).
std::vector<Packet> subscriber_packets(Network& net, int rules,
                                       std::size_t count = 256) {
  std::vector<Packet> pool;
  pool.reserve(count);
  for (std::size_t p = 0; p < count; ++p) {
    Packet pkt = make_udp_packet(net, static_cast<std::uint32_t>(p));
    pkt.ip.dst = subscriber_dst(static_cast<int>(p * 97 % rules));
    pool.push_back(std::move(pkt));
  }
  return pool;
}

// The pre-index FlowTable: one sorted vector, linear scan per lookup. Kept
// here as the before/after baseline the JSON summary reports against.
class LinearFlowTable {
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

  const FlowRule* lookup(const Packet& pkt, int in_port) const {
    for (const FlowRule& rule : rules_) {
      if (rule.match.matches(pkt, in_port)) {
        ++rule.hit_packets;
        rule.hit_bytes += pkt.size();
        return &rule;
      }
    }
    return nullptr;
  }

 private:
  std::vector<FlowRule> rules_;
};

// --- google-benchmark microbenches --------------------------------------------

void BM_FlowTableLookup(benchmark::State& state) {
  const int rules = static_cast<int>(state.range(0));
  Network net;
  FlowTable table;
  fill_subscriber_rules(table, rules);
  const std::vector<Packet> pool = subscriber_packets(net, rules);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(pool[i++ % pool.size()], 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlowTableLookup)->Arg(1)->Arg(10)->Arg(100)->Arg(1000)->Arg(4096);

void BM_FlowTableLookupLinear(benchmark::State& state) {
  const int rules = static_cast<int>(state.range(0));
  Network net;
  LinearFlowTable table;
  fill_subscriber_rules(table, rules);
  const std::vector<Packet> pool = subscriber_packets(net, rules);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(pool[i++ % pool.size()], 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlowTableLookupLinear)->Arg(1)->Arg(10)->Arg(100)->Arg(1000)->Arg(4096);

void BM_ChainTraversal(benchmark::State& state) {
  const int len = static_cast<int>(state.range(0));
  Simulator sim;
  MboxHost host(sim);
  Chain& chain = host.create_chain("bench");
  std::vector<std::unique_ptr<Middlebox>> modules;
  for (int i = 0; i < len; ++i) {
    modules.push_back(std::make_unique<PiiDetector>(
        std::vector<std::string>{"imei=", "password=", "lat="},
        PiiAction::kMonitor));
    chain.append(modules.back().get());
  }
  Network net;
  std::uint32_t salt = 0;
  for (auto _ : state) {
    SimDuration delay = 0;
    Packet pkt = make_udp_packet(net, salt++);
    benchmark::DoNotOptimize(chain.process(std::move(pkt), 0, delay));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChainTraversal)->Arg(1)->Arg(2)->Arg(4)->Arg(5)->Arg(8);

void BM_SimEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    struct Tick {
      Simulator* sim;
      int* remaining;
      void operator()() const {
        if (--*remaining > 0) sim->schedule_after(1, *this);
      }
    };
    int remaining = 10000;
    for (int i = 0; i < 64; ++i) sim.schedule_after(1, Tick{&sim, &remaining});
    state.ResumeTiming();
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimEventThroughput);

void BM_MeterConformance(benchmark::State& state) {
  Meter meter(Rate::mbps(100), 1 << 20);
  SimTime now = 0;
  for (auto _ : state) {
    now += 100;  // 100 ns between packets
    benchmark::DoNotOptimize(meter.conforms(1200, now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MeterConformance);

void BM_EspEncapDecap(benchmark::State& state) {
  Network net;
  const Bytes key = to_bytes("bench-key");
  const Packet inner = make_udp_packet(net);
  std::uint32_t seq = 0;
  for (auto _ : state) {
    Packet outer = esp_encap(inner, Ipv4Addr(10, 0, 0, 1),
                             Ipv4Addr(203, 0, 113, 5), key, 1, ++seq);
    benchmark::DoNotOptimize(esp_decap(outer, key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EspEncapDecap);

void BM_TcpHeaderCodec(benchmark::State& state) {
  TcpHeader hdr;
  hdr.src_port = 443;
  hdr.dst_port = 51234;
  hdr.seq = 123456;
  hdr.ack = 654321;
  hdr.flags = kTcpAck;
  hdr.sacks = {{1000, 2000}, {3000, 4000}};
  for (auto _ : state) {
    ByteWriter w;
    hdr.encode(w);
    ByteReader r(w.bytes());
    benchmark::DoNotOptimize(TcpHeader::decode(r));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TcpHeaderCodec);

// --- JSON summary (the BENCH_dataplane.json perf trajectory) -------------------

double seconds_of(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

template <typename Body>
double rate_per_sec(std::size_t iters, Body&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) body(i);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = seconds_of(t1 - t0);
  return secs > 0 ? static_cast<double>(iters) / secs : 0.0;
}

struct FlowTableSample {
  int rules;
  double hashed_per_sec;
  double linear_per_sec;
  double speedup;
};

FlowTableSample measure_flow_table(int rules, bool quick) {
  Network net;
  FlowTable hashed;
  LinearFlowTable linear;
  fill_subscriber_rules(hashed, rules);
  fill_subscriber_rules(linear, rules);
  const std::vector<Packet> pool = subscriber_packets(net, rules);

  const std::size_t hashed_iters = quick ? 20000 : 400000;
  // The linear baseline is O(rules) per lookup; keep total work bounded.
  const std::size_t linear_iters =
      std::max<std::size_t>(quick ? 500 : 2000, (quick ? 400000u : 4000000u) /
                                                    static_cast<unsigned>(rules));

  FlowTableSample s;
  s.rules = rules;
  s.hashed_per_sec = rate_per_sec(hashed_iters, [&](std::size_t i) {
    benchmark::DoNotOptimize(hashed.lookup(pool[i % pool.size()], 0));
  });
  s.linear_per_sec = rate_per_sec(linear_iters, [&](std::size_t i) {
    benchmark::DoNotOptimize(linear.lookup(pool[i % pool.size()], 0));
  });
  s.speedup = s.linear_per_sec > 0 ? s.hashed_per_sec / s.linear_per_sec : 0.0;
  return s;
}

// Control-plane churn on a live 4096-rule subscriber table, the fleet_churn
// pattern: each cycle installs a rule under a new cookie, looks a packet up,
// tears the oldest cookie down and looks up again. kLive churned cookies
// stay installed throughout, so every timed cycle removes one. Times whole
// batches until the minimum run time has passed (100 ms quick, 1 s full).
double measure_flow_table_churn_per_sec(bool quick) {
  constexpr int kRules = 4096;
  constexpr std::size_t kLive = 64;
  constexpr std::size_t kBatch = 256;
  Network net;
  FlowTable table;
  fill_subscriber_rules(table, kRules);
  const std::vector<Packet> pool = subscriber_packets(net, kRules);
  const auto cookie = [](std::size_t n) { return "sub:" + std::to_string(n); };
  const auto install = [&](std::size_t n) {
    FlowRule rule;
    rule.priority = 100;
    rule.match.dst =
        Prefix{subscriber_dst(kRules + static_cast<int>(n % kRules)), 32};
    rule.cookie = cookie(n);
    rule.actions.push_back(ActOutput{1});
    table.add(std::move(rule));
  };
  for (std::size_t n = 0; n < kLive; ++n) install(n);

  const auto min_run = std::chrono::milliseconds(quick ? 100 : 1000);
  std::size_t cycles = 0;
  const auto t0 = std::chrono::steady_clock::now();
  std::chrono::steady_clock::duration elapsed{};
  do {
    for (std::size_t i = 0; i < kBatch; ++i, ++cycles) {
      install(kLive + cycles);
      benchmark::DoNotOptimize(
          table.lookup(pool[(2 * cycles) % pool.size()], 0));
      table.remove_by_cookie(cookie(cycles));
      benchmark::DoNotOptimize(
          table.lookup(pool[(2 * cycles + 1) % pool.size()], 0));
    }
    elapsed = std::chrono::steady_clock::now() - t0;
  } while (elapsed < min_run);
  return static_cast<double>(cycles) / seconds_of(elapsed);
}

double measure_chain_packets_per_sec(int modules_count, bool quick) {
  Simulator sim;
  MboxHost host(sim);
  Chain& chain = host.create_chain("bench");
  std::vector<std::unique_ptr<Middlebox>> modules;
  for (int i = 0; i < modules_count; ++i) {
    modules.push_back(std::make_unique<PiiDetector>(
        std::vector<std::string>{"imei=", "password=", "lat="},
        PiiAction::kMonitor));
    chain.append(modules.back().get());
  }
  Network net;
  std::vector<Packet> pool;
  for (std::uint32_t p = 0; p < 64; ++p) pool.push_back(make_udp_packet(net, p));
  return rate_per_sec(quick ? 5000 : 100000, [&](std::size_t i) {
    SimDuration delay = 0;
    Packet pkt = pool[i % pool.size()];  // CoW copy: shares the payload
    benchmark::DoNotOptimize(chain.process(std::move(pkt), 0, delay));
  });
}

// --- parallel sharded scenario ------------------------------------------------
//
// The end-to-end dataplane: K access networks (source -> SdnSwitch+chain ->
// sink), one per shard, joined by a shard-0 core router. 90% of flows stay
// local, 10% cross the core. Send times are globally unique so cross-shard
// arrival order is a pure function of the schedule — the run digest must be
// identical for every shard count (the determinism gate).

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}

class BenchSink : public Node {
 public:
  BenchSink(Network& net, std::string name) : Node(net, std::move(name)) {}
  void handle_packet(Packet pkt, int) override {
    const int flow = pkt.l4[0] | (pkt.l4[1] << 8);
    const int seq = pkt.l4[2] | (pkt.l4[3] << 8);
    per_flow[flow].push_back(seq);
    ++delivered;
  }
  std::map<int, std::vector<int>> per_flow;
  std::uint64_t delivered = 0;
};

// Per-flow self-retriggering sender: one pending event per flow, globally
// unique send slots (slot grid = 2us * flow count).
class BenchSource : public Node {
 public:
  BenchSource(Network& net, std::string name) : Node(net, std::move(name)) {}
  void handle_packet(Packet, int) override {}

  void start_flow(Network& net, int flow, int total_flows, int packets,
                  Ipv4Addr src, Ipv4Addr dst) {
    const SimDuration spacing = total_flows * microseconds(2);
    const SimTime first = milliseconds(1) + flow * microseconds(2);
    schedule_send(net, flow, 0, packets, src, dst, first, spacing);
  }

 private:
  void schedule_send(Network& net, int flow, int seq, int total, Ipv4Addr src,
                     Ipv4Addr dst, SimTime at, SimDuration spacing) {
    sim().schedule_at(at, SimCategory::kWorkload, [=, &net, this] {
      Bytes payload(256, 0x5A);
      payload[0] = static_cast<std::uint8_t>(flow & 0xFF);
      payload[1] = static_cast<std::uint8_t>(flow >> 8);
      payload[2] = static_cast<std::uint8_t>(seq & 0xFF);
      payload[3] = static_cast<std::uint8_t>(seq >> 8);
      send(0, net.make_packet(src, dst, IpProto::kUdp, std::move(payload)));
      if (seq + 1 < total) {
        schedule_send(net, flow, seq + 1, total, src, dst, at + spacing,
                      spacing);
      }
    });
  }
};

struct ParallelScenario {
  static constexpr int kNetworks = 4;

  ParallelScenario(std::size_t shards, int flows, int packets_per_flow)
      : net(/*seed=*/7, shards, /*lookahead=*/milliseconds(1)) {
    net.set_burst_window(microseconds(50));
    net.set_build_shard(0);
    core = &net.add_node<Router>("core");

    LinkParams access;
    access.rate = Rate::gbps(10);
    access.latency = microseconds(10);
    LinkParams backbone;
    backbone.rate = Rate::gbps(10);
    backbone.latency = milliseconds(1);

    for (int k = 0; k < kNetworks; ++k) {
      net.set_build_shard(static_cast<std::size_t>(k) % net.shard_count());
      const std::string id = std::to_string(k);
      auto& src = net.add_node<BenchSource>("src-" + id);
      auto& sw = net.add_node<SdnSwitch>("sw-" + id, 1);
      auto& sink = net.add_node<BenchSink>("sink-" + id);
      net.connect(src, sw, access);
      net.connect(sw, sink, access);
      net.connect(sw, *core, backbone);

      auto host = std::make_unique<MboxHost>(
          net.shards().shard(static_cast<std::size_t>(k) % net.shard_count()));
      Chain& chain = host->create_chain("chain-" + id);
      for (int m = 0; m < 5; ++m) {
        modules.push_back(std::make_unique<PiiDetector>(
            std::vector<std::string>{"imei=", "password=", "lat="},
            PiiAction::kMonitor));
        chain.append(modules.back().get());
      }
      sw.register_processor("chain-" + id, &chain);
      hosts.push_back(std::move(host));

      FlowRule local;
      local.priority = 100;
      local.match.dst =
          Prefix{Ipv4Addr(10, static_cast<std::uint8_t>(k), 0, 0), 16};
      local.actions.push_back(ActMbox{"chain-" + id});
      local.actions.push_back(ActOutput{1});
      sw.table(0).add(local);
      FlowRule remote;
      remote.priority = 1;
      remote.actions.push_back(ActOutput{2});
      sw.table(0).add(remote);
      core->add_route(
          Prefix{Ipv4Addr(10, static_cast<std::uint8_t>(k), 0, 0), 16}, k);

      sources.push_back(&src);
      sinks.push_back(&sink);
    }

    for (int f = 0; f < flows; ++f) {
      const int k = f % kNetworks;
      const Ipv4Addr from(10, static_cast<std::uint8_t>(k), 0, 2);
      // Every 10th flow crosses the core to the next network over.
      const int dst_net = (f % 10 == 0) ? (k + 1) % kNetworks : k;
      const Ipv4Addr to(10, static_cast<std::uint8_t>(dst_net), 0, 50);
      sources[static_cast<std::size_t>(k)]->start_flow(net, f, flows,
                                                       packets_per_flow, from,
                                                       to);
    }
  }

  std::uint64_t digest() const {
    std::uint64_t h = 1469598103934665603ull;
    for (const BenchSink* sink : sinks) {
      for (const auto& [flow, seqs] : sink->per_flow) {
        h = fnv1a(h, static_cast<std::uint64_t>(flow));
        for (const int s : seqs) h = fnv1a(h, static_cast<std::uint64_t>(s));
      }
    }
    return fnv1a(h, delivered());
  }
  std::uint64_t delivered() const {
    std::uint64_t n = 0;
    for (const BenchSink* sink : sinks) n += sink->delivered;
    return n;
  }

  Network net;
  Router* core = nullptr;
  std::vector<BenchSource*> sources;
  std::vector<BenchSink*> sinks;
  std::vector<std::unique_ptr<MboxHost>> hosts;
  std::vector<std::unique_ptr<Middlebox>> modules;
};

struct ParallelSample {
  std::size_t shards;
  double wall_sec;
  std::size_t events;
  double events_per_sec;
  std::uint64_t delivered;
  std::uint64_t digest;
};

ParallelSample run_parallel_scenario(std::size_t shards, bool quick) {
  const int flows = 32;
  const int packets_per_flow = quick ? 150 : 1500;
  ParallelScenario sc(shards, flows, packets_per_flow);
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t events = sc.net.run_parallel();
  const auto t1 = std::chrono::steady_clock::now();
  ParallelSample s;
  s.shards = shards;
  s.wall_sec = seconds_of(t1 - t0);
  s.events = events;
  s.events_per_sec =
      s.wall_sec > 0 ? static_cast<double>(events) / s.wall_sec : 0.0;
  s.delivered = sc.delivered();
  s.digest = sc.digest();
  return s;
}

double measure_sim_events_per_sec(bool quick) {
  Simulator sim;
  struct Tick {
    Simulator* sim;
    long* remaining;
    void operator()() const {
      if (--*remaining > 0) sim->schedule_after(1, *this);
    }
  };
  long remaining = quick ? 100000 : 2000000;
  const long total = remaining;
  for (int i = 0; i < 64; ++i) sim.schedule_after(1, Tick{&sim, &remaining});
  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  return static_cast<double>(total) / seconds_of(t1 - t0);
}

double measure_esp_roundtrips_per_sec(bool quick) {
  Network net;
  const Bytes key = to_bytes("bench-key");
  const Packet inner = make_udp_packet(net);
  return rate_per_sec(quick ? 20000 : 50000, [&](std::size_t i) {
    Packet outer = esp_encap(inner, Ipv4Addr(10, 0, 0, 1),
                             Ipv4Addr(203, 0, 113, 5), key, 1,
                             static_cast<std::uint32_t>(i + 1));
    benchmark::DoNotOptimize(esp_decap(outer, key));
  });
}

// Connection scaling: one HttpClient makes 8000 sequential 20 KB fetches,
// one started every 10 ms, across a 1 Gbit/s, 1 ms dumbbell. The sim run is
// cut into run_until slices at fetch starts; the ratio is the host time of
// the slice holding fetches 1-1000 over that of fetches 7001-8000. If a
// connect costs more the more connections the host has ever opened, the
// ratio falls well below 1. One ~40 ms slice is at the mercy of host noise,
// so the sample is the median of three runs.
struct FetchScalingSample {
  double ratio = 0;
  double first_slice_per_sec = 0;
  int ok = 0;  // fetches that succeeded in the median run
};

FetchScalingSample run_http_fetch_slices() {
  constexpr int kFetches = 8000;
  constexpr int kSlice = 1000;
  constexpr SimDuration kGap = milliseconds(10);
  LinkParams lp;
  lp.rate = Rate::gbps(1);
  lp.latency = milliseconds(1);
  Network net;
  Host& client = net.add_node<Host>("client", Ipv4Addr(10, 0, 0, 2));
  Host& server = net.add_node<Host>("server", Ipv4Addr(93, 184, 216, 34));
  Router& router = net.add_node<Router>("router");
  net.connect(client, router, lp);
  net.connect(router, server, lp);
  router.add_route(*Prefix::parse("10.0.0.0/8"), 0);
  router.add_route(*Prefix::parse("0.0.0.0/0"), 1);
  HttpServer http_server(server);
  HttpClient http(client);

  FetchScalingSample s;
  int started = 0;
  std::function<void()> start = [&] {
    http.fetch(server.addr(), 80, "/bytes/20000",
               [&s](const HttpResponse&, const FetchTiming& t) {
                 s.ok += t.ok ? 1 : 0;
               });
    if (++started < kFetches) {
      net.sim().schedule_after(kGap, SimCategory::kWorkload, start);
    }
  };
  net.sim().schedule_at(0, SimCategory::kWorkload, start);
  const auto slice = [&](SimTime until) {
    const auto t0 = std::chrono::steady_clock::now();
    net.sim().run_until(until);
    return seconds_of(std::chrono::steady_clock::now() - t0);
  };
  const double first = slice(kGap * kSlice);
  slice(kGap * (kFetches - kSlice));
  const double last = slice(kGap * kFetches);
  net.sim().run();
  s.ratio = last > 0 ? first / last : 0.0;
  s.first_slice_per_sec = first > 0 ? kSlice / first : 0.0;
  return s;
}

FetchScalingSample measure_http_fetch_scaling() {
  std::vector<FetchScalingSample> runs;
  for (int i = 0; i < 3; ++i) runs.push_back(run_http_fetch_slices());
  std::sort(runs.begin(), runs.end(),
            [](const FetchScalingSample& a, const FetchScalingSample& b) {
              return a.ratio < b.ratio;
            });
  return runs[1];
}

// Returns false on a determinism-gate failure (the caller exits nonzero).
bool write_json_summary(const char* path, bool quick, std::size_t shards) {
  const int kSizes[] = {16, 256, 1024, 4096};
  std::vector<FlowTableSample> samples;
  for (const int n : kSizes) samples.push_back(measure_flow_table(n, quick));
  const double churn = measure_flow_table_churn_per_sec(quick);
  const double chain5 = measure_chain_packets_per_sec(5, quick);
  const double events = measure_sim_events_per_sec(quick);
  const double esp = measure_esp_roundtrips_per_sec(quick);
  const FetchScalingSample fetch = measure_http_fetch_scaling();

  // Parallel scenario: 1 shard (the baseline + determinism reference), then
  // the requested shard count.
  std::vector<ParallelSample> par;
  par.push_back(run_parallel_scenario(1, quick));
  if (shards > 1) par.push_back(run_parallel_scenario(shards, quick));
  // Digest + delivered must match exactly. Raw event counts are NOT compared:
  // the cross-shard burst path uses one extra flush event per burst, so the
  // event count differs structurally (not nondeterministically) with layout.
  const bool deterministic =
      par.size() < 2 || (par[0].digest == par[1].digest &&
                         par[0].delivered == par[1].delivered);
  const double speedup =
      par.size() >= 2 && par[0].events_per_sec > 0
          ? par[1].events_per_sec / par[0].events_per_sec
          : 1.0;
  const unsigned hw = std::thread::hardware_concurrency();

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return deterministic;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"e15_dataplane\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"flow_table\": [\n");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const FlowTableSample& s = samples[i];
    std::fprintf(f,
                 "    {\"rules\": %d, \"hashed_lookups_per_sec\": %.0f, "
                 "\"linear_lookups_per_sec\": %.0f, \"speedup\": %.2f}%s\n",
                 s.rules, s.hashed_per_sec, s.linear_per_sec, s.speedup,
                 i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"flow_table_churn_per_sec\": %.0f,\n", churn);
  std::fprintf(f, "  \"chain5_packets_per_sec\": %.0f,\n", chain5);
  std::fprintf(f, "  \"sim_events_per_sec\": %.0f,\n", events);
  std::fprintf(f, "  \"esp_roundtrips_per_sec\": %.0f,\n", esp);
  std::fprintf(f, "  \"http_fetch_scaling\": %.3f,\n", fetch.ratio);
  std::fprintf(f, "  \"http_fetch_first_slice_per_sec\": %.0f,\n",
               fetch.first_slice_per_sec);
  std::fprintf(f, "  \"parallel\": {\n");
  std::fprintf(f, "    \"hardware_concurrency\": %u,\n", hw);
  std::fprintf(f, "    \"burst_window_us\": 50,\n");
  std::fprintf(f, "    \"runs\": [\n");
  for (std::size_t i = 0; i < par.size(); ++i) {
    const ParallelSample& s = par[i];
    std::fprintf(f,
                 "      {\"shards\": %zu, \"events\": %zu, \"wall_sec\": %.4f, "
                 "\"events_per_sec\": %.0f, \"delivered\": %llu, "
                 "\"digest\": \"%016llx\"}%s\n",
                 s.shards, s.events, s.wall_sec, s.events_per_sec,
                 static_cast<unsigned long long>(s.delivered),
                 static_cast<unsigned long long>(s.digest),
                 i + 1 < par.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f, "    \"speedup\": %.2f,\n", speedup);
  std::fprintf(f, "    \"deterministic\": %s\n",
               deterministic ? "true" : "false");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);

  std::printf("\n=== E15 dataplane summary (%s) ===\n",
              quick ? "quick" : "full");
  for (const FlowTableSample& s : samples) {
    std::printf("flow_table %5d rules: hashed %12.0f /s   linear %12.0f /s   "
                "speedup %6.2fx\n",
                s.rules, s.hashed_per_sec, s.linear_per_sec, s.speedup);
  }
  std::printf("flow_table churn:      %12.0f add/lookup/remove/lookup "
              "cycles/s (4096 rules)\n",
              churn);
  std::printf("chain (5 modules):     %12.0f packets/s\n", chain5);
  std::printf("simulator:             %12.0f events/s\n", events);
  std::printf("esp encap+decap:       %12.0f roundtrips/s\n", esp);
  std::printf("http fetch scaling:    %12.3f (host time of fetches 1-1000 / "
              "7001-8000; %d/8000 ok; first slice %.0f fetches/s)\n",
              fetch.ratio, fetch.ok, fetch.first_slice_per_sec);
  for (const ParallelSample& s : par) {
    std::printf("parallel %zu shard(s):   %12.0f events/s  (%zu events, "
                "%llu delivered, digest %016llx)\n",
                s.shards, s.events_per_sec, s.events,
                static_cast<unsigned long long>(s.delivered),
                static_cast<unsigned long long>(s.digest));
  }
  std::printf("parallel speedup:      %.2fx on %u hw threads — %s\n", speedup,
              hw, deterministic ? "deterministic" : "DETERMINISM MISMATCH");
  std::printf("wrote %s\n", path);
  return deterministic;
}

}  // namespace

int main(int argc, char** argv) {
  pvn::bench::TelemetryScope telemetry(argc, argv);
  bool quick = false;
  std::size_t shards = 4;
  const char* env_quick = std::getenv("PVN_BENCH_QUICK");
  if (env_quick != nullptr && std::strcmp(env_quick, "0") != 0) quick = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = static_cast<std::size_t>(std::atoi(argv[i] + 9));
      if (shards == 0) shards = 1;
    }
  }

  if (!quick) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }

  const char* json_path = std::getenv("PVN_BENCH_JSON");
  const bool deterministic = write_json_summary(
      json_path != nullptr ? json_path : "BENCH_dataplane.json", quick, shards);
  if (!deterministic) {
    std::fprintf(stderr,
                 "FAIL: %zu-shard run diverged from the 1-shard reference\n",
                 shards);
    return 1;
  }
  return 0;
}
