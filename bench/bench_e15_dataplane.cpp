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
// PVN_BENCH_JSON) so the perf trajectory is recorded per commit, and exits
// nonzero when a gate fails: determinism across shard counts, the chain,
// ESP, churn and fetch-scaling rates, and the shard speedup. Quick mode
// (PVN_BENCH_QUICK=1 or --quick) shrinks iteration counts and skips the
// google-benchmark run — that is what the CI perf job uses.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "dataplane.h"
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

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
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
  bench::AbResult ab;  // hashed-index lookups/s (B) over the linear scan's (A)
};

FlowTableSample measure_flow_table(int rules, int pairs) {
  Network net;
  FlowTable hashed;
  LinearFlowTable linear;
  fill_subscriber_rules(hashed, rules);
  fill_subscriber_rules(linear, rules);
  const std::vector<Packet> pool = subscriber_packets(net, rules);
  // One run looks up every packet of the pool once.
  const auto lookups = [&pool](const auto& table) {
    return [&pool, &table] {
      const auto t0 = std::chrono::steady_clock::now();
      for (const Packet& pkt : pool) {
        benchmark::DoNotOptimize(table.lookup(pkt, 0));
      }
      return bench::AbSample{static_cast<double>(pool.size()),
                             seconds_of(std::chrono::steady_clock::now() - t0)};
    };
  };
  return {rules, bench::ab_compare(lookups(linear), lookups(hashed), pairs)};
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
    // Named, not a temporary: pushing ActOutput{1} directly draws GCC 12
    // -Wmaybe-uninitialized false positives in Release builds.
    const Action out = ActOutput{1};
    rule.actions.push_back(out);
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

// --- parallel sharded scenario (bench/dataplane.h) ---------------------------

struct ParallelRun {
  std::size_t events = 0;
  std::uint64_t delivered = 0;
  std::uint64_t digest = 0;
};

// One run of the scenario, timed on the wall clock: the shards run on
// threads of their own. Its outcome lands in `out`.
bench::AbSample run_parallel_scenario(std::size_t shards, bool quick,
                                      ParallelRun& out) {
  bench::DataplaneScenario sc(shards, /*flows=*/32, quick ? 150 : 1500,
                              /*with_admin=*/false);
  const auto t0 = std::chrono::steady_clock::now();
  out.events = sc.net.run_parallel();
  const double wall = seconds_of(std::chrono::steady_clock::now() - t0);
  out.delivered = sc.delivered();
  out.digest = sc.digest();
  return {static_cast<double>(out.events), wall};
}

struct ParallelResult {
  ParallelRun one;   // the last 1-shard run
  ParallelRun many;  // the last run at the requested shard count
  bench::AbResult ab;  // N-shard events/s (B) over the 1-shard rate (A)
  // Every run of either side matched the first 1-shard run's digest,
  // delivered count and event count.
  bool deterministic = true;
};

ParallelResult measure_parallel(std::size_t shards, bool quick) {
  ParallelResult r;
  if (shards == 1) {
    // Nothing to compare against: one run, and the speedup is 1.
    const bench::AbSample s = run_parallel_scenario(1, quick, r.one);
    r.ab.base_rate = r.ab.variant_rate = s.work / s.seconds;
    r.ab.ratio = 1.0;
    return r;
  }
  std::optional<ParallelRun> reference;  // ab_compare runs 1 shard first
  const auto timed = [&](std::size_t n, ParallelRun& run) {
    const bench::AbSample s = run_parallel_scenario(n, quick, run);
    if (!reference.has_value()) reference = run;
    r.deterministic = r.deterministic && run.digest == reference->digest &&
                      run.delivered == reference->delivered &&
                      run.events == reference->events;
    return s;
  };
  r.ab = bench::ab_compare([&] { return timed(1, r.one); },
                           [&] { return timed(shards, r.many); },
                           bench::kAbPairs);
  return r;
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

// Prints one failed gate to stderr and returns `ok`.
template <typename... Args>
bool gate(bool ok, const char* fmt, Args... args) {
  if (!ok) {
    std::fflush(stdout);  // keep the FAIL line after the summary it judges
    std::fprintf(stderr, "FAIL: ");
    std::fprintf(stderr, fmt, args...);
    std::fprintf(stderr, "\n");
  }
  return ok;
}

// Measures everything, writes the JSON summary, and checks the gates.
// Returns false when any gate fails (the caller exits nonzero).
bool run_summary(bool quick, std::size_t shards) {
  // The index's speedup over the scan is reported, not gated, so a few
  // pairs do.
  std::vector<FlowTableSample> samples;
  for (const int n : {16, 256, 1024, 4096}) {
    samples.push_back(measure_flow_table(n, /*pairs=*/5));
  }
  const double churn = measure_flow_table_churn_per_sec(quick);
  const double chain5 = measure_chain_packets_per_sec(5, quick);
  const double events = measure_sim_events_per_sec(quick);
  const double esp = measure_esp_roundtrips_per_sec(quick);
  const FetchScalingSample fetch = measure_http_fetch_scaling();
  // The parallel scenario at 1 shard (the baseline and determinism
  // reference) against the requested shard count.
  const ParallelResult par = measure_parallel(shards, quick);
  const unsigned hw = std::thread::hardware_concurrency();

  bench::JsonWriter json;
  json.begin_object()
      .field("bench", "e15_dataplane")
      .field("quick", quick)
      .begin_array("flow_table");
  for (const FlowTableSample& s : samples) {
    json.begin_object()
        .field("rules", s.rules)
        .field("hashed_lookups_per_sec", s.ab.variant_rate, 0)
        .field("linear_lookups_per_sec", s.ab.base_rate, 0)
        .field("speedup", s.ab.ratio, 2)
        .field("speedup_iqr", s.ab.ratio_iqr, 2)
        .end_object();
  }
  json.end_array()
      .field("flow_table_churn_per_sec", churn, 0)
      .field("chain5_packets_per_sec", chain5, 0)
      .field("sim_events_per_sec", events, 0)
      .field("esp_roundtrips_per_sec", esp, 0)
      .field("http_fetch_scaling", fetch.ratio, 3)
      .field("http_fetch_first_slice_per_sec", fetch.first_slice_per_sec, 0)
      .begin_object("parallel")
      .field("hardware_concurrency", hw)
      .begin_array("runs");
  const auto run_json = [&json](std::size_t n, const ParallelRun& run,
                                double rate) {
    json.begin_object()
        .field("shards", n)
        .field("events", run.events)
        .field("wall_sec", static_cast<double>(run.events) / rate, 4)
        .field("events_per_sec", rate, 0)
        .field("delivered", run.delivered)
        .field("digest", hex64(run.digest))
        .end_object();
  };
  run_json(1, par.one, par.ab.base_rate);
  if (shards > 1) run_json(shards, par.many, par.ab.variant_rate);
  json.end_array()
      .field("speedup", par.ab.ratio, 2)
      .field("speedup_iqr", par.ab.ratio_iqr, 2)
      .field("deterministic", par.deterministic)
      .end_object()
      .end_object();
  const bool wrote = bench::write_json(json, "BENCH_dataplane.json");

  std::printf("\n=== E15 dataplane summary (%s) ===\n",
              quick ? "quick" : "full");
  for (const FlowTableSample& s : samples) {
    std::printf("flow_table %5d rules: hashed %12.0f /s   linear %12.0f /s   "
                "speedup %6.2fx (IQR %.2f)\n",
                s.rules, s.ab.variant_rate, s.ab.base_rate, s.ab.ratio,
                s.ab.ratio_iqr);
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
  std::printf("parallel 1 shard(s):   %12.0f events/s  (%zu events, "
              "%llu delivered, digest %s)\n",
              par.ab.base_rate, par.one.events,
              static_cast<unsigned long long>(par.one.delivered),
              hex64(par.one.digest).c_str());
  if (shards > 1) {
    std::printf("parallel %zu shard(s):   %12.0f events/s  (%zu events, "
                "%llu delivered, digest %s)\n",
                shards, par.ab.variant_rate, par.many.events,
                static_cast<unsigned long long>(par.many.delivered),
                hex64(par.many.digest).c_str());
  }
  std::printf("parallel speedup:      %.2fx (IQR %.2f) on %u hw threads — "
              "%s\n",
              par.ab.ratio, par.ab.ratio_iqr, hw,
              par.deterministic ? "deterministic" : "DETERMINISM MISMATCH");

  bool pass = gate(par.deterministic,
                   "%zu-shard run is not deterministic vs 1-shard", shards);
  // >= 10x the first chain baseline (~110k pkts/s) per packet.
  pass &= gate(chain5 >= 1.1e6, "chain rate %.0f < 1.1M pkts/s", chain5);
  // The one-pass digest and single-buffer ESP codec measure ~190k round
  // trips/s on a 4-vCPU VM; the four-pass digest gave ~55k.
  pass &= gate(esp >= 1.0e5, "ESP encap+decap %.0f < 100k round trips/s", esp);
  // Flow-table churn on the 4096-rule subscriber table (add, lookup, remove
  // the oldest cookie, lookup): a table that rebuilt its whole index after
  // every change managed ~0.8k cycles/s; the incremental index does far
  // more than 20k.
  pass &= gate(churn >= 2.0e4, "flow-table churn %.0f < 20k cycles/s", churn);
  // One HttpClient's 8000 sequential fetches: host time of fetches 1-1000
  // over fetches 7001-8000 (median of three runs). A port pick that scanned
  // every connection the host had ever opened measured 0.13-0.18 on a
  // 4-vCPU VM; probing only the candidate port's connections measured
  // 0.87-1.26.
  pass &= gate(fetch.ratio >= 0.6, "http fetch scaling %.2f < 0.6",
               fetch.ratio);
  // The 2x aggregate-event-rate gate needs real cores to mean anything.
  pass &= gate(shards == 1 || hw < 4 || par.ab.ratio >= 2.0,
               "%zu-shard speedup %.2fx < 2x on %u hw threads", shards,
               par.ab.ratio, hw);
  if (pass) {
    std::printf("dataplane gates OK: deterministic, chain %.2fM pkts/s, "
                "ESP %.0fk round trips/s, churn %.0fk cycles/s, "
                "fetch scaling %.2f, speedup %.2fx\n",
                chain5 / 1e6, esp / 1e3, churn / 1e3, fetch.ratio,
                par.ab.ratio);
  }
  return pass && wrote;
}

}  // namespace

int main(int argc, char** argv) {
  pvn::bench::TelemetryScope telemetry(argc, argv);
  const bool quick = bench::quick_mode(argc, argv);
  std::size_t shards = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = static_cast<std::size_t>(std::atoi(argv[i] + 9));
      if (shards == 0) shards = 1;
    }
  }

  if (!quick) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return run_summary(quick, shards) ? 0 : 1;
}
