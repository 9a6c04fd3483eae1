// E12 — Offloading computation and communication / prefetching (paper §4,
// citing Procrastinator [29]).
//
// Claim: "many apps pre-fetch content to reduce user-perceived delays, but
// this can be costly in terms of data quota and battery if the pre-fetched
// content is not used. Using PVNs we can explore a middle ground, where we
// run code on the middlebox that prefetches content to move it closer to
// users, without consuming device resources."
//
// A page references 6 subresources; the user ends up viewing only 3. We
// compare: no prefetch, on-device prefetch (fetches all 6 over the access
// link), and PVN middlebox prefetch (warms an in-network cache; unused
// objects never cross the access link).
#include "common.h"
#include "netsim/trace.h"
#include "testbed/testbed.h"

using namespace pvn;

namespace {

constexpr int kTotal = 6;
constexpr int kUsed = 3;
constexpr const char* kObjSize = "60000";

std::vector<std::string> all_paths() {
  std::vector<std::string> p;
  for (int i = 0; i < kTotal; ++i) {
    p.push_back("/bytes/" + std::string(kObjSize) + std::to_string(i % 10));
  }
  return p;
}

struct RunResult {
  SimDuration mean_view_latency = 0;  // per used object
  std::uint64_t access_link_bytes = 0;
};

// Fetches `paths` sequentially via `target`; measures mean latency of the
// `used` subset and total bytes crossing the client's access link.
RunResult run(Testbed& tb, Ipv4Addr target, Port port, bool device_prefetch) {
  TraceCollector trace;
  trace.attach(*tb.access_link);

  HttpClient http(*tb.client);
  const auto paths = all_paths();
  RunResult result;
  SimDuration latency_sum = 0;
  int fetched = 0;

  if (device_prefetch) {
    // The device fetches everything up front (quota burned on all 6).
    for (const std::string& p : paths) {
      http.fetch(target, port, p, [](const HttpResponse&, const FetchTiming&) {});
    }
    tb.net.sim().run();
  }
  // The user now views kUsed objects; with device prefetch these are local
  // (latency ~0), otherwise they are fetched on demand.
  for (int i = 0; i < kUsed; ++i) {
    if (device_prefetch) continue;  // already on the device
    http.fetch(target, port, paths[static_cast<std::size_t>(i)],
               [&](const HttpResponse&, const FetchTiming& t) {
                 latency_sum += t.total();
                 ++fetched;
               });
    tb.net.sim().run();
  }
  result.mean_view_latency = fetched > 0 ? latency_sum / fetched : 0;
  result.access_link_bytes =
      trace.bytes_from_to("access-sw", "client") +
      trace.bytes_from_to("client", "access-sw");
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  pvn::bench::TelemetryScope telemetry(argc, argv);
  bench::title("E12 prefetch placement",
               "middlebox prefetch gives near-cache latency without burning "
               "device quota on unused objects [29]");
  bench::header({"strategy", "view latency (ms)", "access-link KB",
                 "wasted KB (unused)"});

  const double obj_kb = 60000.0 / 1000.0;
  // (a) No prefetch: on-demand fetches from the far origin.
  {
    TestbedConfig cfg;
    cfg.server_link.latency = milliseconds(60);  // far origin
    Testbed tb(cfg);
    const RunResult r = run(tb, tb.addrs.web, 80, false);
    bench::row("no prefetch", to_milliseconds(r.mean_view_latency),
               static_cast<double>(r.access_link_bytes) / 1000.0, 0.0);
  }
  // (b) On-device prefetch: everything crosses the access link.
  {
    TestbedConfig cfg;
    cfg.server_link.latency = milliseconds(60);
    Testbed tb(cfg);
    const RunResult r = run(tb, tb.addrs.web, 80, true);
    bench::row("on-device prefetch", 0.0,
               static_cast<double>(r.access_link_bytes) / 1000.0,
               (kTotal - kUsed) * obj_kb);
  }
  // (c) PVN middlebox prefetch: the proxy warms its cache from the origin;
  // the device pulls only what it views.
  {
    TestbedConfig cfg;
    cfg.server_link.latency = milliseconds(60);
    Testbed tb(cfg);
    auto& proxy = tb.net.add_node<PrefetchingProxy>(
        "prefetcher", Ipv4Addr(10, 0, 0, 30), tb.addrs.web, Port{8081});
    tb.net.connect(*tb.access_sw, proxy, LinkParams{});  // switch port 3
    FlowRule to_proxy;
    to_proxy.priority = 500;
    to_proxy.match.dst = Prefix{proxy.addr(), 32};
    to_proxy.cookie = "infra";
    to_proxy.actions.push_back(ActOutput{3});
    tb.access_sw->table(0).add(to_proxy);

    proxy.prefetch(all_paths());
    tb.net.sim().run();  // cache warms via the backhaul, not the access link

    const RunResult r = run(tb, proxy.addr(), 8081, false);
    bench::row("PVN middlebox prefetch", to_milliseconds(r.mean_view_latency),
               static_cast<double>(r.access_link_bytes) / 1000.0, 0.0);
  }
  return 0;
}
