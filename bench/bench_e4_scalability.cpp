// E4 — Scalability and overhead (paper §3.3, citing ClickOS [24]).
//
// Claim: middlebox instances can be "instantiated in 30 milliseconds, add
// only 45 microseconds of delay, and consume only 6 MB of memory", so a PVN
// per subscriber is feasible.
//
// Part 1 reproduces the three per-instance numbers from our runtime model.
// Part 2 scales subscribers 1 -> 1000 and reports deployment latency, switch
// rule count, and middlebox memory — the "serve potentially large numbers of
// subscribers" feasibility argument.
#include "common.h"
#include "mbox/inline_modules.h"
#include "testbed/testbed.h"

using namespace pvn;

namespace {

void part1_instance_costs() {
  bench::title("E4.1 per-instance costs",
               "30 ms instantiation, 45 us per-packet delay, 6 MB memory [24]");
  Simulator sim;
  MboxHost host(sim);

  SimTime ready_at = -1;
  Chain* chain = nullptr;
  std::vector<std::unique_ptr<Middlebox>> modules;
  modules.push_back(
      std::make_unique<Classifier>(std::vector<Classifier::Rule>{}));
  host.build_chain("probe", std::move(modules), [&](Chain* c) {
    chain = c;
    ready_at = sim.now();
  });
  sim.run();

  // The classifier adds no delay of its own: the chain charges its base.
  SimDuration delay = 0;
  Network net;
  Packet pkt = net.make_packet(Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2),
                               IpProto::kUdp, Bytes(100, 0));
  if (chain != nullptr) chain->process(std::move(pkt), 0, delay);

  bench::header({"metric", "measured", "paper"});
  bench::row("instantiation (ms)", to_milliseconds(ready_at), 30.0);
  bench::row("per-packet delay (us)", to_microseconds(delay), 45.0);
  bench::row("memory per instance (MB)",
             static_cast<double>(host.memory_in_use()) / (1024 * 1024), 6.0);
}

void part2_subscriber_scaling() {
  bench::title("E4.2 subscriber scaling",
               "PVN state must scale to large numbers of subscribers with "
               "negligible overhead");
  bench::header({"subscribers", "mean deploy (ms)", "switch rules",
                 "mbox memory (MB)", "mbox instances"});

  for (const int n : {1, 10, 100, 1000}) {
    TestbedConfig cfg;
    Testbed tb(cfg);
    // Generous memory so 1000 x 4 modules fit.
    // (Default budget is 4 GiB = ~680 instances of 6 MB; resize via a
    // bigger host for the large runs.)
    MboxHostConfig mcfg;
    mcfg.memory_budget = 64LL * 1024 * 1024 * 1024;
    auto big_host = std::make_unique<MboxHost>(tb.net.sim(), mcfg);
    ServerConfig scfg;
    scfg.switch_name = Testbed::kSwitchName;
    tb.server.reset();  // retire the default server first (unbinds the port)
    auto server = std::make_unique<DeploymentServer>(
        *tb.control, *tb.store, *big_host, *tb.controller, *tb.ledger, scfg);

    SimDuration total_elapsed = 0;
    int deployed = 0;
    for (int i = 0; i < n; ++i) {
      Pvnc pvnc = tb.standard_pvnc("device-" + std::to_string(i));
      const DeployOutcome out = tb.deploy(pvnc);
      if (out.ok) {
        ++deployed;
        total_elapsed += out.elapsed;
      }
    }
    bench::row(n,
               deployed > 0 ? to_milliseconds(total_elapsed / deployed) : 0.0,
               static_cast<std::uint64_t>(tb.access_sw->table(0).size() +
                                          tb.access_sw->table(1).size()),
               static_cast<double>(big_host->memory_in_use()) / (1024 * 1024),
               big_host->instances());
  }
}

}  // namespace

int main(int argc, char** argv) {
  pvn::bench::TelemetryScope telemetry(argc, argv);
  part1_instance_costs();
  part2_subscriber_scaling();
  return 0;
}
