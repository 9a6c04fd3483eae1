// The benchmark's workloads: full-stack PVN scenarios built from a seed.
//
// Each workload constructs its topology and every input (arrival times,
// request mix, churn schedule) from the seed before the clock starts, then
// runs open-loop in simulated time: an operation starts at its scheduled
// time whether or not earlier ones have finished, and its latency is
// measured from that scheduled time. README.md says why each one exists.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "testbed/population.h"
#include "testbed/testbed.h"

namespace pvnbench {

// Simulated outcomes of one repetition. They depend only on the seed, so
// every repetition of one seed must reproduce them bit for bit (digest()).
struct Outcome {
  // Sim-time latencies, each from the operation's scheduled start.
  std::vector<pvn::SimDuration> deploy;    // session deploys (incl. restarts)
  std::vector<pvn::SimDuration> handover;  // PvnClient::migrate to done
  std::vector<pvn::SimDuration> fetch;     // clean HTTP fetches
  std::uint64_t attempted = 0;  // operations scheduled
  std::uint64_t failed = 0;     // not completed correctly by the horizon
  std::uint64_t blocked = 0;    // PII posts dropped by design (not failures)
  std::uint64_t goodput_bytes = 0;       // body bytes of clean fetches
  pvn::SimDuration traffic_window = 0;   // goodput denominator
  // Link deliveries, summed over every link and direction.
  std::uint64_t link_pkts = 0;
  std::uint64_t link_bytes = 0;
  std::uint64_t link_drops = 0;
  std::uint64_t events = 0;
  std::size_t heap_peak = 0;  // Simulator::pending_events(), sampled
  // Program counters summed over the workload's devices and servers.
  std::uint64_t client_retransmissions = 0;
  std::uint64_t server_deploys = 0;
  std::uint64_t leases_renewed = 0;
  std::uint64_t nacks = 0;
  std::uint64_t dns_queries = 0;
  std::uint64_t auth_failures = 0;  // ESP decapsulation, switch + gateway
  // Failed correctness checks; empty when the run is correct.
  std::vector<std::string> errors;

  std::uint64_t digest() const;
};

// A chain the deployment server just placed, as seen from the dataplane.
struct DeployedChain {
  pvn::SdnSwitch* sw = nullptr;
  std::string id;
  pvn::Chain* chain = nullptr;
};

// What the traced repetition taps, wraps and replays on a workload.
struct TraceHooks {
  std::vector<pvn::SdnSwitch*> switches;  // flow tables to count and replay
  std::vector<pvn::Link*> access_links;   // device access links (TCP taps)
  // The registered "esp-decap" processor and its switch, or nullptr.
  pvn::SdnSwitch* decap_switch = nullptr;
  pvn::PacketProcessor* decap = nullptr;
  // Deploys replayed through compile_pvnc and rule install, and the switch
  // whose live tables the install replay copies.
  std::vector<std::pair<pvn::Pvnc, pvn::DeploymentContext>> deploys;
  pvn::SdnSwitch* install_switch = nullptr;
  // Per-layer count metrics that must read 0: the layers this workload
  // claims to leave idle.
  std::vector<std::string> bypassed;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual pvn::Network& net() = 0;
  virtual pvn::SimTime horizon() const = 0;
  // Reads outcomes and runs the correctness checks once the simulation has
  // reached the horizon.
  virtual void collect(Outcome& out) = 0;
  virtual TraceHooks hooks() = 0;
  // Any live chain, for probing a chain no packet traversed.
  virtual pvn::Chain* any_chain() = 0;

  // Called each time a chain goes live; the traced run wraps it.
  std::function<void(const DeployedChain&)> on_chain_deployed;
};

// Known workload names, in the order the benchmark documents them.
const std::vector<std::string>& workload_names();
// Builds the named workload from `seed`; nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace pvnbench
