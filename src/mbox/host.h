// MboxHost: the NFV compute pool of an access network, with the resource
// model the paper cites from ClickOS [24] (§3.3 "Scalability and overhead"):
// ~30 ms to instantiate an instance, ~45 µs of added per-packet delay, and
// ~6 MB of memory per instance. Chains built here are registered with the
// SDN switch as PacketProcessors.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "mbox/middlebox.h"
#include "sdn/switch.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "util/units.h"

namespace pvn {

struct MboxHostConfig {
  SimDuration instantiation_delay = milliseconds(30);
  SimDuration per_packet_delay = microseconds(45);
  std::int64_t memory_per_instance = 6 * kMiB;
  std::int64_t memory_budget = 4 * kGiB;
};

// An ordered set of middlebox instances one PVN's traffic traverses.
class Chain : public PacketProcessor {
 public:
  Chain(std::string id, SimDuration per_packet_delay);

  const std::string& id() const { return id_; }
  // Appends a module the caller owns.
  void append(Middlebox* mbox);
  // Appends a module the chain owns from now on (what MboxHost builds).
  void append(std::unique_ptr<Middlebox> mbox);
  const std::vector<Middlebox*>& modules() const { return modules_; }
  // How many of modules() the chain owns.
  std::size_t instances() const { return owned_.size(); }

  std::vector<Packet> process(Packet pkt, SimTime now,
                              SimDuration& delay) override;

  const std::vector<MboxFinding>& findings() const { return findings_; }
  std::uint64_t packets() const { return packets_.value(); }

 private:
  // Per-module telemetry cells, cached at append() time so process() never
  // does a registry lookup. Instance label = module name.
  struct ModuleCells {
    telemetry::Counter* processed = nullptr;
    telemetry::Counter* dropped = nullptr;
  };

  std::string id_;
  SimDuration per_packet_delay_;
  std::vector<Middlebox*> modules_;
  std::vector<std::unique_ptr<Middlebox>> owned_;
  std::vector<ModuleCells> module_cells_;
  std::vector<MboxFinding> findings_;
  telemetry::Tally packets_;
  telemetry::Counter* m_dropped_ = nullptr;
  telemetry::Counter* m_findings_ = nullptr;
  telemetry::Histogram* m_latency_ns_ = nullptr;
};

class MboxHost {
 public:
  explicit MboxHost(Simulator& sim, MboxHostConfig cfg = {});
  ~MboxHost();

  MboxHost(const MboxHost&) = delete;
  MboxHost& operator=(const MboxHost&) = delete;

  // Builds chain `id` from `modules`, in order. Each module reserves
  // memory now and comes up one instantiation delay later; a module that
  // does not fit the budget, or meets a crashed host, fails at once.
  // `done` fires once: with the chain, which the host then holds and which
  // owns its instances, when every module is up; or with nullptr at the
  // first failure, a crash before the modules land included. The modules
  // that did come up are released when they land. When `trace` is valid,
  // each instantiation delay — the dominant cost of a deploy — is recorded
  // as an "mbox_instantiate" span stitched under it, on `node`'s track.
  void build_chain(const std::string& id,
                   std::vector<std::unique_ptr<Middlebox>> modules,
                   std::function<void(Chain*)> done,
                   const telemetry::TraceContext& trace = {},
                   std::string_view node = {});

  // Creates an empty chain, with the configured per-packet base delay, for
  // modules the caller owns and appends: nothing is instantiated or charged.
  Chain& create_chain(const std::string& id);
  // The chain `id` this host holds; nullptr once destroyed or lost to a
  // crash.
  Chain* chain(const std::string& id);
  // Frees chain `id` and the instances it owns. A no-op returning false for
  // a chain the host does not hold.
  bool destroy_chain(const std::string& id);

  // Fault injection: drops every instance and chain on the floor (memory
  // returns to zero, like a machine losing power), fails the builds in
  // flight and refuses new instantiations until restart(). The crash
  // listener fires synchronously so the control plane can unregister
  // now-dead chain processors from the dataplane before another packet is
  // diverted to them.
  void crash();
  void restart() { crashed_ = false; }
  bool crashed() const { return crashed_; }
  void set_crash_listener(std::function<void()> listener) {
    crash_listener_ = std::move(listener);
  }

  std::int64_t memory_in_use() const { return memory_in_use_; }
  std::int64_t memory_budget() const { return cfg_.memory_budget; }
  int instances() const { return instances_; }
  const MboxHostConfig& config() const { return cfg_; }

 private:
  struct Build;
  // One module's instantiation event; `up` is false for a module that never
  // got its memory.
  void land(Build& build, bool up);
  // Every module event has fired (or there were none): hands the chain
  // over, or releases what a failed build reserved.
  void settle(Build& build);
  // Reserves (n > 0) or releases (n < 0) memory for n instances.
  void charge(int n);
  // Takes this host's instances and memory out of the process-wide gauges.
  void withdraw_gauges();

  Simulator* sim_;
  MboxHostConfig cfg_;
  std::map<std::string, std::unique_ptr<Chain>> chains_;
  int instances_ = 0;  // reserved or up, in builds and chains
  std::int64_t memory_in_use_ = 0;
  bool crashed_ = false;
  int crashes_ = 0;  // tells a build whether a crash freed what it reserved
  std::function<void()> crash_listener_;
  // Aggregate telemetry; hosts carry no name, so there is no instance label.
  // The gauges sum over live hosts: each host adds and subtracts its own
  // deltas and withdraws what it still holds on crash and destruction.
  telemetry::Counter* m_instantiations_ = nullptr;
  telemetry::Counter* m_instantiation_failures_ = nullptr;
  telemetry::Counter* m_crashes_ = nullptr;
  telemetry::Gauge* m_memory_in_use_ = nullptr;
  telemetry::Gauge* m_instances_ = nullptr;
};

}  // namespace pvn
