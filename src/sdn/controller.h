// A minimal SDN controller: the management-plane entry point the PVN
// DeploymentServer uses to program switches. Models control-channel latency
// so deployment-time measurements (experiment E4/E8) include it.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "sdn/switch.h"

namespace pvn {

class Controller {
 public:
  explicit Controller(Simulator& sim, SimDuration control_rtt = milliseconds(2))
      : sim_(&sim), control_rtt_(control_rtt) {}

  void manage(SdnSwitch& sw) { switches_[sw.name()] = &sw; }
  SdnSwitch* switch_by_name(const std::string& name);

  // Installs a rule after one control-channel RTT; invokes `done` when the
  // switch has applied it.
  void install_rule(const std::string& switch_name, int table, FlowRule rule,
                    std::function<void(bool)> done = nullptr);

  // Removes all rules with `cookie` on every managed switch (all tables).
  void remove_by_cookie(const std::string& cookie,
                        std::function<void(std::size_t)> done = nullptr);

  // Failure rewiring: removes only the rules of `cookie` that divert
  // packets into a middlebox chain (ActMbox), so traffic for that device
  // bypasses a crashed chain while its drop/rate/mark policies stay
  // installed. Also unregisters the chain's processor on every switch.
  void bypass_chain(const std::string& cookie, const std::string& chain_id,
                    std::function<void(std::size_t)> done = nullptr);

  // Standby promotion (survivability layer): after one control RTT,
  // re-points every installed ActMbox rule for `chain_id` at `standby` by
  // re-registering the processor under the same chain id. The compiled flow
  // rules stay untouched, so the dataplane blackout is bounded by the
  // control RTT. `done` reports whether the switch was found.
  void promote_chain(const std::string& switch_name,
                     const std::string& chain_id, PacketProcessor* standby,
                     std::function<void(bool)> done = nullptr);

  void add_meter(const std::string& switch_name, const std::string& meter_id,
                 Rate rate, std::int64_t burst_bytes,
                 std::function<void(bool)> done = nullptr);

  std::uint64_t rules_installed() const { return rules_installed_; }
  std::uint64_t promotions() const { return promotions_.value(); }

 private:
  Simulator* sim_;
  SimDuration control_rtt_;
  std::map<std::string, SdnSwitch*> switches_;
  std::uint64_t rules_installed_ = 0;
  telemetry::Tally promotions_{"sdn.controller.promotions"};
};

}  // namespace pvn
