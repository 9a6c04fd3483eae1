// Token-bucket meter: the shaping/throttling primitive.
//
// Used both by PVNCs (user-chosen per-flow policies) and by the dishonest-ISP
// models in the audit experiments (e.g. the Binge On 1.5 Mbps video policer,
// paper §2.2).
#pragma once

#include <cstdint>
#include <string>

#include "telemetry/metrics.h"
#include "util/time.h"
#include "util/units.h"

namespace pvn {

class Meter {
 public:
  Meter(Rate rate, std::int64_t burst_bytes)
      : rate_(rate), burst_bytes_(burst_bytes), tokens_(burst_bytes) {}

  // Returns true iff a packet of `bytes` conforms at time `now`;
  // non-conforming packets should be dropped (policing).
  bool conforms(std::int64_t bytes, SimTime now);

  Rate rate() const { return rate_; }
  std::uint64_t dropped() const { return dropped_.value(); }
  std::uint64_t passed() const { return passed_.value(); }

 private:
  void refill(SimTime now);

  Rate rate_;
  std::int64_t burst_bytes_;
  double tokens_;
  SimTime last_refill_ = 0;
  telemetry::Tally dropped_{"sdn.meter.dropped_packets"};
  telemetry::Tally passed_{"sdn.meter.passed_packets"};
};

}  // namespace pvn
