// Full-duplex point-to-point link with bandwidth, propagation delay, random
// loss, and a DropTail byte-bounded queue per direction.
//
// Delivery (DESIGN.md "Hot paths"): one kLink event per packet at its exact
// wire-arrival time, which runs deliver_single.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "netsim/packet.h"
#include "telemetry/metrics.h"
#include "util/rng.h"
#include "util/units.h"

namespace pvn {

class Node;
class Network;

struct LinkParams {
  Rate rate = Rate::mbps(100);
  SimDuration latency = milliseconds(1);
  double loss = 0.0;              // independent per-packet drop probability
  std::int64_t queue_bytes = 256 * 1024;  // per-direction DropTail capacity
};

struct LinkStats {
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t loss_drops = 0;
  // tx_down_drops is charged at transmit time (link administratively down),
  // rx_down_drops at delivery time (destination node crashed).
  std::uint64_t tx_down_drops = 0;
  std::uint64_t rx_down_drops = 0;
};

class Link {
 public:
  // Observes every packet the link delivers (after loss), per direction,
  // inside the delivery event: `to.sim().now()` is the packet's wire
  // arrival. Used by trace collectors, the flight recorder and on-path
  // attackers in audit tests.
  using Tap = std::function<void(const Packet&, const Node& from, const Node& to)>;

  Link(Network& net, Node& a, Node& b, LinkParams params);

  const LinkParams& params() const { return params_; }
  // Runtime reconfiguration (e.g. degrading a link mid-experiment).
  void set_loss(double loss) { params_.loss = loss; }
  void set_latency(SimDuration latency) { params_.latency = latency; }

  // Administrative state (netsim/faults.h). While down, new transmissions
  // are dropped; packets already serialized onto the wire still arrive.
  bool is_up() const { return up_; }
  void set_up(bool up) { up_ = up; }

  Node& peer_of(const Node& n) const;
  int port_at(const Node& n) const;
  Node& end_a() const { return *a_; }
  Node& end_b() const { return *b_; }

  // Called by Node::send. Direction is inferred from `from`.
  void transmit(const Node& from, Packet pkt);

  const LinkStats& stats_from(const Node& n) const;

  // Taps chain: every registered tap observes every delivered packet, in
  // registration order. A trace collector and a fault-injector/attacker
  // observer can therefore share a link.
  void add_tap(Tap tap) { taps_.push_back(std::move(tap)); }
  void clear_taps() { taps_.clear(); }
  std::size_t tap_count() const { return taps_.size(); }

 private:
  struct Direction {
    Node* from = nullptr;
    Node* to = nullptr;
    int to_port = 0;
    SimTime busy_until = 0;
    std::int64_t queued_bytes = 0;
    LinkStats stats;
    // Telemetry cells (telemetry/metrics.h), registered once per direction
    // under instance "<from>-><to>"; raw pointer increments on the hot path.
    telemetry::Counter* m_delivered_packets = nullptr;
    telemetry::Counter* m_delivered_bytes = nullptr;
    telemetry::Counter* m_dropped_packets = nullptr;
    telemetry::Counter* m_dropped_bytes = nullptr;
    telemetry::Gauge* m_queued_bytes = nullptr;
  };

  Direction& direction_from(const Node& from);
  void start_transmit(Direction& dir, Packet pkt);
  // The delivery event's body: counts, taps and hands the packet to the
  // receiving node.
  void deliver_single(Direction* dir, Packet pkt);
  void register_metrics(Direction& dir, const std::string& instance);

  Node* a_;
  Node* b_;
  int port_a_;
  int port_b_;
  LinkParams params_;
  bool up_ = true;
  Direction ab_;  // a_ -> b_
  Direction ba_;  // b_ -> a_
  Rng rng_;
  std::vector<Tap> taps_;
};

}  // namespace pvn
