#include "netsim/link.h"

#include <cassert>

#include "netsim/network.h"
#include "netsim/node.h"

namespace pvn {

Link::Link(Network& net, Node& a, Node& b, LinkParams params)
    : a_(&a),
      b_(&b),
      port_a_(a.attach_link(this)),
      port_b_(b.attach_link(this)),
      params_(params),
      rng_(net.rng().fork()) {
  ab_.from = a_;
  ab_.to = b_;
  ab_.to_port = port_b_;
  ba_.from = b_;
  ba_.to = a_;
  ba_.to_port = port_a_;
  register_metrics(ab_, a.name() + "->" + b.name());
  register_metrics(ba_, b.name() + "->" + a.name());
}

void Link::register_metrics(Direction& dir, const std::string& instance) {
  auto& reg = telemetry::MetricsRegistry::global();
  dir.m_delivered_packets =
      &reg.counter("netsim.link.delivered_packets", instance);
  dir.m_delivered_bytes = &reg.counter("netsim.link.delivered_bytes", instance);
  dir.m_dropped_packets = &reg.counter("netsim.link.dropped_packets", instance);
  dir.m_dropped_bytes = &reg.counter("netsim.link.dropped_bytes", instance);
  dir.m_queued_bytes = &reg.gauge("netsim.link.queued_bytes", instance);
}

int Link::port_at(const Node& n) const {
  return &n == a_ ? port_a_ : port_b_;
}

Link::Direction& Link::direction_from(const Node& from) {
  assert(&from == a_ || &from == b_);
  return &from == a_ ? ab_ : ba_;
}

const LinkStats& Link::stats_from(const Node& n) const {
  return &n == a_ ? ab_.stats : ba_.stats;
}

void Link::transmit(const Node& from, Packet pkt) {
  Direction& dir = direction_from(from);
  if (!up_) {
    ++dir.stats.tx_down_drops;
    dir.m_dropped_packets->inc();
    dir.m_dropped_bytes->inc(pkt.size());
    return;
  }
  const std::int64_t sz = static_cast<std::int64_t>(pkt.size());

  // DropTail: the queue models bytes waiting for the serializer. If the
  // link is idle the packet starts serializing immediately and does not
  // count against the queue bound.
  Simulator& sim = dir.from->sim();
  const SimTime now = sim.now();
  if (dir.busy_until > now) {
    if (dir.queued_bytes + sz > params_.queue_bytes) {
      ++dir.stats.queue_drops;
      dir.m_dropped_packets->inc();
      dir.m_dropped_bytes->inc(pkt.size());
      return;
    }
    dir.queued_bytes += sz;
    dir.m_queued_bytes->set(dir.queued_bytes);
  }
  start_transmit(dir, std::move(pkt));
}

void Link::start_transmit(Direction& dir, Packet pkt) {
  Simulator& sim = dir.from->sim();
  const SimTime now = sim.now();
  const SimTime start = dir.busy_until > now ? dir.busy_until : now;
  const SimDuration serialize = params_.rate.transmit_time(
      static_cast<std::int64_t>(pkt.size()));
  dir.busy_until = start + serialize;
  const SimTime arrive = dir.busy_until + params_.latency;

  ++dir.stats.tx_packets;
  dir.stats.tx_bytes += pkt.size();

  const std::int64_t sz = static_cast<std::int64_t>(pkt.size());
  // Sampled even at zero loss: skipping it would shift the loss stream, and
  // with it every digest.
  const bool lost = rng_.bernoulli(params_.loss);
  if (lost) {
    ++dir.stats.loss_drops;
    dir.m_dropped_packets->inc();
    dir.m_dropped_bytes->inc(pkt.size());
  }

  Direction* dptr = &dir;
  if (start > now) {
    // Queue occupancy drops once the packet has fully serialized.
    sim.schedule_at(dir.busy_until, SimCategory::kLink, [dptr, sz] {
      dptr->queued_bytes -= sz;
      dptr->m_queued_bytes->set(dptr->queued_bytes);
    });
  }

  // Lost packets keep their no-op event so the schedule sequence — and
  // thus all downstream tie-breaks — matches the historical kernel.
  auto deliver = [this, dptr, pkt = std::move(pkt), lost]() mutable {
    if (lost) return;
    deliver_single(dptr, std::move(pkt));
  };
  // The per-hop delivery callback is the hottest event in the simulator;
  // it must fit EventFn's inline buffer so delivery never allocates.
  static_assert(sizeof(deliver) <= EventFn::kInlineSize);
  sim.schedule_at(arrive, SimCategory::kLink, std::move(deliver));
}

void Link::deliver_single(Direction* dir, Packet pkt) {
  if (!dir->to->is_up()) {
    ++dir->stats.rx_down_drops;
    ++dir->to->down_drops_;
    dir->m_dropped_packets->inc();
    dir->m_dropped_bytes->inc(pkt.size());
    return;
  }
  ++dir->stats.delivered_packets;
  dir->m_delivered_packets->inc();
  dir->m_delivered_bytes->inc(pkt.size());
  for (const Tap& tap : taps_) tap(pkt, *dir->from, *dir->to);
  dir->to->handle_packet(std::move(pkt), dir->to_port);
}

}  // namespace pvn
