#include "sdn/switch.h"

namespace pvn {

PacketBurst PacketProcessor::process_burst(PacketBurst burst, SimTime now,
                                           SimDuration& delay) {
  PacketBurst out;
  for (Packet& pkt : burst) {
    SimDuration d = 0;
    std::vector<Packet> emitted = process(std::move(pkt), now, d);
    if (d > delay) delay = d;
    for (Packet& o : emitted) out.push_back(std::move(o));
  }
  return out;
}

SdnSwitch::SdnSwitch(Network& net, std::string name, int num_tables)
    : Node(net, std::move(name)),
      tables_(static_cast<std::size_t>(num_tables < 1 ? 1 : num_tables)),
      packets_in_("sdn.switch.packets_in", this->name()),
      forwarded_("sdn.switch.forwarded", this->name()),
      dropped_rule_("sdn.switch.dropped_rule", this->name()),
      dropped_miss_("sdn.switch.dropped_miss", this->name()),
      dropped_meter_("sdn.switch.dropped_meter", this->name()),
      diverted_mbox_("sdn.switch.diverted_mbox", this->name()),
      tunneled_("sdn.switch.tunneled", this->name()) {}

SwitchStats SdnSwitch::stats() const {
  return {packets_in_.value(),    forwarded_.value(),
          dropped_rule_.value(),  dropped_miss_.value(),
          dropped_meter_.value(), diverted_mbox_.value(),
          tunneled_.value()};
}

void SdnSwitch::add_meter(const std::string& id, Rate rate,
                          std::int64_t burst_bytes) {
  meters_[id] = std::make_unique<Meter>(rate, burst_bytes);
}

Meter* SdnSwitch::meter(const std::string& id) {
  const auto it = meters_.find(id);
  return it == meters_.end() ? nullptr : it->second.get();
}

void SdnSwitch::register_processor(const std::string& chain_id,
                                   PacketProcessor* proc) {
  processors_[chain_id] = proc;
}

void SdnSwitch::unregister_processor(const std::string& chain_id) {
  processors_.erase(chain_id);
}

void SdnSwitch::handle_packet(Packet pkt, int in_port) {
  packets_in_.inc();
  run_pipeline(std::move(pkt), in_port, 0);
}

void SdnSwitch::run_pipeline(Packet pkt, int in_port, int table_index) {
  if (table_index >= table_count()) {
    dropped_miss_.inc();
    return;
  }
  const FlowRule* rule =
      tables_[static_cast<std::size_t>(table_index)].lookup(pkt, in_port);
  if (rule == nullptr) {
    if (table_index == 0 && default_port_) {
      forwarded_.inc();
      send(*default_port_, std::move(pkt));
    } else {
      dropped_miss_.inc();
    }
    return;
  }
  execute(rule->actions, 0, std::move(pkt), in_port);
}

void SdnSwitch::execute(const ActionList& actions, std::size_t start,
                        Packet pkt, int in_port) {
  for (std::size_t i = start; i < actions.size(); ++i) {
    const Action& action = actions[i];
    if (const auto* out = std::get_if<ActOutput>(&action)) {
      forwarded_.inc();
      send(out->port, std::move(pkt));
      return;
    }
    if (std::get_if<ActDrop>(&action) != nullptr) {
      dropped_rule_.inc();
      return;
    }
    if (const auto* set_tos = std::get_if<ActSetTos>(&action)) {
      pkt.ip.tos = set_tos->tos;
      continue;
    }
    if (const auto* set_dst = std::get_if<ActSetDst>(&action)) {
      pkt.ip.dst = set_dst->dst;
      continue;
    }
    if (const auto* meter_act = std::get_if<ActMeter>(&action)) {
      Meter* m = meter(meter_act->meter_id);
      if (m == nullptr ||
          !m->conforms(static_cast<std::int64_t>(pkt.size()), sim().now())) {
        dropped_meter_.inc();
        return;
      }
      continue;
    }
    if (const auto* goto_table = std::get_if<ActGotoTable>(&action)) {
      run_pipeline(std::move(pkt), in_port, goto_table->table);
      return;
    }
    if (const auto* tunnel = std::get_if<ActTunnel>(&action)) {
      if (!tunnel_encap_) {
        dropped_rule_.inc();
        return;
      }
      tunneled_.inc();
      pkt = tunnel_encap_(std::move(pkt), tunnel->gateway);
      continue;
    }
    if (const auto* mbox = std::get_if<ActMbox>(&action)) {
      const auto it = processors_.find(mbox->chain_id);
      if (it == processors_.end()) {
        dropped_rule_.inc();
        return;
      }
      diverted_mbox_.inc();
      SimDuration delay = 0;
      std::vector<Packet> outs =
          it->second->process(std::move(pkt), sim().now(), delay);
      // Continue the remaining actions for each emitted packet after the
      // chain's processing delay.
      for (Packet& out : outs) {
        if (delay > 0) {
          // Copy the tail of the action list: the rule may be removed
          // before the deferred continuation runs.
          const auto rest =
              actions.begin() + static_cast<std::ptrdiff_t>(i + 1);
          auto resume = [this, tail = ActionList(rest, actions.end()),
                         out = std::move(out), in_port]() mutable {
            execute(tail, 0, std::move(out), in_port);
          };
          // One continuation per diverted packet: it must fit EventFn's
          // inline buffer so the tail copy is its only allocation.
          static_assert(sizeof(resume) <= EventFn::kInlineSize);
          sim().schedule_after(delay, SimCategory::kMbox, std::move(resume));
        } else {
          execute(actions, i + 1, std::move(out), in_port);
        }
      }
      return;
    }
  }
  // Action list exhausted without output/drop: drop.
  dropped_rule_.inc();
}

}  // namespace pvn
