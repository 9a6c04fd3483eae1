#include "sdn/controller.h"

namespace pvn {

SdnSwitch* Controller::switch_by_name(const std::string& name) {
  const auto it = switches_.find(name);
  return it == switches_.end() ? nullptr : it->second;
}

void Controller::install_rule(const std::string& switch_name, int table,
                              FlowRule rule, std::function<void(bool)> done) {
  sim_->schedule_after(control_rtt_, SimCategory::kPvnControl, [this, switch_name, table,
                                      rule = std::move(rule),
                                      done = std::move(done)]() mutable {
    SdnSwitch* sw = switch_by_name(switch_name);
    if (sw == nullptr || table >= sw->table_count()) {
      if (done) done(false);
      return;
    }
    sw->table(table).add(std::move(rule));
    ++rules_installed_;
    if (done) done(true);
  });
}

void Controller::remove_by_cookie(const std::string& cookie,
                                  std::function<void(std::size_t)> done) {
  sim_->schedule_after(control_rtt_, SimCategory::kPvnControl, [this, cookie, done = std::move(done)] {
    std::size_t removed = 0;
    for (auto& [name, sw] : switches_) {
      for (int t = 0; t < sw->table_count(); ++t) {
        removed += sw->table(t).remove_by_cookie(cookie);
      }
    }
    if (done) done(removed);
  });
}

void Controller::bypass_chain(const std::string& cookie,
                              const std::string& chain_id,
                              std::function<void(std::size_t)> done) {
  sim_->schedule_after(control_rtt_, SimCategory::kPvnControl, [this, cookie, chain_id,
                                      done = std::move(done)] {
    std::size_t removed = 0;
    const auto diverts_into_chain = [&](const FlowRule& rule) {
      if (rule.cookie != cookie) return false;
      for (const Action& action : rule.actions) {
        if (const auto* mbox = std::get_if<ActMbox>(&action)) {
          if (mbox->chain_id == chain_id) return true;
        }
      }
      return false;
    };
    for (auto& [name, sw] : switches_) {
      for (int t = 0; t < sw->table_count(); ++t) {
        removed += sw->table(t).remove_if(diverts_into_chain);
      }
      sw->unregister_processor(chain_id);
    }
    if (done) done(removed);
  });
}

void Controller::promote_chain(const std::string& switch_name,
                               const std::string& chain_id,
                               PacketProcessor* standby,
                               std::function<void(bool)> done) {
  sim_->schedule_after(control_rtt_, SimCategory::kPvnControl,
                       [this, switch_name, chain_id, standby,
                        done = std::move(done)] {
                         SdnSwitch* sw = switch_by_name(switch_name);
                         if (sw == nullptr || standby == nullptr) {
                           if (done) done(false);
                           return;
                         }
                         sw->unregister_processor(chain_id);
                         sw->register_processor(chain_id, standby);
                         promotions_.inc();
                         if (done) done(true);
                       });
}

void Controller::add_meter(const std::string& switch_name,
                           const std::string& meter_id, Rate rate,
                           std::int64_t burst_bytes,
                           std::function<void(bool)> done) {
  sim_->schedule_after(control_rtt_, SimCategory::kPvnControl, [this, switch_name, meter_id, rate,
                                      burst_bytes, done = std::move(done)] {
    SdnSwitch* sw = switch_by_name(switch_name);
    if (sw == nullptr) {
      if (done) done(false);
      return;
    }
    sw->add_meter(meter_id, rate, burst_bytes);
    if (done) done(true);
  });
}

}  // namespace pvn
