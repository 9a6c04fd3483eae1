#include "mbox/host.h"

#include <algorithm>

namespace pvn {

FlowKey FlowKey::of(const Packet& pkt) {
  FlowKey key;
  key.src = pkt.ip.src;
  key.dst = pkt.ip.dst;
  key.proto = pkt.ip.proto;
  peek_ports(static_cast<std::uint8_t>(pkt.ip.proto), pkt.l4, key.src_port,
             key.dst_port);
  return key;
}

FlowKey FlowKey::reversed() const {
  FlowKey key = *this;
  std::swap(key.src, key.dst);
  std::swap(key.src_port, key.dst_port);
  return key;
}

void write_flow_key(ByteWriter& w, const FlowKey& key) {
  w.u32(key.src.v);
  w.u32(key.dst.v);
  w.u8(static_cast<std::uint8_t>(key.proto));
  w.u16(key.src_port);
  w.u16(key.dst_port);
}

FlowKey read_flow_key(ByteReader& r) {
  FlowKey key;
  key.src = Ipv4Addr(r.u32());
  key.dst = Ipv4Addr(r.u32());
  key.proto = static_cast<IpProto>(r.u8());
  key.src_port = r.u16();
  key.dst_port = r.u16();
  return key;
}

Chain::Chain(std::string id, SimDuration per_packet_delay)
    : id_(std::move(id)),
      per_packet_delay_(per_packet_delay),
      packets_("mbox.chain.packets", id_) {
  auto& reg = telemetry::MetricsRegistry::global();
  m_dropped_ = &reg.counter("mbox.chain.dropped", id_);
  m_findings_ = &reg.counter("mbox.chain.findings", id_);
  m_latency_ns_ =
      &reg.histogram("mbox.chain.latency_ns", id_, telemetry::latency_bounds_ns());
}

void Chain::append(Middlebox* mbox) {
  modules_.push_back(mbox);
  auto& reg = telemetry::MetricsRegistry::global();
  module_cells_.push_back(ModuleCells{
      &reg.counter("mbox.module.processed", mbox->name()),
      &reg.counter("mbox.module.dropped", mbox->name())});
}

std::vector<Packet> Chain::process(Packet pkt, SimTime now,
                                   SimDuration& delay) {
  packets_.inc();
  delay = per_packet_delay_;
  std::vector<Packet> injected;
  MboxContext ctx;
  ctx.now = now;
  ctx.findings = &findings_;
  ctx.injected = &injected;
  const std::size_t findings_before = findings_.size();

  bool dropped = false;
  for (std::size_t m = 0; m < modules_.size(); ++m) {
    Middlebox* mbox = modules_[m];
    ++mbox->packets_seen;
    module_cells_[m].processed->inc();
    delay += mbox->extra_delay();
    if (mbox->process(pkt, ctx) == Middlebox::Verdict::kDrop) {
      ++mbox->packets_dropped;
      module_cells_[m].dropped->inc();
      dropped = true;
      break;
    }
  }
  if (dropped) m_dropped_->inc();
  m_findings_->inc(findings_.size() - findings_before);
  m_latency_ns_->observe(static_cast<std::uint64_t>(delay));
  std::vector<Packet> out;
  if (!dropped) out.push_back(std::move(pkt));
  for (Packet& p : injected) out.push_back(std::move(p));
  return out;
}

MboxHost::MboxHost(Simulator& sim, MboxHostConfig cfg) : sim_(&sim), cfg_(cfg) {
  auto& reg = telemetry::MetricsRegistry::global();
  m_instantiations_ = &reg.counter("mbox.host.instantiations");
  m_instantiation_failures_ = &reg.counter("mbox.host.instantiation_failures");
  m_crashes_ = &reg.counter("mbox.host.crashes");
  m_memory_in_use_ = &reg.gauge("mbox.host.memory_in_use");
  m_instances_ = &reg.gauge("mbox.host.instances");
}

MboxHost::~MboxHost() { withdraw_gauges(); }

void MboxHost::withdraw_gauges() {
  m_memory_in_use_->add(-memory_in_use_);
  m_instances_->add(-static_cast<std::int64_t>(owned_.size()));
}

void MboxHost::instantiate(std::unique_ptr<Middlebox> mbox,
                           std::function<void(Middlebox*)> ready) {
  instantiate(std::move(mbox), std::move(ready), telemetry::TraceContext{},
              {});
}

void MboxHost::instantiate(std::unique_ptr<Middlebox> mbox,
                           std::function<void(Middlebox*)> ready,
                           const telemetry::TraceContext& trace,
                           std::string_view node) {
  // The span closes when the readiness event fires, so its extent is the
  // instantiation delay itself. shared_ptr: Span is move-only, the callback
  // is a copyable std::function.
  std::shared_ptr<telemetry::Span> span;
  if (trace.valid()) {
    span = std::make_shared<telemetry::Span>(
        telemetry::SpanRecorder::global().start(
            "mbox_instantiate", "mbox", mbox != nullptr ? mbox->name() : "",
            trace, node));
  }
  if (span != nullptr) {
    auto inner = std::move(ready);
    ready = [span, inner = std::move(inner)](Middlebox* m) {
      span->finish();
      inner(m);
    };
  }
  if (crashed_ ||
      memory_in_use_ + cfg_.memory_per_instance > cfg_.memory_budget) {
    m_instantiation_failures_->inc();
    sim_->schedule_after(0, SimCategory::kMbox,
                         [ready = std::move(ready)] { ready(nullptr); });
    return;
  }
  memory_in_use_ += cfg_.memory_per_instance;
  Middlebox* raw = mbox.get();
  owned_.push_back(std::move(mbox));
  m_instantiations_->inc();
  m_memory_in_use_->add(cfg_.memory_per_instance);
  m_instances_->add(1);
  // A crash between now and the readiness event frees the instance; deliver
  // nullptr instead of the dangling pointer in that case.
  const int gen = crashes_;
  sim_->schedule_after(cfg_.instantiation_delay, SimCategory::kMbox,
                       [this, gen, raw, ready = std::move(ready)] {
                         ready(gen == crashes_ ? raw : nullptr);
                       });
}

bool MboxHost::destroy(Middlebox* mbox) {
  const auto it = std::find_if(
      owned_.begin(), owned_.end(),
      [mbox](const std::unique_ptr<Middlebox>& p) { return p.get() == mbox; });
  if (it == owned_.end()) return false;
  owned_.erase(it);
  memory_in_use_ -= cfg_.memory_per_instance;
  m_memory_in_use_->add(-cfg_.memory_per_instance);
  m_instances_->add(-1);
  return true;
}

Chain& MboxHost::create_chain(const std::string& id) {
  auto chain = std::make_unique<Chain>(id, cfg_.per_packet_delay);
  Chain& ref = *chain;
  chains_[id] = std::move(chain);
  return ref;
}

Chain* MboxHost::chain(const std::string& id) {
  const auto it = chains_.find(id);
  return it == chains_.end() ? nullptr : it->second.get();
}

bool MboxHost::destroy_chain(const std::string& id) {
  return chains_.erase(id) > 0;
}

void MboxHost::crash() {
  if (crashed_) return;
  crashed_ = true;
  ++crashes_;
  withdraw_gauges();
  owned_.clear();
  chains_.clear();
  memory_in_use_ = 0;
  m_crashes_->inc();
  if (crash_listener_) crash_listener_();
}

}  // namespace pvn
