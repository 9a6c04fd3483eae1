#include "mbox/host.h"

#include <algorithm>
#include <utility>

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

void Chain::append(std::unique_ptr<Middlebox> mbox) {
  append(mbox.get());
  owned_.push_back(std::move(mbox));
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

void MboxHost::charge(int n) {
  instances_ += n;
  memory_in_use_ += n * cfg_.memory_per_instance;
  m_instances_->add(n);
  m_memory_in_use_->add(n * cfg_.memory_per_instance);
}

void MboxHost::withdraw_gauges() {
  m_memory_in_use_->add(-memory_in_use_);
  m_instances_->add(-instances_);
}

// A chain under construction. Its module events share it; the last one to
// fire frees it, and with it whatever a failed build reserved.
struct MboxHost::Build {
  std::unique_ptr<Chain> chain;
  std::vector<std::unique_ptr<Middlebox>> reserved;  // in chain order
  std::function<void(Chain*)> done;  // empty once fired
  std::size_t pending = 0;           // module events yet to fire
  int epoch = 0;                     // crashes_ when the build began
  bool failed = false;
};

void MboxHost::build_chain(const std::string& id,
                           std::vector<std::unique_ptr<Middlebox>> modules,
                           std::function<void(Chain*)> done,
                           const telemetry::TraceContext& trace,
                           std::string_view node) {
  auto build = std::make_shared<Build>();
  build->chain = std::make_unique<Chain>(id, cfg_.per_packet_delay);
  build->done = std::move(done);
  build->pending = modules.size();
  build->epoch = crashes_;
  if (modules.empty()) {
    settle(*build);
    return;
  }
  for (std::unique_ptr<Middlebox>& mbox : modules) {
    // The span closes when the module's event fires, so its extent is the
    // instantiation delay itself.
    telemetry::Span span;
    if (trace.valid()) {
      span = telemetry::SpanRecorder::global().start(
          "mbox_instantiate", "mbox", mbox->name(), trace, node);
    }
    const bool fits = !crashed_ && memory_in_use_ + cfg_.memory_per_instance <=
                                       cfg_.memory_budget;
    if (fits) {
      charge(1);
      m_instantiations_->inc();
      build->reserved.push_back(std::move(mbox));
    } else {
      m_instantiation_failures_->inc();
    }
    sim_->schedule_after(fits ? cfg_.instantiation_delay : 0,
                         SimCategory::kMbox,
                         [this, build, fits, span = std::move(span)]() mutable {
                           span.finish();
                           land(*build, fits);
                         });
  }
}

void MboxHost::land(Build& build, bool up) {
  // A module that did not fit fails the build, and so does the first event
  // after a crash, which freed what the build reserved.
  if ((!up || build.epoch != crashes_) && !build.failed) {
    build.failed = true;
    std::exchange(build.done, nullptr)(nullptr);
  }
  if (--build.pending == 0) settle(build);
}

void MboxHost::settle(Build& build) {
  if (build.failed) {
    if (build.epoch == crashes_) {
      charge(-static_cast<int>(build.reserved.size()));
    }
    return;
  }
  for (std::unique_ptr<Middlebox>& mbox : build.reserved) {
    build.chain->append(std::move(mbox));
  }
  Chain* chain = build.chain.get();
  destroy_chain(chain->id());  // a chain of the same id gives way
  chains_[chain->id()] = std::move(build.chain);
  std::exchange(build.done, nullptr)(chain);
}

Chain& MboxHost::create_chain(const std::string& id) {
  destroy_chain(id);
  auto& chain = chains_[id];
  chain = std::make_unique<Chain>(id, cfg_.per_packet_delay);
  return *chain;
}

Chain* MboxHost::chain(const std::string& id) {
  const auto it = chains_.find(id);
  return it == chains_.end() ? nullptr : it->second.get();
}

bool MboxHost::destroy_chain(const std::string& id) {
  const auto it = chains_.find(id);
  if (it == chains_.end()) return false;
  charge(-static_cast<int>(it->second->instances()));
  chains_.erase(it);
  return true;
}

void MboxHost::crash() {
  if (crashed_) return;
  crashed_ = true;
  ++crashes_;
  withdraw_gauges();
  chains_.clear();
  instances_ = 0;
  memory_in_use_ = 0;
  m_crashes_->inc();
  if (crash_listener_) crash_listener_();
}

}  // namespace pvn
