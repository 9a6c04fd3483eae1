#include "pvn/server.h"

#include <algorithm>
#include <utility>

#include "mbox/checkpoint.h"
#include "proto/http.h"
#include "pvn/standby.h"

namespace pvn {
namespace {

// The retry-after hint of a kBusy or kOutOfMemory NACK.
constexpr SimDuration kBusyRetryAfter = milliseconds(500);
// Spacing of the follow-up sweeps that drain a capped expiry backlog.
constexpr SimDuration kSweepDrainInterval = milliseconds(10);
// How long a migrating deploy waits for the old server's kStateTransfer
// before acking with a cold chain.
constexpr SimDuration kHandoffTimeout = milliseconds(500);
// Consecutive contradicting checkpoint acks that demote a standby pool.
constexpr int kByzantineAckThreshold = 3;

}  // namespace

DeploymentServer::DeploymentServer(Host& host, PvnStore& store,
                                   MboxHost& mbox_host, Controller& controller,
                                   Ledger& ledger, ServerConfig cfg)
    : host_(&host),
      store_(&store),
      mbox_host_(&mbox_host),
      controller_(&controller),
      ledger_(&ledger),
      cfg_(std::move(cfg)) {
  telemetry::SpanRecorder::global().set_clock(&host_->sim());
  host_->bind_udp(kPvnPort, [this](Ipv4Addr src, Port sport, Port,
                                   const Bytes& payload) {
    on_packet(src, sport, payload);
  });
  for (const StandbyPoolConfig& pc : cfg_.standbys) {
    if (pc.host != nullptr) pools_.push_back({pc.host, pc.addr, false, 0});
  }
  mbox_host_->set_crash_listener([this] { on_host_crash(*mbox_host_); });
  for (StandbyPool& pool : pools_) {
    pool.host->set_crash_listener(
        [this, host = pool.host] { on_host_crash(*host); });
  }
}

DeploymentServer::~DeploymentServer() {
  if (sweep_timer_ != kInvalidEventId) host_->sim().cancel(sweep_timer_);
  for (auto& [device_id, dep] : deployments_) stop_checkpoints(dep);
  for (auto& [device_id, dep] : inflight_) host_->sim().cancel(dep.handoff_timer);
  mbox_host_->set_crash_listener(nullptr);
  for (StandbyPool& pool : pools_) pool.host->set_crash_listener(nullptr);
  host_->unbind_udp(kPvnPort);
}

void DeploymentServer::on_packet(Ipv4Addr src, Port sport,
                                 const Bytes& payload) {
  const auto frame = unwrap_frame(payload);
  if (!frame) return;
  switch (frame->type) {
    case PvnMsgType::kDiscovery: {
      if (const auto dm = DiscoveryMessage::decode(frame->body)) {
        handle_discovery(src, sport, *dm, frame->trace);
      }
      break;
    }
    case PvnMsgType::kDeployRequest: {
      if (auto req = DeployRequest::decode(frame->body)) {
        resolve_and_deploy(src, sport, std::move(*req), frame->trace);
      }
      break;
    }
    case PvnMsgType::kTeardown: {
      if (const auto td = Teardown::decode(frame->body)) {
        handle_teardown(src, sport, *td, frame->trace);
      }
      break;
    }
    case PvnMsgType::kLeaseRenew: {
      if (const auto renew = LeaseRenew::decode(frame->body)) {
        handle_renew(src, sport, *renew, frame->trace);
      }
      break;
    }
    case PvnMsgType::kStateRequest: {
      if (const auto sr = StateRequest::decode(frame->body)) {
        handle_state_request(src, sport, *sr, frame->trace);
      }
      break;
    }
    case PvnMsgType::kStateTransfer: {
      if (const auto xfer = StateTransfer::decode(frame->body)) {
        handle_state_transfer(*xfer, frame->trace);
      }
      break;
    }
    case PvnMsgType::kStateAck: {
      if (const auto sa = StateAck::decode(frame->body)) {
        handle_state_ack(*sa);
      }
      break;
    }
    default:
      break;
  }
}

void DeploymentServer::handle_discovery(Ipv4Addr src, Port sport,
                                        const DiscoveryMessage& dm,
                                        const telemetry::TraceContext& trace) {
  discoveries_.inc();
  // Standards must intersect.
  bool standards_ok = false;
  for (const std::string& s : dm.standards) {
    if (std::find(kPvnStandards.begin(), kPvnStandards.end(), s) !=
        kPvnStandards.end()) {
      standards_ok = true;
      break;
    }
  }
  if (!standards_ok) return;  // unsupported devices get silence

  Offer offer;
  offer.seq = dm.seq;
  offer.deployment_server = host_->addr();
  offer.standards = kPvnStandards;
  for (const std::string& module : dm.modules) {
    if (!store_->has(module)) continue;
    if (!cfg_.allowed_modules.empty() &&
        !cfg_.allowed_modules.contains(module)) {
      continue;
    }
    offer.offered_modules.push_back(module);
  }
  offer.total_price =
      store_->price_of(offer.offered_modules) * cfg_.price_multiplier;
  offer.expires_at = host_->sim().now() + cfg_.offer_ttl;
  offer.standby_capacity = standby_available();
  // Advertise terms up front so the device can vet them before paying.
  offer.lease_duration = cfg_.lease_duration;
  offer.capacity_bytes =
      std::max<std::int64_t>(0, mbox_host_->memory_budget() -
                                    mbox_host_->memory_in_use());
  m_offers_sent_->inc();
  host_->send_udp(src, kPvnPort, sport,
                  wrap(PvnMsgType::kOffer, offer.encode(), trace), 0,
                  trace.trace_id);
}

void DeploymentServer::nack(Ipv4Addr dst, Port dport, std::uint32_t seq,
                            const std::string& reason, NackCode code,
                            SimDuration retry_after,
                            const telemetry::TraceContext& trace) {
  nacks_.inc();
  telemetry::MetricsRegistry::global()
      .counter("pvn.server.nacks_by_code", to_string(code))
      .inc();
  DeployNack nack_msg;
  nack_msg.seq = seq;
  nack_msg.reason = reason;
  nack_msg.code = code;
  nack_msg.retry_after = retry_after;
  host_->send_udp(dst, kPvnPort, dport,
                  wrap(PvnMsgType::kDeployNack, nack_msg.encode(), trace), 0,
                  trace.trace_id);
}

void DeploymentServer::resolve_and_deploy(
    Ipv4Addr src, Port sport, DeployRequest req,
    const telemetry::TraceContext& trace) {
  if (req.pvnc_uri.empty()) {
    handle_deploy(src, sport, req, trace);
    return;
  }
  Ipv4Addr storage;
  std::string path;
  if (!parse_pvnc_uri(req.pvnc_uri, storage, path)) {
    nack(src, sport, req.seq, "malformed pvnc uri", NackCode::kInvalidPvnc, 0,
         trace);
    return;
  }
  if (http_ == nullptr) http_ = std::make_unique<HttpClient>(*host_);
  http_->fetch(storage, 80, path,
               [this, src, sport, trace, req = std::move(req)](
                   const HttpResponse& resp, const FetchTiming& t) mutable {
                 if (!t.ok) {
                   nack(src, sport, req.seq, "pvnc uri unreachable",
                        NackCode::kUnavailable, 0, trace);
                   return;
                 }
                 const auto fetched = Pvnc::decode(resp.body);
                 if (!fetched) {
                   nack(src, sport, req.seq, "pvnc uri object malformed",
                        NackCode::kInvalidPvnc, 0, trace);
                   return;
                 }
                 req.pvnc = *fetched;
                 // URI-mode deployments accept the provider's allowed
                 // subset implicitly (the device never saw the offer
                 // against this object's full module list).
                 if (!cfg_.allowed_modules.empty()) {
                   std::vector<std::string> allowed(
                       cfg_.allowed_modules.begin(),
                       cfg_.allowed_modules.end());
                   req.pvnc = restrict_to_modules(req.pvnc, allowed);
                 }
                 req.pvnc_uri.clear();
                 handle_deploy(src, sport, req, trace);
               });
}

void DeploymentServer::handle_deploy(Ipv4Addr src, Port sport,
                                     const DeployRequest& req,
                                     const telemetry::TraceContext& trace) {
  if (drop_deploys_) return;  // failure injection: silent server
  // Idempotence: a retransmission of an acked request gets the cached ack
  // (the first ack may have been lost); one still in flight is dropped.
  // Retransmissions are byte-identical (the client re-sends the encoded
  // request verbatim), which distinguishes them from a fresh client session
  // that happens to reuse a sequence number with a different PVNC.
  const Bytes req_bytes = req.encode();
  if (const auto it = deployments_.find(req.device_id);
      it != deployments_.end() && it->second.seq == req.seq &&
      it->second.request_bytes == req_bytes &&
      !it->second.ack_bytes.empty()) {
    duplicates_.inc();
    host_->send_udp(src, kPvnPort, sport, it->second.ack_bytes);
    return;
  }
  if (const auto it = inflight_.find(req.device_id);
      it != inflight_.end() && it->second.request_bytes == req_bytes) {
    duplicates_.inc();
    return;  // the in-flight deployment will answer
  }
  // Admission control (load shedding): a bounded in-flight queue. Excess
  // requests get an explicit kBusy NAK with a retry-after hint — the flash
  // crowd backs off instead of retransmitting into silence.
  if (cfg_.max_pending_deploys > 0 &&
      inflight_.size() >= cfg_.max_pending_deploys &&
      !inflight_.contains(req.device_id)) {
    sheds_.inc();
    telemetry::SpanRecorder::global().instant("deploy_shed", "pvn",
                                              req.device_id, trace,
                                              host_->name());
    nack(src, sport, req.seq, "server busy", NackCode::kBusy, kBusyRetryAfter,
         trace);
    return;
  }
  // Validate against the store.
  const std::vector<std::string> problems = validate_pvnc(req.pvnc, store_);
  if (!problems.empty()) {
    nack(src, sport, req.seq, "invalid pvnc: " + problems.front(),
         NackCode::kInvalidPvnc, 0, trace);
    return;
  }
  // Policy check: every module must be allowed here.
  for (const std::string& module : req.pvnc.module_names()) {
    if (!cfg_.allowed_modules.empty() &&
        !cfg_.allowed_modules.contains(module)) {
      nack(src, sport, req.seq, "module not allowed: " + module,
           NackCode::kPolicy, 0, trace);
      return;
    }
  }
  // Payment check.
  const double price =
      store_->price_of(req.pvnc.module_names()) * cfg_.price_multiplier;
  if (req.payment + 1e-9 < price) {
    nack(src, sport, req.seq, "insufficient payment", NackCode::kPayment, 0,
         trace);
    return;
  }
  if (mbox_host_->crashed()) {
    nack(src, sport, req.seq, "middlebox host unavailable",
         NackCode::kUnavailable, 0, trace);
    return;
  }
  // Memory admission control, priced at the host's actual per-instance cost
  // (the PVNC's own estimate assumes the default 6 MiB and can undershoot a
  // host configured with heavier instances, which used to let a deploy past
  // admission only to fail — and leak — mid-instantiation).
  const std::int64_t chain_cost =
      static_cast<std::int64_t>(req.pvnc.chain.size()) *
      mbox_host_->config().memory_per_instance;
  if (mbox_host_->memory_in_use() + chain_cost >
      mbox_host_->memory_budget()) {
    nack(src, sport, req.seq, "out of middlebox memory",
         NackCode::kOutOfMemory, kBusyRetryAfter, trace);
    return;
  }
  // Tear down any previous deployment for this device, and abandon a
  // different deploy of it still in flight.
  teardown_device(req.device_id);

  Deployment& dep = inflight_[req.device_id];
  // Spans the instantiate -> compile -> program-switch -> ack pipeline on
  // the server's side of the session track, stitched under the client's
  // deploy phase via the request frame's TraceContext.
  dep.span = telemetry::SpanRecorder::global().start(
      "server_deploy", "pvn", req.device_id, trace, host_->name());
  dep.chain_id = "chain:" + req.device_id + ":" + std::to_string(chain_seq_++);
  dep.cookie = "pvn:" + req.device_id;
  dep.reply_addr = src;
  dep.reply_port = sport;
  dep.price = price;
  dep.handoff_server = req.handoff_server;
  dep.handoff_chain_id = req.handoff_chain_id;
  dep.seq = req.seq;
  dep.required_modules = req.required_modules;
  dep.request_bytes = req_bytes;
  dep.pvnc = req.pvnc;

  std::vector<std::unique_ptr<Middlebox>> modules;
  if (const std::string missing = make_modules(req.pvnc, modules);
      !missing.empty()) {
    fail(req.device_id, "cannot instantiate " + missing,
         NackCode::kInvalidPvnc, 0);
    return;
  }
  // Each module charges the instantiation delay.
  const std::string chain_id = dep.chain_id;
  const telemetry::TraceContext deploy_trace = dep.trace();
  mbox_host_->build_chain(
      chain_id, std::move(modules),
      [this, device_id = req.device_id, chain_id](Chain* chain) {
        on_chain_built(device_id, chain_id, chain);
      },
      deploy_trace, host_->name());
}

DeploymentServer::Deployment* DeploymentServer::in_flight(
    const std::string& device_id, const std::string& chain_id) {
  const auto it = inflight_.find(device_id);
  return it != inflight_.end() && it->second.chain_id == chain_id
             ? &it->second
             : nullptr;
}

void DeploymentServer::on_chain_built(const std::string& device_id,
                                      const std::string& chain_id,
                                      Chain* chain) {
  Deployment* dep = in_flight(device_id, chain_id);
  if (dep == nullptr) {
    // Abandoned while building: free what landed.
    if (chain != nullptr) mbox_host_->destroy_chain(chain_id);
    return;
  }
  if (chain == nullptr) {
    if (dep->primary_crashed) {
      fail(device_id, "middlebox host unavailable", NackCode::kUnavailable, 0);
    } else {
      fail(device_id, "out of middlebox memory", NackCode::kOutOfMemory,
           kBusyRetryAfter);
    }
    return;
  }
  telemetry::Span compile_span = telemetry::SpanRecorder::global().start(
      "compile", "pvn", device_id, dep->trace(), host_->name());
  DeploymentContext ctx;
  ctx.device = dep->reply_addr;
  ctx.client_port = cfg_.client_port_for ? cfg_.client_port_for(ctx.device)
                                         : cfg_.switch_client_port;
  ctx.wan_port = cfg_.switch_wan_port;
  ctx.chain_id = chain_id;
  ctx.cookie = dep->cookie;
  ctx.control = host_->addr();
  ctx.control_port = cfg_.switch_control_port;
  const CompiledPvnc compiled = compile_pvnc(dep->pvnc, ctx);
  compile_span.finish();

  SdnSwitch* sw = controller_->switch_by_name(cfg_.switch_name);
  if (sw == nullptr) {
    mbox_host_->destroy_chain(chain_id);
    fail(device_id, "no dataplane", NackCode::kUnavailable, 0);
    return;
  }
  // From here the switch diverts into the chain: a crash before the ack
  // must unhook it at once and fail the deploy.
  sw->register_processor(chain_id, chain);
  dep->phase = Deployment::Phase::kInstalling;
  for (const MeterSpec& meter : compiled.meters) {
    controller_->add_meter(cfg_.switch_name, meter.id, meter.rate,
                           meter.burst_bytes);
  }
  // compile_pvnc always emits the divert and forwarding rules, so the last
  // rule's callback moves the deploy on.
  dep->rules_pending = compiled.rules.size();
  for (const auto& [table, rule] : compiled.rules) {
    controller_->install_rule(cfg_.switch_name, table, rule,
                              [this, device_id, chain_id](bool) {
                                on_rule_installed(device_id, chain_id);
                              });
  }
}

void DeploymentServer::on_rule_installed(const std::string& device_id,
                                         const std::string& chain_id) {
  Deployment* dep = in_flight(device_id, chain_id);
  if (dep == nullptr || --dep->rules_pending > 0) return;
  // The dataplane is programmed: a migrating device first pulls its session
  // state from the old server; everyone else is acked with a cold chain.
  if (dep->handoff_server.is_unspecified()) {
    ack(device_id, false);
  } else {
    begin_handoff(device_id, *dep);
  }
}

void DeploymentServer::ack(const std::string& device_id, bool state_restored) {
  auto node = inflight_.extract(device_id);
  Deployment& dep = node.mapped();
  dep.phase = Deployment::Phase::kLive;
  if (cfg_.lease_duration > 0) {
    dep.expires_at = host_->sim().now() + cfg_.lease_duration;
  }
  DeployAck ack_msg;
  ack_msg.seq = dep.seq;
  ack_msg.chain_id = dep.chain_id;
  ack_msg.lease_duration = cfg_.lease_duration;
  ack_msg.standby = standby_available();
  ack_msg.state_restored = state_restored;
  dep.ack_bytes = wrap(PvnMsgType::kDeployAck, ack_msg.encode(), dep.trace());
  deploy_count_.inc();
  if (dep.price > 0.0) {
    ledger_->charge(host_->sim().now(), device_id, cfg_.network_name,
                    dep.price, "pvn deployment " + dep.chain_id);
  }
  host_->send_udp(dep.reply_addr, kPvnPort, dep.reply_port, dep.ack_bytes, 0,
                  dep.trace().trace_id);
  dep.span.finish();
  deployments_.insert(std::move(node));
  arm_sweep();
  setup_standby(device_id);
}

void DeploymentServer::fail(const std::string& device_id,
                            const std::string& reason, NackCode code,
                            SimDuration retry_after) {
  const auto it = inflight_.find(device_id);
  nack(it->second.reply_addr, it->second.reply_port, it->second.seq, reason,
       code, retry_after, it->second.trace());
  inflight_.erase(it);  // closes the deploy span
}

std::string DeploymentServer::make_modules(
    const Pvnc& pvnc, std::vector<std::unique_ptr<Middlebox>>& out) const {
  for (const PvncModule& module : pvnc.chain) {
    if (module.store_name == skip_module_) continue;  // dishonest ISP model
    std::unique_ptr<Middlebox> instance =
        store_->make(module.store_name, module.params);
    if (instance == nullptr) return module.store_name;
    out.push_back(std::move(instance));
  }
  return "";
}

void DeploymentServer::teardown_device(const std::string& device_id) {
  if (const auto it = inflight_.find(device_id); it != inflight_.end()) {
    unhook(it->second);
    inflight_.erase(it);
  }
  const auto it = deployments_.find(device_id);
  if (it == deployments_.end()) return;
  unhook(it->second);
  release_standby(it->second);
  deployments_.erase(it);
}

void DeploymentServer::unhook(Deployment& dep) {
  if (dep.phase == Deployment::Phase::kBuilding) return;
  controller_->remove_by_cookie(dep.cookie);
  if (SdnSwitch* sw = controller_->switch_by_name(cfg_.switch_name)) {
    sw->unregister_processor(dep.chain_id);
  }
  mbox_host_->destroy_chain(dep.chain_id);
  host_->sim().cancel(std::exchange(dep.handoff_timer, kInvalidEventId));
}

void DeploymentServer::handle_teardown(Ipv4Addr src, Port sport,
                                       const Teardown& td,
                                       const telemetry::TraceContext& trace) {
  teardown_device(td.device_id);
  if (sport != 0) {
    host_->send_udp(src, kPvnPort, sport,
                    wrap(PvnMsgType::kTeardownAck, Bytes{}, trace), 0,
                    trace.trace_id);
  }
}

void DeploymentServer::handle_renew(Ipv4Addr src, Port sport,
                                    const LeaseRenew& renew,
                                    const telemetry::TraceContext& trace) {
  LeaseAck ack;
  ack.seq = renew.seq;
  const auto it = deployments_.find(renew.device_id);
  if (it == deployments_.end() || it->second.chain_id != renew.chain_id) {
    ack.ok = false;
    ack.reason = "no such deployment";
  } else {
    Deployment& dep = it->second;
    ack.ok = true;
    ack.lease_duration = cfg_.lease_duration;
    if (cfg_.lease_duration > 0) {
      dep.expires_at = host_->sim().now() + cfg_.lease_duration;
    }
    if (dep.degraded) ack.degraded_modules = dep.pvnc.module_names();
    renews_.inc();
  }
  host_->send_udp(src, kPvnPort, sport,
                  wrap(PvnMsgType::kLeaseAck, ack.encode(), trace), 0,
                  trace.trace_id);
}

DeploymentServer::DeploymentView DeploymentServer::deployment_view(
    const std::string& device_id) const {
  DeploymentView v;
  const auto it = deployments_.find(device_id);
  if (it == deployments_.end()) return v;
  const Deployment& dep = it->second;
  v.found = true;
  v.device_id = device_id;
  v.chain_id = dep.chain_id;
  v.switch_name = cfg_.switch_name;
  v.modules = dep.pvnc.module_names();
  if (dep.standby_pool >= 0 &&
      dep.standby_pool < static_cast<int>(pools_.size())) {
    v.standby_host = pools_[dep.standby_pool].addr.to_string();
  }
  v.lease_expires_at = dep.expires_at;
  v.degraded = dep.degraded;
  v.standby_ready = dep.standby_ready;
  v.promoted = dep.promoted;
  v.standby_pool = dep.standby_pool;
  v.checkpoint_seq = dep.ckpt_seq;
  return v;
}

std::vector<std::string> DeploymentServer::deployed_devices() const {
  std::vector<std::string> out;
  out.reserve(deployments_.size());
  for (const auto& [id, dep] : deployments_) out.push_back(id);
  return out;  // deployments_ is an ordered map: already sorted
}

bool DeploymentServer::force_promote(const std::string& device_id) {
  const auto it = deployments_.find(device_id);
  if (it == deployments_.end()) return false;
  Deployment& dep = it->second;
  // The primary stays healthy; the switch just stops using it.
  return dep.promoted || promote(device_id, dep);
}

bool DeploymentServer::promote(const std::string& device_id, Deployment& dep) {
  Chain* standby = dep.standby_ready
                       ? pools_[dep.standby_pool].host->chain(dep.chain_id)
                       : nullptr;
  if (standby == nullptr) return false;
  dep.promoted = true;
  stop_checkpoints(dep);
  // The promotion is a child span of the owning deploy trace, so a stitched
  // get-trace shows where the session's chain moved and why.
  telemetry::Span promo = telemetry::SpanRecorder::global().start(
      "standby_promotion", "pvn", device_id, dep.trace(), host_->name());
  controller_->promote_chain(cfg_.switch_name, dep.chain_id, standby);
  standby_promotions_.inc();
  telemetry::SpanRecorder::global().instant("standby_promoted", "pvn",
                                            device_id, promo.context(),
                                            host_->name());
  promo.finish();
  return true;
}

void DeploymentServer::on_host_crash(const MboxHost& host) {
  // Runs synchronously from host.crash(): its chains are gone.
  if (&host == mbox_host_) {
    // A deploy still building fails when its modules land. One whose chain
    // the switch already diverts into is unhooked now and NACKed, in chain
    // id order.
    std::vector<std::pair<std::string, std::string>> hooked;  // chain, device
    for (auto& [device_id, dep] : inflight_) {
      dep.primary_crashed = true;
      if (dep.phase != Deployment::Phase::kBuilding) {
        hooked.emplace_back(dep.chain_id, device_id);
      }
    }
    std::sort(hooked.begin(), hooked.end());
    for (const auto& [chain_id, device_id] : hooked) {
      unhook(inflight_.at(device_id));
      fail(device_id, "middlebox host unavailable", NackCode::kUnavailable, 0);
    }
  }
  SdnSwitch* sw = controller_->switch_by_name(cfg_.switch_name);
  std::vector<std::string> to_teardown;
  std::vector<std::string> to_remirror;
  for (auto& [device_id, dep] : deployments_) {
    if (dep.standby_pool >= 0 && pools_[dep.standby_pool].host == &host) {
      // The standby chain is gone, ready or still building.
      release_standby(dep);
      standbys_lost_.inc();
      if (!dep.promoted) {  // the primary still serves: re-mirror
        to_remirror.push_back(device_id);
        continue;
      }
    } else if (dep.promoted || &host != mbox_host_) {
      continue;  // the live chain runs on another host
    }
    // The live chain died. Warm standby first: promote it through the
    // controller so the client sees one control-RTT of elevated latency
    // instead of losing the chain.
    if (sw != nullptr) sw->unregister_processor(dep.chain_id);
    if (!promote(device_id, dep) && degrade_or_flag_teardown(device_id, dep)) {
      to_teardown.push_back(device_id);
    }
  }
  for (const std::string& device_id : to_teardown) {
    chains_lost_.inc();
    telemetry::SpanRecorder::global().instant(
        "chain_lost", "pvn", device_id, deployments_.at(device_id).trace(),
        host_->name());
    teardown_device(device_id);
  }
  for (const std::string& device_id : to_remirror) setup_standby(device_id);
}

bool DeploymentServer::degrade_or_flag_teardown(const std::string& device_id,
                                                Deployment& dep) {
  // Can the deployment limp along without its chain? Only if no module
  // the client marked as required just died.
  const std::vector<std::string> modules = dep.pvnc.module_names();
  for (const std::string& module : dep.required_modules) {
    if (std::find(modules.begin(), modules.end(), module) != modules.end()) {
      return true;
    }
  }
  if (dep.degraded) return true;
  // Graceful degradation: strip only the chain-divert rules so traffic
  // flows past the dead chain; policies (drop/rate/mark) stay.
  dep.degraded = true;
  controller_->bypass_chain(dep.cookie, dep.chain_id);
  degraded_.inc();
  telemetry::SpanRecorder::global().instant("chain_degraded", "pvn",
                                            device_id, dep.trace(),
                                            host_->name());
  return false;
}

void DeploymentServer::arm_sweep() {
  if (cfg_.lease_duration <= 0 || sweep_timer_ != kInvalidEventId) return;
  if (deployments_.empty()) return;
  // Sweep granularity of lease/4 bounds how stale an expired deployment
  // can linger at one quarter-lease.
  sweep_timer_ = host_->sim().schedule_after(cfg_.lease_duration / 4, SimCategory::kPvnControl, [this] {
    sweep_timer_ = kInvalidEventId;
    sweep();
  });
}

void DeploymentServer::sweep() {
  if (sweep_paused_) {
    // Planted-bug hook: keep the timer cadence but reclaim nothing, so
    // expired leases go stale for the invariant auditor to catch.
    arm_sweep();
    return;
  }
  const SimTime now = host_->sim().now();
  ++sweep_ticks_;
  std::vector<std::string> expired;
  bool backlog = false;
  for (const auto& [device_id, dep] : deployments_) {
    if (dep.expires_at == 0 || now < dep.expires_at) continue;
    // Amortization: a mass expiry (thousands of leases lapsing in the same
    // tick) is drained in bounded batches so one sweep cannot monopolize
    // the event loop; the remainder reschedules at the drain interval.
    if (cfg_.max_expiries_per_sweep > 0 &&
        expired.size() >= cfg_.max_expiries_per_sweep) {
      backlog = true;
      break;
    }
    expired.push_back(device_id);
  }
  max_swept_per_tick_ = std::max<std::uint64_t>(max_swept_per_tick_,
                                                expired.size());
  for (const std::string& device_id : expired) {
    leases_expired_.inc();
    telemetry::SpanRecorder::global().instant(
        "lease_expired", "pvn", device_id, deployments_.at(device_id).trace(),
        host_->name());
    teardown_device(device_id);
  }
  if (backlog && sweep_timer_ == kInvalidEventId) {
    sweep_timer_ = host_->sim().schedule_after(
        kSweepDrainInterval, SimCategory::kPvnControl, [this] {
          sweep_timer_ = kInvalidEventId;
          sweep();
        });
    return;
  }
  arm_sweep();
}

// --- survivability ---------------------------------------------------------

int DeploymentServer::pick_standby_pool() const {
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    if (pools_[i].byzantine || pools_[i].host->crashed()) continue;
    return static_cast<int>(i);
  }
  return -1;
}

void DeploymentServer::setup_standby(const std::string& device_id) {
  const int pool = pick_standby_pool();
  if (pool < 0) return;
  const auto it = deployments_.find(device_id);
  if (it == deployments_.end()) return;
  Deployment& dep = it->second;
  dep.standby_pool = pool;
  std::vector<std::unique_ptr<Middlebox>> modules;
  if (!make_modules(dep.pvnc, modules).empty()) {
    return;  // store changed under us; no spare
  }
  MboxHost* standby = pools_[pool].host;
  const std::string chain_id = dep.chain_id;
  standby->build_chain(
      chain_id, std::move(modules),
      [this, device_id, chain_id, standby, pool](Chain* chain) {
        if (chain == nullptr) return;  // standby pool crashed or out of memory
        const auto dit = deployments_.find(device_id);
        if (dit == deployments_.end() || dit->second.chain_id != chain_id ||
            dit->second.standby_pool != pool) {
          // Deployment vanished meanwhile (teardown / redeploy) or moved
          // its mirror: release the spare capacity.
          standby->destroy_chain(chain_id);
          return;
        }
        dit->second.standby_ready = true;
        standbys_ready_.inc();
        telemetry::SpanRecorder::global().instant(
            "standby_ready", "pvn", device_id, dit->second.trace(),
            host_->name());
        arm_checkpoint(device_id);
      },
      dep.trace(), host_->name());
}

void DeploymentServer::arm_checkpoint(const std::string& device_id) {
  if (cfg_.checkpoint_interval <= 0) return;  // cold standby
  const auto it = deployments_.find(device_id);
  if (it == deployments_.end() || it->second.ckpt_timer != kInvalidEventId) {
    return;
  }
  it->second.ckpt_timer = host_->sim().schedule_after(
      cfg_.checkpoint_interval, SimCategory::kPvnControl, [this, device_id] {
        const auto dit = deployments_.find(device_id);
        if (dit == deployments_.end()) return;
        dit->second.ckpt_timer = kInvalidEventId;
        stream_checkpoint(device_id);
      });
}

void DeploymentServer::stream_checkpoint(const std::string& device_id) {
  const auto it = deployments_.find(device_id);
  if (it == deployments_.end()) return;
  Deployment& dep = it->second;
  if (dep.promoted || !dep.standby_ready || dep.degraded) return;
  Chain* chain = mbox_host_->chain(dep.chain_id);
  if (chain == nullptr) return;  // primary gone
  const ChainCheckpoint ckpt = capture_chain(*chain, ++dep.ckpt_seq,
                                             host_->sim().now(),
                                             &dep.ckpt_digests);
  StateTransfer xfer;
  xfer.seq = static_cast<std::uint32_t>(ckpt.seq);
  xfer.device_id = device_id;
  xfer.chain_id = dep.chain_id;
  xfer.ok = true;
  xfer.checkpoint = ckpt.encode();
  // Remember what went out so the standby's kStateAck can be cross-checked.
  dep.last_sent_seq = xfer.seq;
  dep.last_sent_digest = digest_of(xfer.checkpoint);
  checkpoints_streamed_.inc();
  checkpoint_bytes_.inc(xfer.checkpoint.size());
  host_->send_udp(pools_[dep.standby_pool].addr, kPvnPort, kPvnStandbyPort,
                  wrap(PvnMsgType::kStateTransfer, xfer.encode(), dep.trace()),
                  0, dep.trace().trace_id);
  arm_checkpoint(device_id);
}

void DeploymentServer::stop_checkpoints(Deployment& dep) {
  host_->sim().cancel(std::exchange(dep.ckpt_timer, kInvalidEventId));
}

void DeploymentServer::release_standby(Deployment& dep) {
  stop_checkpoints(dep);
  if (dep.standby_pool >= 0) {
    pools_[dep.standby_pool].host->destroy_chain(dep.chain_id);
  }
  dep.standby_ready = false;
  dep.standby_pool = -1;
}

void DeploymentServer::begin_handoff(const std::string& device_id,
                                     Deployment& dep) {
  dep.phase = Deployment::Phase::kHandoff;
  dep.handoff_seq = ++state_seq_;
  dep.handoff_timer = host_->sim().schedule_after(
      kHandoffTimeout, SimCategory::kPvnControl,
      [this, device_id, chain_id = dep.chain_id] {
        Deployment* d = in_flight(device_id, chain_id);
        if (d == nullptr) return;
        d->handoff_timer = kInvalidEventId;
        handoff_timeouts_.inc();
        telemetry::SpanRecorder::global().instant(
            "handoff_timeout", "pvn", device_id, d->trace(), host_->name());
        ack(device_id, false);  // old server unreachable: ack with a cold chain
      });
  StateRequest sr;
  sr.seq = dep.handoff_seq;
  sr.device_id = device_id;
  sr.chain_id = dep.handoff_chain_id;
  telemetry::SpanRecorder::global().instant("handoff_begin", "pvn", device_id,
                                            dep.trace(), host_->name());
  host_->send_udp(dep.handoff_server, kPvnPort, kPvnPort,
                  wrap(PvnMsgType::kStateRequest, sr.encode(), dep.trace()), 0,
                  dep.trace().trace_id);
}

void DeploymentServer::handle_state_request(
    Ipv4Addr src, Port sport, const StateRequest& sr,
    const telemetry::TraceContext& trace) {
  StateTransfer xfer;
  xfer.seq = sr.seq;
  xfer.device_id = sr.device_id;
  xfer.chain_id = sr.chain_id;
  const auto it = deployments_.find(sr.device_id);
  if (it != deployments_.end() && it->second.chain_id == sr.chain_id) {
    Deployment& dep = it->second;
    // The authoritative chain: the standby if traffic was promoted there,
    // otherwise the primary (unless it died or was bypassed).
    Chain* chain = nullptr;
    if (dep.promoted && dep.standby_pool >= 0) {
      chain = pools_[dep.standby_pool].host->chain(dep.chain_id);
    } else if (!dep.promoted && !dep.degraded) {
      chain = mbox_host_->chain(dep.chain_id);
    }
    if (chain != nullptr) {
      const ChainCheckpoint ckpt =
          capture_chain(*chain, ++dep.ckpt_seq, host_->sim().now());
      xfer.ok = true;
      xfer.checkpoint = ckpt.encode();
      state_requests_.inc();
      telemetry::SpanRecorder::global().instant("state_transfer_out", "pvn",
                                                sr.device_id, trace,
                                                host_->name());
    }
  }
  host_->send_udp(src, kPvnPort, sport,
                  wrap(PvnMsgType::kStateTransfer, xfer.encode(), trace), 0,
                  trace.trace_id);
}

void DeploymentServer::handle_state_transfer(
    const StateTransfer& xfer, const telemetry::TraceContext& trace) {
  const auto it = inflight_.find(xfer.device_id);
  if (it == inflight_.end() ||
      it->second.phase != Deployment::Phase::kHandoff ||
      it->second.handoff_seq != xfer.seq) {
    return;
  }
  Deployment& dep = it->second;
  host_->sim().cancel(std::exchange(dep.handoff_timer, kInvalidEventId));
  bool restored = false;
  if (xfer.ok) {
    // Restore matches modules by name, so the old chain's snapshot applies
    // to the freshly deployed chain even though the chain ids differ. A
    // corrupted checkpoint decodes to nullopt: the new chain stays cold.
    if (const auto ckpt = ChainCheckpoint::decode(xfer.checkpoint)) {
      if (Chain* chain = mbox_host_->chain(dep.chain_id)) {
        restored = restore_chain(*chain, *ckpt) > 0;
      }
    }
  }
  if (restored) {
    handoffs_completed_.inc();
    // Prefer the reply frame's context (one causal hop deeper: it witnessed
    // the old server); a frame from an untraced peer falls back to the
    // pending deploy's own context.
    telemetry::SpanRecorder::global().instant(
        "handoff_complete", "pvn", xfer.device_id,
        trace.valid() ? trace : dep.trace(), host_->name());
  }
  ack(xfer.device_id, restored);
}

void DeploymentServer::handle_state_ack(const StateAck& sa) {
  const auto it = deployments_.find(sa.device_id);
  if (it == deployments_.end()) return;
  Deployment& dep = it->second;
  if (dep.chain_id != sa.chain_id || dep.standby_pool < 0) return;
  if (sa.seq != dep.last_sent_seq) return;  // stale or reordered ack
  StandbyPool& pool = pools_[dep.standby_pool];
  const auto digest = Digest::from_bytes(sa.digest);
  if (sa.applied && digest && *digest == dep.last_sent_digest) {
    pool.bad_acks = 0;  // consistent: the standby holds what was sent
    return;
  }
  // The standby claims a state it cannot prove (or none at all). One bad
  // ack could be a duplicated datagram's replay rejection; a run of them
  // with no consistent ack in between is a lying or broken standby.
  bad_state_acks_.inc();
  if (++pool.bad_acks >= kByzantineAckThreshold) {
    demote_pool(dep.standby_pool, "state acks contradict streamed state");
  }
}

void DeploymentServer::demote_pool(int pool, const std::string& why) {
  StandbyPool& p = pools_[pool];
  if (p.byzantine) return;
  p.byzantine = true;
  standbys_demoted_.inc();
  telemetry::SpanRecorder::global().instant("standby_demoted", "pvn", why);
  std::vector<std::string> to_remirror;
  for (auto& [device_id, dep] : deployments_) {
    if (dep.standby_pool != pool) continue;
    // A promoted deployment is live on this pool's chain; killing it now
    // would turn a detection into an outage. It keeps serving (degraded
    // trust) until the session ends.
    if (dep.promoted) continue;
    release_standby(dep);
    to_remirror.push_back(device_id);
  }
  // Re-mirror the stranded deployments onto the next healthy pool. The
  // active sessions never notice: their primaries keep serving throughout.
  for (const std::string& device_id : to_remirror) {
    setup_standby(device_id);
    const Deployment& dep = deployments_.at(device_id);
    if (dep.standby_pool < 0) continue;
    standbys_remirrored_.inc();
    telemetry::SpanRecorder::global().instant(
        "standby_remirrored", "pvn", device_id, dep.trace(), host_->name());
  }
}

}  // namespace pvn
