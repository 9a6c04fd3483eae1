#include "ops/endpoint.h"

#include <algorithm>

#include "audit/reputation.h"
#include "netsim/network.h"
#include "ops/flight_recorder.h"
#include "ops/health.h"
#include "pvn/server.h"
#include "sdn/controller.h"
#include "telemetry/assembler.h"
#include "telemetry/span.h"
#include "util/shard.h"

namespace pvn {

OpsEndpoint::OpsEndpoint(Host& host, OpsEndpointConfig cfg)
    : host_(&host),
      cfg_(cfg),
      registry_(&telemetry::MetricsRegistry::global()) {
  auto& reg = telemetry::MetricsRegistry::global();
  reg.describe("ops.endpoint.requests",
               "Ops-protocol datagrams accepted by the endpoint");
  reg.describe("ops.endpoint.snapshots",
               "Barrier-consistent metrics snapshots served");
  reg.describe("ops.endpoint.reconfigs_applied",
               "Reconfiguration verbs actually applied (idempotent "
               "duplicates excluded)");
  reg.describe("ops.endpoint.duplicates",
               "Retransmitted reconfigurations answered from the reply "
               "cache");
  reg.describe("ops.endpoint.malformed",
               "Datagrams dropped because they failed all-or-nothing "
               "decoding");
  reg.describe("ops.endpoint.alerts",
               "Barrier-consistent health-alert queries served");
  reg.describe("ops.endpoint.causal_traces",
               "Stitched causal-trace queries served");
  host_->bind_udp(cfg_.port, [this](Ipv4Addr src, Port sport, Port,
                                    const Bytes& payload) {
    on_datagram(src, sport, payload);
  });
}

void OpsEndpoint::register_cache(std::string id, CacheWipe wipe) {
  for (auto& [name, fn] : caches_) {
    if (name == id) {
      fn = std::move(wipe);  // re-registration replaces
      return;
    }
  }
  caches_.emplace_back(std::move(id), std::move(wipe));
}

void OpsEndpoint::send(Ipv4Addr dst, Port dport, OpsMsgType type,
                       const Bytes& body) {
  host_->send_udp(dst, cfg_.port, dport, ops_wrap(type, body));
}

void OpsEndpoint::on_datagram(Ipv4Addr src, Port sport,
                              const Bytes& payload) {
  const auto msg = ops_unwrap(payload);
  if (!msg) {
    malformed_.inc();
    return;
  }
  const auto& [type, body] = *msg;
  // All-or-nothing: each handler decodes the full body before acting; a
  // truncated or bit-flipped request is dropped here, never half-applied.
  switch (type) {
    case OpsMsgType::kSnapshotRequest:
      if (const auto q = OpsSnapshotRequest::decode(body)) {
        requests_.inc();
        handle_snapshot(src, sport, *q);
        return;
      }
      break;
    case OpsMsgType::kSessionQuery:
      if (const auto q = OpsSessionQuery::decode(body)) {
        requests_.inc();
        handle_session(src, sport, *q);
        return;
      }
      break;
    case OpsMsgType::kReconfigRequest:
      if (const auto q = OpsReconfigRequest::decode(body)) {
        requests_.inc();
        handle_reconfig(src, sport, *q);
        return;
      }
      break;
    case OpsMsgType::kTraceDumpRequest:
      if (const auto q = OpsTraceDumpRequest::decode(body)) {
        requests_.inc();
        handle_trace(src, sport, *q);
        return;
      }
      break;
    case OpsMsgType::kAlertsRequest:
      if (const auto q = OpsAlertsRequest::decode(body)) {
        requests_.inc();
        handle_alerts(src, sport, *q);
        return;
      }
      break;
    case OpsMsgType::kTraceRequest:
      if (const auto q = OpsTraceRequest::decode(body)) {
        requests_.inc();
        handle_causal_trace(src, sport, *q);
        return;
      }
      break;
    default:
      break;  // reply types arriving at the server: drop
  }
  malformed_.inc();
}

void OpsEndpoint::handle_snapshot(Ipv4Addr src, Port sport,
                                  const OpsSnapshotRequest& q) {
  ShardGroup& group = host_->network().shards();
  // Cut at the earliest instant every shard can be quiesced at: one
  // lookahead past now (the same bound post() lives under). The barrier
  // callback runs on the coordinator between windows, where all shard
  // writes are visible (the window rendezvous is the happens-before edge).
  const SimTime cut = host_->sim().now() + group.lookahead();
  const std::size_t my_shard = host_->shard();
  group.at_time_barrier(cut, [this, src, sport, q, cut, &group, my_shard] {
    OpsSnapshotReply reply;
    reply.seq = q.seq;
    reply.barrier_time = cut;
    reply.shard_count = static_cast<std::uint32_t>(group.shard_count());
    const telemetry::MetricsSnapshot snap = registry_->snapshot();
    for (const telemetry::MetricSample& s : snap.samples) {
      if (!q.prefix.empty() && s.name.rfind(q.prefix, 0) != 0) continue;
      OpsMetricSample m;
      m.name = s.name;
      m.instance = s.instance;
      m.kind = static_cast<std::uint8_t>(s.kind);
      m.counter_value = s.counter_value;
      m.gauge_value = s.gauge_value;
      m.hist_count = s.hist_count;
      m.hist_sum = s.hist_sum;
      reply.samples.push_back(std::move(m));
    }
    reply.digest = ops_snapshot_digest(reply.samples);
    snapshots_.inc();
    // Send from the cut instant, as an ordinary event on our shard (the
    // coordinator is between windows here, so this schedules directly).
    Bytes datagram = reply.encode();
    group.post(my_shard, cut, SimCategory::kPvnControl,
               [this, src, sport, datagram = std::move(datagram)] {
                 send(src, sport, OpsMsgType::kSnapshotReply, datagram);
               });
  });
}

void OpsEndpoint::handle_session(Ipv4Addr src, Port sport,
                                 const OpsSessionQuery& q) {
  OpsSessionInfo info;
  info.seq = q.seq;
  info.device_id = q.device_id;
  if (server_ != nullptr) {
    const DeploymentServer::DeploymentView v =
        server_->deployment_view(q.device_id);
    info.found = v.found;
    info.chain_id = v.chain_id;
    info.modules = v.modules;
    info.lease_expires_at = v.lease_expires_at;
    info.degraded = v.degraded;
    info.standby_ready = v.standby_ready;
    info.promoted = v.promoted;
    info.standby_pool = v.standby_pool;
    info.checkpoint_seq = v.checkpoint_seq;
    info.switch_name = v.switch_name;
    // Reputation of the (untrusted) standby host carrying this session's
    // warm state, as the scoreboard sees it right now.
    if (scoreboard_ != nullptr && !v.standby_host.empty()) {
      const SimTime now = host_->sim().now();
      info.reputation = scoreboard_->score(v.standby_host, now);
      info.quarantined = scoreboard_->quarantined(v.standby_host, now);
    }
  }
  if (spans_ != nullptr && q.max_spans > 0) {
    // Last-N spans for the session, oldest first (records() is seq-sorted).
    std::vector<OpsSpan> matched;
    for (const telemetry::SpanRecord& r : spans_->records()) {
      if (r.session != q.device_id) continue;
      matched.push_back(OpsSpan{r.name, r.category, r.start, r.end});
    }
    const std::size_t keep = std::min<std::size_t>(matched.size(),
                                                   q.max_spans);
    info.spans.assign(matched.end() - keep, matched.end());
  }
  send(src, sport, OpsMsgType::kSessionInfo, info.encode());
}

void OpsEndpoint::finalize_reconfig(Ipv4Addr src, Port sport,
                                    const ReplyKey& key,
                                    const OpsReconfigReply& reply,
                                    const std::string& detail) {
  auto it = reply_cache_.find(key);
  if (it != reply_cache_.end()) {
    it->second.done = true;
    it->second.reply = reply.encode();
  }
  if (reply.applied) applied_.inc();
  audit_.push_back(AuditEntry{host_->sim().now(), src, reply.seq, reply.verb,
                              reply.ok, reply.applied, detail, {}});
  while (audit_.size() > cfg_.audit_capacity) audit_.pop_front();
  send(src, sport, OpsMsgType::kReconfigReply,
       it != reply_cache_.end() ? it->second.reply : reply.encode());
}

void OpsEndpoint::handle_reconfig(Ipv4Addr src, Port sport,
                                  const OpsReconfigRequest& q) {
  const ReplyKey key{static_cast<std::uint64_t>(src.v), q.seq};
  const auto cached = reply_cache_.find(key);
  if (cached != reply_cache_.end()) {
    duplicates_.inc();
    if (cached->second.done) {
      // Retransmission of a completed verb: re-send the cached reply
      // verbatim, never re-apply.
      host_->send_udp(src, cfg_.port, sport,
                      ops_wrap(OpsMsgType::kReconfigReply,
                               cached->second.reply));
    }
    // Still in flight: drop; the original's reply is coming.
    return;
  }
  reply_cache_.emplace(key, CachedReply{});
  reply_order_.push_back(key);
  while (reply_order_.size() > cfg_.reply_cache_capacity) {
    reply_cache_.erase(reply_order_.front());
    reply_order_.pop_front();
  }

  OpsReconfigReply reply;
  reply.seq = q.seq;
  reply.verb = q.verb;
  switch (q.verb) {
    case OpsVerb::kInjectRule: {
      if (controller_ == nullptr) {
        reply.detail = "no controller wired";
        finalize_reconfig(src, sport, key, reply, reply.detail);
        return;
      }
      // Asynchronous: the reply waits for the switch to confirm (one
      // control RTT); the pending cache entry absorbs retransmissions that
      // arrive in between.
      controller_->install_rule(
          q.switch_name, q.table, q.rule,
          [this, src, sport, key, reply](bool ok) mutable {
            reply.ok = ok;
            reply.applied = ok;
            reply.detail = ok ? "rule installed" : "no such switch";
            finalize_reconfig(src, sport, key, reply, reply.detail);
          });
      return;
    }
    case OpsVerb::kWipeCache: {
      std::size_t wiped = 0;
      std::size_t hit = 0;
      for (auto& [id, wipe] : caches_) {
        if (!q.cache_id.empty() && id != q.cache_id) continue;
        ++hit;
        wiped += wipe();
      }
      reply.ok = q.cache_id.empty() || hit > 0;
      reply.applied = hit > 0;
      reply.detail = reply.ok ? std::to_string(wiped) + " entries from " +
                                    std::to_string(hit) + " caches"
                              : "no such cache";
      break;
    }
    case OpsVerb::kPromoteStandby: {
      if (server_ == nullptr) {
        reply.detail = "no deployment server wired";
        break;
      }
      const DeploymentServer::DeploymentView v =
          server_->deployment_view(q.device_id);
      if (!v.found) {
        reply.detail = "no such deployment";
      } else if (v.promoted) {
        reply.ok = true;  // idempotent: already on the standby
        reply.detail = "already promoted";
      } else {
        reply.ok = server_->force_promote(q.device_id);
        reply.applied = reply.ok;
        reply.detail = reply.ok ? "standby promoted" : "no ready standby";
      }
      break;
    }
    case OpsVerb::kQuarantineOverride: {
      if (scoreboard_ == nullptr) {
        reply.detail = "no scoreboard wired";
        break;
      }
      reply.ok = true;
      reply.applied = scoreboard_->override_quarantine(
          q.target_host, q.quarantine != 0, host_->sim().now());
      reply.detail = reply.applied ? "quarantine latch forced"
                                   : "already in requested state";
      break;
    }
    case OpsVerb::kSetSamplingRate: {
      if (recorder_ == nullptr) {
        reply.detail = "no flight recorder wired";
        break;
      }
      reply.ok = true;
      reply.applied = recorder_->sample_interval() != q.sample_interval;
      recorder_->set_sample_interval(q.sample_interval);
      reply.detail =
          "sample interval = " + std::to_string(q.sample_interval);
      break;
    }
  }
  finalize_reconfig(src, sport, key, reply, reply.detail);
}

void OpsEndpoint::audit_query(Ipv4Addr src, std::uint32_t seq,
                              const std::string& query,
                              const std::string& detail) {
  AuditEntry e;
  e.at = host_->sim().now();
  e.from = src;
  e.seq = seq;
  e.ok = true;
  e.detail = detail;
  e.query = query;
  audit_.push_back(std::move(e));
  while (audit_.size() > cfg_.audit_capacity) audit_.pop_front();
}

void OpsEndpoint::handle_alerts(Ipv4Addr src, Port sport,
                                const OpsAlertsRequest& q) {
  ShardGroup& group = host_->network().shards();
  // Same cut discipline as handle_snapshot: evaluate the monitor exactly at
  // a barrier every shard has quiesced at, so the alert list (and digest)
  // cannot depend on shard count.
  const SimTime cut = host_->sim().now() + group.lookahead();
  const std::size_t my_shard = host_->shard();
  group.at_time_barrier(cut, [this, src, sport, q, cut, &group, my_shard] {
    OpsAlertsReply reply;
    reply.seq = q.seq;
    reply.barrier_time = cut;
    reply.shard_count = static_cast<std::uint32_t>(group.shard_count());
    if (health_ != nullptr) {
      health_->evaluate(cut);
      reply.alerts = health_->alerts();
    }
    reply.digest = ops_alerts_digest(reply.alerts);
    alerts_served_.inc();
    std::size_t firing = 0;
    for (const OpsAlert& a : reply.alerts) firing += a.firing;
    Bytes datagram = reply.encode();
    group.post(my_shard, cut, SimCategory::kPvnControl,
               [this, src, sport, q, firing, n = reply.alerts.size(),
                datagram = std::move(datagram)] {
                 audit_query(src, q.seq, "get-alerts",
                             std::to_string(firing) + " firing of " +
                                 std::to_string(n) + " alerts");
                 send(src, sport, OpsMsgType::kAlertsReply, datagram);
               });
  });
}

void OpsEndpoint::handle_causal_trace(Ipv4Addr src, Port sport,
                                      const OpsTraceRequest& q) {
  ShardGroup& group = host_->network().shards();
  const SimTime cut = host_->sim().now() + group.lookahead();
  const std::size_t my_shard = host_->shard();
  group.at_time_barrier(cut, [this, src, sport, q, cut, &group, my_shard] {
    OpsTraceReply reply;
    reply.seq = q.seq;
    reply.session = q.session;
    reply.shard_count = static_cast<std::uint32_t>(group.shard_count());
    if (spans_ != nullptr) {
      // Assemble at the barrier, where every ring is quiescent. All
      // control-plane nodes share the global recorder, so one ring holds
      // the whole cross-node trace.
      telemetry::TraceAssembler assembler(*spans_);
      if (const auto t = assembler.latest_for_session(q.session)) {
        reply.found = true;
        reply.trace_id = t->trace_id;
        reply.start = t->start;
        reply.end = t->end;
        for (const telemetry::SpanRecord& r : t->spans) {
          reply.spans.push_back(
              OpsTraceSpan{r.span_id, r.parent_span, r.name, r.node, r.start,
                           r.end});
        }
        for (const telemetry::CriticalSegment& c : t->critical) {
          reply.critical.push_back(
              OpsTraceSpan{c.span_id, 0, c.name, c.node, c.start, c.end});
        }
      }
    }
    reply.digest =
        ops_trace_digest(reply.trace_id, reply.session, reply.start,
                         reply.end, reply.spans, reply.critical);
    traces_served_.inc();
    Bytes datagram = reply.encode();
    group.post(my_shard, cut, SimCategory::kPvnControl,
               [this, src, sport, q, found = reply.found,
                n = reply.spans.size(), datagram = std::move(datagram)] {
                 audit_query(src, q.seq, "get-trace",
                             found ? q.session + ": " + std::to_string(n) +
                                         " spans"
                                   : q.session + ": no trace");
                 send(src, sport, OpsMsgType::kTraceReply, datagram);
               });
  });
}

void OpsEndpoint::handle_trace(Ipv4Addr src, Port sport,
                               const OpsTraceDumpRequest& q) {
  OpsTraceDumpReply reply;
  reply.seq = q.seq;
  if (recorder_ != nullptr) {
    reply.samples = static_cast<std::uint32_t>(recorder_->samples().size());
    reply.trace_json = recorder_->trace_json();
  }
  send(src, sport, OpsMsgType::kTraceDumpReply, reply.encode());
}

}  // namespace pvn
