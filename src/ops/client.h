// In-sim admin client for the ops endpoint.
//
// Thin request/reply helper used by benches and tests: assigns sequence
// numbers, routes decoded replies to per-request callbacks, and keeps the
// raw encoded request around so retransmission (the idempotency story) can
// be exercised byte-identically. Callbacks stay registered — a duplicate
// reply invokes the callback again, which is exactly what the
// idempotency-under-retransmission tests observe.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>

#include "proto/host.h"
#include "proto/ops.h"

namespace pvn {

class OpsClient {
 public:
  OpsClient(Host& host, Ipv4Addr server, Port server_port = kOpsPort,
            Port local_port = 3101);

  // Each call assigns the next sequence number and returns it.
  std::uint32_t request_snapshot(
      std::string prefix, std::function<void(const OpsSnapshotReply&)> cb);
  std::uint32_t query_session(
      std::string device_id, std::uint32_t max_spans,
      std::function<void(const OpsSessionInfo&)> cb);
  // Fills req.seq; returns it. The request is kept for retransmit().
  std::uint32_t send_reconfig(
      OpsReconfigRequest req,
      std::function<void(const OpsReconfigReply&)> cb);
  std::uint32_t request_trace(
      std::function<void(const OpsTraceDumpReply&)> cb);
  // SLO health plane: alert list / stitched causal trace.
  std::uint32_t request_alerts(
      std::function<void(const OpsAlertsReply&)> cb);
  std::uint32_t request_causal_trace(
      std::string session, std::function<void(const OpsTraceReply&)> cb);

  // Re-sends the byte-identical reconfiguration datagram for `seq` (as a
  // retrying admin would after a lost reply). Returns false if unknown.
  bool retransmit(std::uint32_t seq);

  std::uint64_t replies_received() const { return replies_; }

 private:
  void on_datagram(const Bytes& payload);

  Host* host_;
  Ipv4Addr server_;
  Port server_port_;
  Port local_port_;
  std::uint32_t next_seq_ = 1;
  std::uint64_t replies_ = 0;
  std::map<std::uint32_t, std::function<void(const OpsSnapshotReply&)>>
      snapshot_cbs_;
  std::map<std::uint32_t, std::function<void(const OpsSessionInfo&)>>
      session_cbs_;
  std::map<std::uint32_t, std::function<void(const OpsReconfigReply&)>>
      reconfig_cbs_;
  std::map<std::uint32_t, std::function<void(const OpsTraceDumpReply&)>>
      trace_cbs_;
  std::map<std::uint32_t, std::function<void(const OpsAlertsReply&)>>
      alerts_cbs_;
  std::map<std::uint32_t, std::function<void(const OpsTraceReply&)>>
      causal_cbs_;
  std::map<std::uint32_t, Bytes> sent_reconfigs_;  // wire bytes, by seq
};

}  // namespace pvn
