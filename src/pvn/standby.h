// Warm-standby checkpoint receiver (survivability layer).
//
// A StandbyAgent fronts the standby MboxHost on the access network: the
// DeploymentServer streams periodic incremental ChainCheckpoints to it as
// kStateTransfer datagrams over the simulated network, and the agent applies
// each one to the matching standby chain. When the primary mbox host
// crashes, the server promotes the standby chain through sdn::Controller;
// the chain then resumes from the last applied checkpoint, so the staleness
// of the promoted state is bounded by the checkpoint interval.
//
// Corrupted or replayed transfers are rejected whole: the checkpoint codec
// is digest-protected and the agent drops any seq it has already applied.
//
// Robustness: every transfer is answered with a kStateAck carrying the
// digest of the checkpoint bytes the agent actually applied (or a rejection
// for corrupt/replayed ones). The server cross-checks the digest against
// what it sent, so a Byzantine standby — one that discards state while
// claiming to hold it — is detected and demoted. set_byzantine() turns the
// agent into exactly that adversary for tests and benches.
#pragma once

#include "mbox/checkpoint.h"
#include "proto/host.h"
#include "pvn/discovery.h"
#include "telemetry/metrics.h"

namespace pvn {

// UDP port the agent listens on (the deployment protocol itself uses 3030).
constexpr Port kPvnStandbyPort = 3032;

class StandbyAgent {
 public:
  StandbyAgent(Host& host, MboxHost& standby);
  ~StandbyAgent();

  StandbyAgent(const StandbyAgent&) = delete;
  StandbyAgent& operator=(const StandbyAgent&) = delete;

  std::uint64_t checkpoints_applied() const { return applied_.value(); }
  std::uint64_t checkpoints_rejected() const { return rejected_.value(); }
  std::uint64_t bytes_received() const { return bytes_.value(); }

  // Adversary hook: the agent stops applying checkpoints but keeps acking
  // them as applied — with the digest of state it does not hold. A server
  // cross-checking StateAck digests demotes it within a few checkpoints.
  void set_byzantine(bool lie) { byzantine_ = lie; }
  bool byzantine() const { return byzantine_; }

 private:
  void on_packet(Ipv4Addr src, Port sport, const Bytes& payload);
  void ack(Ipv4Addr dst, Port dport, const StateTransfer& xfer, bool applied,
           const Bytes& digest, const telemetry::TraceContext& trace);

  Host* host_;
  MboxHost* standby_;
  std::map<std::string, std::uint64_t> last_seq_;  // by chain id
  bool byzantine_ = false;
  telemetry::Tally applied_{"pvn.standby.checkpoints_applied"};
  telemetry::Tally rejected_{"pvn.standby.checkpoints_rejected"};
  telemetry::Tally bytes_{"pvn.standby.bytes_received"};
};

}  // namespace pvn
