#include "pvn/standby.h"

#include "telemetry/span.h"
#include "util/digest.h"

namespace pvn {

StandbyAgent::StandbyAgent(Host& host, MboxHost& standby)
    : host_(&host), standby_(&standby) {
  host_->bind_udp(kPvnStandbyPort,
                  [this](Ipv4Addr src, Port sport, Port, const Bytes& payload) {
                    on_packet(src, sport, payload);
                  });
}

StandbyAgent::~StandbyAgent() { host_->unbind_udp(kPvnStandbyPort); }

void StandbyAgent::ack(Ipv4Addr dst, Port dport, const StateTransfer& xfer,
                       bool applied, const Bytes& digest,
                       const telemetry::TraceContext& trace) {
  StateAck sa;
  sa.seq = xfer.seq;
  sa.device_id = xfer.device_id;
  sa.chain_id = xfer.chain_id;
  sa.applied = applied;
  sa.digest = digest;
  host_->send_udp(dst, kPvnStandbyPort, dport,
                  wrap(PvnMsgType::kStateAck, sa.encode(), trace), 0,
                  trace.trace_id);
}

void StandbyAgent::on_packet(Ipv4Addr src, Port sport, const Bytes& payload) {
  const auto frame = unwrap_frame(payload);
  if (!frame || frame->type != PvnMsgType::kStateTransfer) return;
  const telemetry::TraceContext& trace = frame->trace;
  const auto xfer = StateTransfer::decode(frame->body);
  if (!xfer || !xfer->ok) return;
  bytes_.inc(xfer->checkpoint.size());
  if (byzantine_) {
    // Claim the state was applied while holding none of it. The digest is
    // computed over bytes the agent never applied — off by the trailing
    // flip — so an honest cross-check catches the lie immediately.
    Bytes forged = xfer->checkpoint;
    if (forged.empty()) {
      forged.push_back(0x5a);
    } else {
      forged.back() ^= 0xff;
    }
    ack(src, sport, *xfer, true, digest_of(forged).to_bytes(), trace);
    return;
  }
  const auto ckpt = ChainCheckpoint::decode(xfer->checkpoint);
  if (!ckpt || ckpt->chain_id != xfer->chain_id) {
    rejected_.inc();
    ack(src, sport, *xfer, false, {}, trace);
    return;
  }
  // Datagrams can be duplicated or reordered; never step a chain backwards.
  if (const auto it = last_seq_.find(ckpt->chain_id);
      it != last_seq_.end() && ckpt->seq <= it->second) {
    rejected_.inc();
    ack(src, sport, *xfer, false, {}, trace);
    return;
  }
  Chain* chain = standby_->chain(ckpt->chain_id);
  if (chain == nullptr) return;  // standby not (yet) instantiated
  restore_chain(*chain, *ckpt);
  last_seq_[ckpt->chain_id] = ckpt->seq;
  applied_.inc();
  // The apply shows up on the standby's own track inside the deploy trace,
  // so stitched traces witness the checkpoint stream crossing hosts.
  telemetry::SpanRecorder::global().instant("standby_apply", "pvn",
                                            xfer->device_id, trace,
                                            host_->name());
  ack(src, sport, *xfer, true, digest_of(xfer->checkpoint).to_bytes(), trace);
}

}  // namespace pvn
