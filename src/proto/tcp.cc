#include "proto/tcp.h"

#include <algorithm>

#include "proto/host.h"

namespace pvn {
namespace {

// Wraparound-safe sequence comparisons.
bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
bool seq_le(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}

constexpr SimDuration kMaxRto = seconds(60);
constexpr int kMaxSynRetries = 6;
constexpr int kMaxConsecutiveTimeouts = 10;  // then the connection aborts

}  // namespace

TcpConnection::TcpConnection(Host& host, Ipv4Addr remote_addr, Port remote_port,
                             Port local_port, TcpConfig cfg)
    : host_(&host),
      cfg_(cfg),
      remote_addr_(remote_addr),
      remote_port_(remote_port),
      local_port_(local_port),
      rto_(cfg.initial_rto) {
  cwnd_ = static_cast<double>(cfg_.initial_cwnd_segments) * cfg_.mss;
  ssthresh_ = 1e18;  // effectively unbounded until the first loss
}

SimTime TcpConnection::now() const { return host_->sim().now(); }

void TcpConnection::start_connect() {
  state_ = State::kSynSent;
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;  // SYN consumes one sequence number
  send_segment(kTcpSyn, iss_, {}, false);
  arm_rto();
}

void TcpConnection::start_accept(const TcpHeader& syn) {
  state_ = State::kSynRcvd;
  rcv_nxt_ = syn.seq + 1;
  peer_window_ = syn.window;
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  send_segment(kTcpSyn | kTcpAck, iss_, {}, false);
  arm_rto();
}

std::uint32_t TcpConnection::effective_window() const {
  const double w = std::min(cwnd_, static_cast<double>(peer_window_));
  const std::uint32_t flight = snd_nxt_ - snd_una_;
  if (w <= flight) return 0;
  return static_cast<std::uint32_t>(w) - flight;
}

bool TcpConnection::send(Bytes data) {
  if (state_ == State::kClosed || fin_pending_ || fin_sent_) return false;
  if (state_ == State::kFinWait || state_ == State::kLastAck) return false;
  if (unsent_bytes() + data.size() > cfg_.max_send_buffer) return false;
  if (send_off_ > 0 && send_off_ >= unsent_bytes()) {
    // The sent prefix dominates: compact it away before appending.
    send_buf_.erase(send_buf_.begin(),
                    send_buf_.begin() + static_cast<std::ptrdiff_t>(send_off_));
    send_off_ = 0;
  }
  stats_.bytes_sent += data.size();
  if (send_buf_.empty()) {
    send_buf_ = std::move(data);  // nothing queued: adopt the caller's buffer
  } else {
    send_buf_.insert(send_buf_.end(), data.begin(), data.end());
  }
  try_send();
  return true;
}

void TcpConnection::close() {
  if (state_ == State::kClosed || fin_pending_ || fin_sent_) return;
  fin_pending_ = true;
  maybe_send_fin();
}

void TcpConnection::abort() {
  if (state_ == State::kClosed) return;
  TcpHeader hdr;
  hdr.src_port = local_port_;
  hdr.dst_port = remote_port_;
  hdr.seq = snd_nxt_;
  hdr.flags = kTcpRst;
  host_->send_ip(remote_addr_, IpProto::kTcp, serialize_tcp(hdr, {}));
  enter_closed();
}

void TcpConnection::maybe_send_fin() {
  if (!fin_pending_ || fin_sent_ || unsent_bytes() > 0) return;
  if (state_ != State::kEstablished && state_ != State::kCloseWait &&
      state_ != State::kSynSent && state_ != State::kSynRcvd) {
    return;
  }
  if (state_ == State::kSynSent || state_ == State::kSynRcvd) {
    // Handshake incomplete: defer the FIN until established.
    return;
  }
  fin_seq_ = snd_nxt_;
  snd_nxt_ += 1;
  fin_sent_ = true;
  send_segment(kTcpFin | kTcpAck, fin_seq_, {}, false);
  state_ = state_ == State::kCloseWait ? State::kLastAck : State::kFinWait;
  arm_rto();
}

void TcpConnection::try_send() {
  if (state_ != State::kEstablished && state_ != State::kCloseWait) {
    return;
  }
  if (in_recovery_) {
    recovery_send();
    return;
  }
  while (unsent_bytes() > 0) {
    const std::uint32_t window = effective_window();
    if (window == 0) break;
    const auto len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>({cfg_.mss, window, unsent_bytes()}));
    Bytes payload = take_unsent(len);
    const std::uint32_t seq = snd_nxt_;
    snd_nxt_ += len;
    if (!timed_valid_) {
      timed_valid_ = true;
      timed_seq_ = seq;
      timed_sent_at_ = host_->sim().now();
    }
    send_segment(kTcpAck, seq, payload, false);
    inflight_[seq] = std::move(payload);
  }
  if (flight_size() > 0 && rto_event_ == kInvalidEventId) arm_rto();
  maybe_send_fin();
}

Bytes TcpConnection::take_unsent(std::size_t len) {
  const auto first =
      send_buf_.begin() + static_cast<std::ptrdiff_t>(send_off_);
  Bytes payload(first, first + static_cast<std::ptrdiff_t>(len));
  consume_unsent(len);
  return payload;
}

void TcpConnection::consume_unsent(std::size_t n) {
  send_off_ += n;
  if (send_off_ == send_buf_.size()) {
    Bytes().swap(send_buf_);  // drained: free the storage
    send_off_ = 0;
  }
}

std::vector<std::pair<std::uint32_t, std::uint32_t>>
TcpConnection::sack_ranges() const {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
  if (!cfg_.enable_sack) return ranges;
  for (const auto& [seq, data] : reorder_) {
    const std::uint32_t end = seq + static_cast<std::uint32_t>(data.size());
    if (!ranges.empty() && ranges.back().second == seq) {
      ranges.back().second = end;  // merge contiguous
    } else {
      if (ranges.size() == TcpHeader::kMaxSackRanges) break;
      ranges.emplace_back(seq, end);
    }
  }
  return ranges;
}

void TcpConnection::send_segment(std::uint8_t flags, std::uint32_t seq,
                                 const Bytes& payload, bool count_retransmit) {
  TcpHeader hdr;
  hdr.src_port = local_port_;
  hdr.dst_port = remote_port_;
  hdr.seq = seq;
  hdr.ack = rcv_nxt_;
  hdr.flags = flags;
  hdr.window = cfg_.recv_window_bytes;
  if ((flags & kTcpAck) != 0) hdr.sacks = sack_ranges();
  ++stats_.segments_sent;
  if (count_retransmit) ++stats_.retransmits;
  host_->send_ip(remote_addr_, IpProto::kTcp, serialize_tcp(hdr, payload));
}

void TcpConnection::send_ack() { send_segment(kTcpAck, snd_nxt_, {}, false); }

void TcpConnection::arm_rto() {
  cancel_rto();
  rto_event_ = host_->sim().schedule_after(rto_, SimCategory::kProto, [this] {
    rto_event_ = kInvalidEventId;
    on_rto();
  });
}

void TcpConnection::cancel_rto() {
  if (rto_event_ != kInvalidEventId) {
    host_->sim().cancel(rto_event_);
    rto_event_ = kInvalidEventId;
  }
}

void TcpConnection::on_rto() {
  if (state_ == State::kClosed) return;
  ++stats_.timeouts;
  if (++consecutive_timeouts_ > kMaxConsecutiveTimeouts) {
    enter_closed();  // peer unreachable: give up
    return;
  }
  rto_ = std::min<SimDuration>(rto_ * 2, kMaxRto);

  if (state_ == State::kSynSent || state_ == State::kSynRcvd) {
    if (++syn_retries_ > kMaxSynRetries) {
      enter_closed();
      return;
    }
    const std::uint8_t flags =
        state_ == State::kSynSent ? kTcpSyn : (kTcpSyn | kTcpAck);
    send_segment(flags, iss_, {}, true);
    arm_rto();
    return;
  }

  // Loss: collapse the window and go back to the first unacknowledged byte.
  // Treating all outstanding data as lost (go-back-N) sidesteps NewReno's
  // one-hole-per-RTT recovery, which deadlocks practical throughput under
  // the bursty multi-loss patterns a DropTail overflow produces. The
  // receiver discards any duplicate segments this re-sends.
  ssthresh_ = std::max(static_cast<double>(flight_size()) / 2,
                       2.0 * cfg_.mss);
  cwnd_ = cfg_.mss;
  stats_.cwnd_segments = cwnd_ / cfg_.mss;
  dup_acks_ = 0;
  in_recovery_ = false;
  timed_valid_ = false;  // Karn
  sacked_.clear();
  rtx_times_.clear();

  // Requeue every unacked payload, in sequence order, in front of the
  // unsent bytes.
  Bytes requeued;
  for (const auto& [seq, payload] : inflight_) {
    requeued.insert(requeued.end(), payload.begin(), payload.end());
  }
  requeued.insert(requeued.end(),
                  send_buf_.begin() + static_cast<std::ptrdiff_t>(send_off_),
                  send_buf_.end());
  send_buf_ = std::move(requeued);
  send_off_ = 0;
  inflight_.clear();
  const bool had_fin = fin_sent_;
  snd_nxt_ = snd_una_;
  if (had_fin) {
    // The FIN (and possibly its preceding data) must be re-emitted.
    fin_sent_ = false;
    fin_pending_ = true;
    if (state_ == State::kFinWait) state_ = State::kEstablished;
    if (state_ == State::kLastAck) state_ = State::kCloseWait;
  }
  try_send();
  if (flight_size() > 0 || fin_sent_) {
    ++stats_.retransmits;
    arm_rto();
  }
}

void TcpConnection::update_rtt(SimDuration sample) {
  if (srtt_ == 0) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const SimDuration err = srtt_ > sample ? srtt_ - sample : sample - srtt_;
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + sample) / 8;
  }
  rto_ = srtt_ + std::max<SimDuration>(4 * rttvar_, milliseconds(1));
  rto_ = std::clamp<SimDuration>(rto_, cfg_.min_rto, kMaxRto);
  stats_.srtt = srtt_;
}

void TcpConnection::apply_sacks(const TcpHeader& hdr) {
  for (const auto& [begin, end] : hdr.sacks) {
    for (auto it = inflight_.lower_bound(begin);
         it != inflight_.end() && seq_lt(it->first, end); ++it) {
      const std::uint32_t seg_end =
          it->first + static_cast<std::uint32_t>(it->second.size());
      if (seq_le(seg_end, end)) sacked_.insert(it->first);
    }
  }
}

std::uint64_t TcpConnection::estimate_pipe() const {
  // RFC 6675 "pipe": bytes believed to be in the network. A segment is
  //   * out of the pipe if SACKed (it arrived), or
  //   * lost (below the highest SACK, unSACKed, never/too-long-ago resent)
  //   * otherwise in the pipe (original transmission or recent retransmit).
  const std::uint32_t max_sacked = sacked_.empty() ? snd_una_ : *sacked_.rbegin();
  const SimTime now = host_->sim().now();
  const SimDuration rtx_stale = srtt_ > 0 ? 2 * srtt_ : rto_;
  std::uint64_t pipe = 0;
  for (auto it = inflight_.lower_bound(snd_una_); it != inflight_.end(); ++it) {
    if (sacked_.contains(it->first)) continue;
    if (seq_lt(it->first, max_sacked)) {
      const auto rt = rtx_times_.find(it->first);
      if (rt == rtx_times_.end() || now - rt->second > rtx_stale) {
        continue;  // lost and not (recently) retransmitted: not in the pipe
      }
    }
    pipe += it->second.size();
  }
  return pipe;
}

void TcpConnection::recovery_send() {
  const std::uint32_t max_sacked =
      sacked_.empty() ? snd_una_ : *sacked_.rbegin();
  const SimTime now = host_->sim().now();
  const SimDuration rtx_stale = srtt_ > 0 ? 2 * srtt_ : rto_;
  std::uint64_t pipe = estimate_pipe();

  // First repair holes, oldest first; then send new data if room remains.
  // The first eligible hole is always retransmitted even when the pipe is
  // full (RFC 6675 §5 step 4a) — otherwise recovery can never start after
  // a large burst where pipe > cwnd.
  bool sent_any = false;
  for (auto it = inflight_.lower_bound(snd_una_);
       it != inflight_.end() && seq_lt(it->first, max_sacked); ++it) {
    if (sent_any && pipe + cfg_.mss > static_cast<std::uint64_t>(cwnd_)) {
      return;
    }
    if (sacked_.contains(it->first)) continue;
    const auto rt = rtx_times_.find(it->first);
    if (rt != rtx_times_.end() && now - rt->second <= rtx_stale) continue;
    rtx_times_[it->first] = now;
    timed_valid_ = false;  // Karn
    ++stats_.fast_retransmits;
    send_segment(kTcpAck, it->first, it->second, true);
    pipe += it->second.size();
    sent_any = true;
  }
  // Head-of-line hole with no SACK info at all: resend the head.
  if (sacked_.empty()) {
    const auto head = inflight_.lower_bound(snd_una_);
    if (head != inflight_.end()) {
      const auto rt = rtx_times_.find(head->first);
      if (rt == rtx_times_.end() || now - rt->second > rtx_stale) {
        rtx_times_[head->first] = now;
        timed_valid_ = false;  // Karn
        ++stats_.fast_retransmits;
        send_segment(kTcpAck, head->first, head->second, true);
        pipe += head->second.size();
      }
    }
  }
  // New data, clocked by the same pipe bound.
  while (unsent_bytes() > 0 &&
         pipe + cfg_.mss <= static_cast<std::uint64_t>(cwnd_)) {
    const auto len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(cfg_.mss, unsent_bytes()));
    Bytes payload = take_unsent(len);
    const std::uint32_t seq = snd_nxt_;
    snd_nxt_ += len;
    send_segment(kTcpAck, seq, payload, false);
    inflight_[seq] = std::move(payload);
    pipe += len;
  }
}

void TcpConnection::handle_ack(const TcpHeader& hdr) {
  peer_window_ = hdr.window;
  const std::uint32_t ack = hdr.ack;
  apply_sacks(hdr);

  if (seq_lt(snd_una_, ack)) {
    // After a go-back-N timeout the peer's cumulative ACK can jump past our
    // rewound snd_nxt_ (a single retransmission filled the hole in front of
    // data the receiver already held). The requeued bytes below `ack` are
    // duplicates the peer already has: drop them and fast-forward.
    if (seq_lt(snd_nxt_, ack)) {
      const std::uint32_t dup = ack - snd_nxt_;
      consume_unsent(std::min<std::uint64_t>(dup, unsent_bytes()));
      snd_nxt_ = ack;
    }
    // New data acknowledged.
    if (timed_valid_ && seq_lt(timed_seq_, ack)) {
      update_rtt(host_->sim().now() - timed_sent_at_);
      timed_valid_ = false;
    }
    // Drop fully-acked segments from the retransmission buffer.
    for (auto it = inflight_.begin(); it != inflight_.end();) {
      if (seq_le(it->first + static_cast<std::uint32_t>(it->second.size()),
                 ack)) {
        it = inflight_.erase(it);
      } else {
        break;
      }
    }
    snd_una_ = ack;
    dup_acks_ = 0;
    consecutive_timeouts_ = 0;
    sacked_.erase(sacked_.begin(), sacked_.lower_bound(ack));
    rtx_times_.erase(rtx_times_.begin(), rtx_times_.lower_bound(ack));

    if (in_recovery_ && seq_le(recovery_end_, ack)) {
      // Leave fast recovery: deflate to ssthresh.
      in_recovery_ = false;
      rtx_times_.clear();
      cwnd_ = ssthresh_;
    } else if (in_recovery_) {
      // Partial ACK: keep repairing from the SACK scoreboard.
      recovery_send();
    } else if (cwnd_ < ssthresh_) {
      cwnd_ += cfg_.mss;  // slow start
    } else {
      cwnd_ += static_cast<double>(cfg_.mss) * cfg_.mss / cwnd_;  // CA
    }
    stats_.cwnd_segments = cwnd_ / cfg_.mss;

    if (flight_size() == 0 && !(fin_sent_ && seq_le(snd_una_, fin_seq_))) {
      cancel_rto();
    } else {
      arm_rto();
    }
    try_send();
  } else if (ack == snd_una_ && flight_size() > 0) {
    // Duplicate ACK.
    ++dup_acks_;
    if (!in_recovery_ && dup_acks_ == 3) {
      // Fast retransmit: enter SACK-based recovery.
      ssthresh_ =
          std::max(static_cast<double>(flight_size()) / 2, 2.0 * cfg_.mss);
      rtx_times_.clear();
      cwnd_ = ssthresh_;
      in_recovery_ = true;
      recovery_end_ = snd_nxt_;
      recovery_send();
      arm_rto();
    } else if (in_recovery_) {
      recovery_send();
    }
    stats_.cwnd_segments = cwnd_ / cfg_.mss;
  }

  // Has our FIN been acknowledged?
  if (fin_sent_ && seq_lt(fin_seq_, snd_una_)) {
    if (state_ == State::kLastAck) {
      enter_closed();
    } else if (state_ == State::kFinWait && peer_fin_seen_) {
      enter_closed();
    }
  }
}

void TcpConnection::deliver(std::uint32_t seq, Bytes data) {
  const std::size_t skip = rcv_nxt_ - seq;
  if (skip > 0) data.erase(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(skip));
  rcv_nxt_ += static_cast<std::uint32_t>(data.size());
  stats_.bytes_delivered += data.size();
  if (on_data) on_data(data);
}

void TcpConnection::deliver_in_order() {
  bool delivered = true;
  while (delivered) {
    delivered = false;
    auto it = reorder_.begin();
    while (it != reorder_.end() && seq_le(it->first, rcv_nxt_)) {
      const std::uint32_t seq = it->first;
      Bytes data = std::move(it->second);
      reorder_bytes_ -= data.size();
      it = reorder_.erase(it);
      const std::uint32_t end = seq + static_cast<std::uint32_t>(data.size());
      if (seq_le(end, rcv_nxt_)) continue;  // fully duplicate
      deliver(seq, std::move(data));
      delivered = true;
      break;  // reorder_ may have changed; restart scan
    }
  }
  if (peer_fin_seen_ && rcv_nxt_ == peer_fin_seq_) {
    rcv_nxt_ = peer_fin_seq_ + 1;
    if (state_ == State::kEstablished) {
      state_ = State::kCloseWait;
    }
    send_ack();
    if (on_eof) on_eof();
    if (state_ == State::kFinWait && fin_sent_ && seq_lt(fin_seq_, snd_una_)) {
      enter_closed();
      return;
    }
    if (state_ == State::kCloseWait && fin_pending_) maybe_send_fin();
  }
}

void TcpConnection::on_segment(const IpHeader& ip, TcpSegment seg) {
  (void)ip;
  const TcpHeader& hdr = seg.hdr;
  const auto payload_len = static_cast<std::uint32_t>(seg.payload.size());

  if (hdr.rst()) {
    enter_closed();
    return;
  }

  switch (state_) {
    case State::kClosed:
      return;
    case State::kSynSent: {
      if (hdr.syn() && hdr.ack_flag() && hdr.ack == iss_ + 1) {
        rcv_nxt_ = hdr.seq + 1;
        snd_una_ = hdr.ack;
        peer_window_ = hdr.window;
        state_ = State::kEstablished;
        cancel_rto();
        rto_ = cfg_.initial_rto;
        send_ack();
        if (on_connected) on_connected();
        try_send();
      }
      return;
    }
    case State::kSynRcvd: {
      if (hdr.syn() && !hdr.ack_flag()) {
        // Our SYN|ACK was lost; resend.
        send_segment(kTcpSyn | kTcpAck, iss_, {}, true);
        return;
      }
      if (hdr.ack_flag() && hdr.ack == iss_ + 1) {
        snd_una_ = hdr.ack;
        peer_window_ = hdr.window;
        state_ = State::kEstablished;
        cancel_rto();
        rto_ = cfg_.initial_rto;
        if (on_connected) on_connected();
        try_send();
        // Fall through to process any piggybacked data below.
        break;
      }
      return;
    }
    default:
      break;
  }

  // Established-family processing.
  if (hdr.ack_flag()) handle_ack(hdr);
  if (state_ == State::kClosed) return;

  if (payload_len > 0) {
    const std::uint32_t seq = seg.hdr.seq;
    const std::uint32_t end = seq + payload_len;
    if (seq_le(end, rcv_nxt_)) {
      // Entirely old data: re-ACK so the sender can advance.
      send_ack();
    } else {
      if (reorder_.empty() && seq_le(seq, rcv_nxt_)) {
        // In order with nothing held back: reorder_ keeps only data that
        // arrived ahead of a hole.
        deliver(seq, std::move(seg.payload));
      } else if (reorder_.try_emplace(seq, std::move(seg.payload)).second) {
        reorder_bytes_ += payload_len;
      }
      deliver_in_order();
      send_ack();
    }
  }

  if (hdr.fin()) {
    const std::uint32_t fin_at = hdr.seq + payload_len;
    peer_fin_seen_ = true;
    peer_fin_seq_ = fin_at;
    deliver_in_order();
    if (rcv_nxt_ != peer_fin_seq_ + 1) {
      // FIN arrived but earlier data is missing; ACK what we have.
      send_ack();
    }
  }
}

void TcpConnection::enter_closed() {
  if (state_ == State::kClosed) return;
  state_ = State::kClosed;
  cancel_rto();
  Bytes().swap(send_buf_);
  send_off_ = 0;
  inflight_.clear();
  reorder_.clear();
  reorder_bytes_ = 0;
  if (on_closed) on_closed();
}

}  // namespace pvn
