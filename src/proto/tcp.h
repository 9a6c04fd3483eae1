// TCP-lite: a reliable byte-stream transport with Reno congestion control.
//
// Implements the subset of TCP the paper's experiments depend on:
//   * three-way handshake, FIN teardown, RST on unexpected segments
//   * cumulative ACKs, out-of-order reassembly, exactly-once in-order delivery
//   * retransmission timeout with Karn/RFC6298-style SRTT/RTTVAR estimation
//   * Reno congestion control: slow start, congestion avoidance, fast
//     retransmit on 3 duplicate ACKs, fast recovery (simplified NewReno)
//   * receiver flow control via the advertised window
//
// The split-TCP experiment (DESIGN.md E6) is *the* reason this exists: the
// crossover between direct and proxied connections emerges from cwnd growth
// vs RTT and loss-recovery time, so those mechanisms are modelled carefully;
// everything else (urgent data, window scaling, SACK, timestamps) is out of
// scope.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "netsim/packet.h"
#include "proto/l4.h"
#include "util/sim.h"

namespace pvn {

class Host;

struct TcpStats {
  std::uint64_t bytes_sent = 0;        // app bytes handed to send()
  std::uint64_t bytes_delivered = 0;   // app bytes delivered in order
  std::uint64_t segments_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t fast_retransmits = 0;
  SimDuration srtt = 0;                // smoothed RTT estimate
  double cwnd_segments = 0;            // current congestion window
};

struct TcpConfig {
  std::uint32_t mss = 1400;                   // payload bytes per segment
  std::uint32_t initial_cwnd_segments = 10;   // RFC 6928 IW10
  std::uint32_t recv_window_bytes = 4 << 20;
  SimDuration min_rto = milliseconds(200);
  SimDuration initial_rto = seconds(1);
  std::uint64_t max_send_buffer = 64 << 20;
  // Ablation knob: when false the receiver advertises no SACK ranges, so
  // the sender falls back to head-of-line (NewReno-ish) recovery. Used by
  // bench_a1_tcp_ablation to show why SACK is load-bearing for E6.
  bool enable_sack = true;
};

// One end of a TCP connection. Created via Host::tcp_connect or delivered to
// a listener's accept callback. Lifetime is managed by the owning Host; the
// connection stays alive until closed and drained.
class TcpConnection {
 public:
  enum class State {
    kSynSent,
    kSynRcvd,
    kEstablished,
    kFinWait,     // we sent FIN, waiting for its ACK (and possibly peer FIN)
    kCloseWait,   // peer sent FIN, app may still send
    kLastAck,     // peer FIN'd, we sent FIN, waiting for final ACK
    kClosed,
  };

  // Application callbacks. on_data receives in-order stream bytes.
  std::function<void()> on_connected;
  std::function<void(const Bytes&)> on_data;
  std::function<void()> on_eof;     // peer sent FIN; stream ended (half-close)
  std::function<void()> on_closed;  // fully closed (or reset)

  State state() const { return state_; }
  bool established() const { return state_ == State::kEstablished; }
  // Current simulation time (convenience for protocol layers above).
  SimTime now() const;
  const TcpStats& stats() const { return stats_; }
  Ipv4Addr remote_addr() const { return remote_addr_; }
  Port remote_port() const { return remote_port_; }
  Port local_port() const { return local_port_; }

  // Appends bytes to the send buffer. Returns false (and accepts nothing)
  // if the buffer is full or the connection cannot send. An empty send
  // buffer adopts `data` instead of copying it, so pass an rvalue to skip
  // the copy.
  bool send(Bytes data);

  // Graceful close: FIN is emitted once the send buffer drains.
  void close();

  // Abortive close: emits RST and tears down immediately.
  void abort();

  // Bytes waiting in the send buffer: accepted by send() and not yet sent,
  // plus in-flight bytes a retransmission timeout put back in front.
  std::uint64_t unsent_bytes() const { return send_buf_.size() - send_off_; }

 private:
  friend class Host;

  TcpConnection(Host& host, Ipv4Addr remote_addr, Port remote_port,
                Port local_port, TcpConfig cfg);

  void start_connect();
  void start_accept(const TcpHeader& syn);
  void on_segment(const IpHeader& ip, TcpSegment seg);
  void try_send();
  Bytes take_unsent(std::size_t len);
  void consume_unsent(std::size_t n);
  void send_segment(std::uint8_t flags, std::uint32_t seq, const Bytes& payload,
                    bool count_retransmit);
  void send_ack();
  void arm_rto();
  void cancel_rto();
  void on_rto();
  void handle_ack(const TcpHeader& hdr);
  void apply_sacks(const TcpHeader& hdr);
  // RFC 6675-style recovery: retransmit holes / send new data while the
  // estimated amount of data in the pipe is below cwnd.
  void recovery_send();
  std::uint64_t estimate_pipe() const;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sack_ranges() const;
  // Hands the bytes of [seq, seq + data.size()) past rcv_nxt_ to on_data
  // (seq <= rcv_nxt_ < its end).
  void deliver(std::uint32_t seq, Bytes data);
  void deliver_in_order();
  void update_rtt(SimDuration sample);
  void enter_closed();
  void maybe_send_fin();
  std::uint32_t flight_size() const { return snd_nxt_ - snd_una_; }
  std::uint32_t effective_window() const;

  Host* host_;
  TcpConfig cfg_;
  State state_ = State::kClosed;
  Ipv4Addr remote_addr_;
  Port remote_port_ = 0;
  Port local_port_ = 0;

  // Send side. Sequence numbers count stream bytes; ISS = 0 for clarity
  // (simulation does not need randomized ISNs).
  std::uint32_t snd_una_ = 0;  // oldest unacknowledged
  std::uint32_t snd_nxt_ = 0;  // next to send
  std::uint32_t iss_ = 0;
  // Unsent bytes are send_buf_[send_off_, size()): one contiguous buffer
  // read from the front. It is freed when it drains, and send() compacts
  // the sent prefix away once that prefix is at least as long as the rest.
  Bytes send_buf_;
  std::size_t send_off_ = 0;
  std::map<std::uint32_t, Bytes> inflight_;  // seq -> payload (for retransmit)
  bool fin_pending_ = false;   // app called close()
  bool fin_sent_ = false;
  std::uint32_t fin_seq_ = 0;

  // Receive side.
  std::uint32_t rcv_nxt_ = 0;
  std::map<std::uint32_t, Bytes> reorder_;
  std::uint64_t reorder_bytes_ = 0;
  bool peer_fin_seen_ = false;
  std::uint32_t peer_fin_seq_ = 0;

  // Congestion control (Reno + SACK-based recovery), in bytes.
  double cwnd_ = 0;
  double ssthresh_ = 0;
  std::uint32_t dup_acks_ = 0;
  bool in_recovery_ = false;
  std::uint32_t recovery_end_ = 0;
  std::uint32_t peer_window_ = 65535;
  std::set<std::uint32_t> sacked_;  // inflight segment starts seen in SACKs
  // Holes retransmitted this episode -> when. A hole may be resent again if
  // its last retransmission is older than ~1 RTT (it was probably dropped).
  std::map<std::uint32_t, SimTime> rtx_times_;

  // RTO machinery.
  SimDuration srtt_ = 0;
  SimDuration rttvar_ = 0;
  SimDuration rto_;
  EventId rto_event_ = kInvalidEventId;
  // Single timed segment for RTT estimation (classic Karn: invalidated on
  // any retransmission, so samples are never biased by recovery stalls).
  bool timed_valid_ = false;
  std::uint32_t timed_seq_ = 0;
  SimTime timed_sent_at_ = 0;
  int syn_retries_ = 0;
  int consecutive_timeouts_ = 0;

  TcpStats stats_;
};

}  // namespace pvn
