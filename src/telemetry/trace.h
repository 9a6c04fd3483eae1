// Causal trace propagation.
//
// A TraceContext names one causal trace (one deploy cycle, migration, or
// promotion story) and the span that caused the current activity. It is
// carried inside every PVN control frame (pvn/discovery.h wrap/unwrap) and
// stamped into sampled packets' metadata, so SpanRecorder spans recorded on
// different simulated nodes — client, deployment server, mbox host, standby
// agent — stitch into one cross-node trace (telemetry/assembler.h).
//
// trace_id 0 means "untraced"; everything downstream treats such a context
// as absent. Ids are allocated by SpanRecorder::new_trace_id(), a plain
// deterministic counter: the control plane is simulated, so the same
// scenario allocates the same ids on every run — which is what lets the ops
// plane's get-trace digest be byte-identical run to run.
#pragma once

#include <cstdint>
#include <optional>

#include "util/bytes.h"

namespace pvn::telemetry {

struct TraceContext {
  std::uint64_t trace_id = 0;     // 0 = untraced
  std::uint64_t parent_span = 0;  // span id of the causing span; 0 = root
  std::uint32_t seq = 0;          // causal hop count from the trace root

  bool valid() const { return trace_id != 0; }
  // The context a child activity should carry: same trace, caused by
  // `span`, one hop further from the root.
  TraceContext child_of(std::uint64_t span) const {
    return TraceContext{trace_id, span, seq + 1};
  }

  bool operator==(const TraceContext&) const = default;
};

// Fixed-width field codec (20 bytes), composed into larger messages. The
// decode side follows the repo's all-or-nothing convention: it only reads,
// the caller checks r.ok() / exhaustion once for the whole message.
void encode_trace_context(ByteWriter& w, const TraceContext& ctx);
TraceContext decode_trace_context(ByteReader& r);

}  // namespace pvn::telemetry
