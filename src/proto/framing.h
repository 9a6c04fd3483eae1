// Length-prefixed message framing over a TCP byte stream.
//
// TLS records, HTTP-lite messages, and PVN control messages are framed as
// u32-length-prefixed blobs. take_frames() cuts complete frames off a
// reassembly buffer; StreamFramer feeds it from arbitrary stream chunk
// boundaries.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "util/bytes.h"

namespace pvn {

// Removes every complete frame from the front of `buf` and returns their
// payloads in order; a trailing partial frame stays buffered. Lengths are
// summed in size_t, so a prefix near 2^32 waits for its bytes instead of
// wrapping into a short frame, and the consumed prefix is erased once.
inline std::vector<Bytes> take_frames(Bytes& buf) {
  std::vector<Bytes> frames;
  std::size_t pos = 0;
  while (buf.size() - pos >= 4) {
    const std::size_t len = (std::size_t{buf[pos]} << 24) |
                            (std::size_t{buf[pos + 1]} << 16) |
                            (std::size_t{buf[pos + 2]} << 8) |
                            std::size_t{buf[pos + 3]};
    if (buf.size() - pos - 4 < len) break;
    const auto body = buf.begin() + static_cast<std::ptrdiff_t>(pos + 4);
    frames.emplace_back(body, body + static_cast<std::ptrdiff_t>(len));
    pos += 4 + len;
  }
  buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(pos));
  return frames;
}

class StreamFramer {
 public:
  using FrameHandler = std::function<void(Bytes frame)>;

  explicit StreamFramer(FrameHandler on_frame)
      : on_frame_(std::move(on_frame)) {}

  // Frames `payload` for transmission.
  static Bytes frame(const Bytes& payload) {
    ByteWriter w;
    w.blob(payload);
    return std::move(w).take();
  }

  // Feeds received stream bytes; emits complete frames via the handler.
  void feed(const Bytes& chunk) {
    buf_.insert(buf_.end(), chunk.begin(), chunk.end());
    for (Bytes& frame : take_frames(buf_)) on_frame_(std::move(frame));
  }

  std::size_t buffered() const { return buf_.size(); }

 private:
  FrameHandler on_frame_;
  Bytes buf_;
};

}  // namespace pvn
