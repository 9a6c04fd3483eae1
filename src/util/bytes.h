// Bounds-checked binary serialization.
//
// Every wire format in the repository (IP/TCP/UDP headers, DNS and TLS
// messages, PVN discovery messages, ESP tunnel frames) is encoded with
// ByteWriter and decoded with ByteReader. Integers are big-endian (network
// byte order). Decoding never throws: a reader that runs past the end of its
// buffer latches an error flag that callers must check via ok().
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pvn {

using Bytes = std::vector<std::uint8_t>;

// A copy-on-write byte buffer: copies share one immutable backing Bytes via a
// shared_ptr; mutation detaches (clones) only when the buffer is shared.
// Packet payloads use this so that fan-out points on the dataplane (links,
// switch pipelines, taps, middlebox chains, retransmission buffers) copy a
// pointer instead of the payload. Read access converts implicitly to
// `const Bytes&`, so codecs and matchers taking const refs work unchanged.
class SharedBytes {
 public:
  SharedBytes() = default;
  SharedBytes(Bytes b)  // NOLINT(google-explicit-constructor)
      : rep_(b.empty() ? nullptr : std::make_shared<Bytes>(std::move(b))) {}

  operator const Bytes&() const {  // NOLINT(google-explicit-constructor)
    return get();
  }
  const Bytes& get() const { return rep_ ? *rep_ : empty_bytes(); }

  std::size_t size() const { return rep_ ? rep_->size() : 0; }
  bool empty() const { return size() == 0; }
  const std::uint8_t* data() const { return rep_ ? rep_->data() : nullptr; }
  Bytes::const_iterator begin() const { return get().begin(); }
  Bytes::const_iterator end() const { return get().end(); }

  std::uint8_t operator[](std::size_t i) const { return (*rep_)[i]; }
  // Mutable element access detaches from sharers first (copy-on-write).
  std::uint8_t& operator[](std::size_t i) { return mutate()[i]; }

  // Unique, mutable view of the buffer; clones iff currently shared.
  Bytes& mutate() {
    if (!rep_) {
      rep_ = std::make_shared<Bytes>();
    } else if (rep_.use_count() > 1) {
      rep_ = std::make_shared<Bytes>(*rep_);
    }
    return *rep_;
  }

  long use_count() const { return rep_.use_count(); }

  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return a.rep_ == b.rep_ || a.get() == b.get();
  }
  friend bool operator==(const SharedBytes& a, const Bytes& b) {
    return a.get() == b;
  }
  friend bool operator==(const Bytes& a, const SharedBytes& b) {
    return a == b.get();
  }

 private:
  static const Bytes& empty_bytes() {
    static const Bytes kEmpty;
    return kEmpty;
  }

  std::shared_ptr<Bytes> rep_;
};

class ByteWriter {
 public:
  ByteWriter() = default;

  // Pre-sizes the buffer when the encoded length is known up front.
  void reserve(std::size_t n) { buf_.reserve(n); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void raw(std::span<const std::uint8_t> data);
  void raw(const Bytes& data) { raw(std::span<const std::uint8_t>(data)); }
  void raw(const SharedBytes& data) { raw(data.get()); }

  // Length-prefixed (u32) byte string.
  void blob(std::span<const std::uint8_t> data);
  void blob(const Bytes& data) { blob(std::span<const std::uint8_t>(data)); }

  // Length-prefixed (u32) UTF-8 string.
  void str(std::string_view s);

  // Overwrites the four bytes at `at` with `v` (a length known only after
  // what it prefixes has been written).
  void set_u32(std::size_t at, std::uint32_t v);

  const Bytes& bytes() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}
  explicit ByteReader(const Bytes& data)
      : data_(std::span<const std::uint8_t>(data)) {}
  explicit ByteReader(const SharedBytes& data) : ByteReader(data.get()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  Bytes raw(std::size_t n);
  // Advances past n bytes without copying them; overruns latch like raw().
  void skip(std::size_t n);
  Bytes blob();
  std::string str();
  // A reader over the next n bytes, which this reader skips. On an overrun
  // this reader latches its error and the returned one is empty.
  ByteReader sub(std::size_t n);
  // Latches the error flag: the caller found a value no encoder writes.
  void fail() { ok_ = false; }

  // True iff no read has overrun the buffer so far.
  bool ok() const { return ok_; }
  // True iff the whole buffer was consumed and no read overran.
  bool exhausted() const { return ok_ && pos_ == data_.size(); }
  std::size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }

 private:
  bool take(std::size_t n, const std::uint8_t** out);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// Convenience: bytes of a string literal / string.
Bytes to_bytes(std::string_view s);
std::string to_string(const Bytes& b);

}  // namespace pvn
