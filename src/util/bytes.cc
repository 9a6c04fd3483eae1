#include "util/bytes.h"

namespace pvn {

void ByteWriter::u16(std::uint16_t v) {
  const std::uint8_t b[2] = {static_cast<std::uint8_t>(v >> 8),
                             static_cast<std::uint8_t>(v)};
  buf_.insert(buf_.end(), b, b + 2);
}

void ByteWriter::u32(std::uint32_t v) {
  const std::uint8_t b[4] = {
      static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
      static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
  buf_.insert(buf_.end(), b, b + 4);
}

void ByteWriter::u64(std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
  }
  buf_.insert(buf_.end(), b, b + 8);
}

void ByteWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void ByteWriter::raw(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteWriter::blob(std::span<const std::uint8_t> data) {
  u32(static_cast<std::uint32_t>(data.size()));
  raw(data);
}

void ByteWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::set_u32(std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (24 - 8 * i));
  }
}

bool ByteReader::take(std::size_t n, const std::uint8_t** out) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  *out = data_.data() + pos_;
  pos_ += n;
  return true;
}

std::uint8_t ByteReader::u8() {
  const std::uint8_t* p = nullptr;
  if (!take(1, &p)) return 0;
  return p[0];
}

std::uint16_t ByteReader::u16() {
  const std::uint8_t* p = nullptr;
  if (!take(2, &p)) return 0;
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

std::uint32_t ByteReader::u32() {
  const std::uint8_t* p = nullptr;
  if (!take(4, &p)) return 0;
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

std::uint64_t ByteReader::u64() {
  const std::uint64_t hi = u32();
  const std::uint64_t lo = u32();
  return (hi << 32) | lo;
}

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return ok_ ? v : 0.0;
}

Bytes ByteReader::raw(std::size_t n) {
  const std::uint8_t* p = nullptr;
  if (!take(n, &p)) return {};
  return Bytes(p, p + n);
}

void ByteReader::skip(std::size_t n) {
  const std::uint8_t* p = nullptr;
  take(n, &p);
}

Bytes ByteReader::blob() {
  const std::uint32_t n = u32();
  return raw(n);
}

ByteReader ByteReader::sub(std::size_t n) {
  const std::uint8_t* p = nullptr;
  if (!take(n, &p)) return ByteReader(std::span<const std::uint8_t>());
  return ByteReader(std::span<const std::uint8_t>(p, n));
}

std::string ByteReader::str() {
  const std::uint32_t n = u32();
  const std::uint8_t* p = nullptr;
  if (!take(n, &p)) return {};
  return std::string(reinterpret_cast<const char*>(p), n);
}

Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string to_string(const Bytes& b) {
  return std::string(b.begin(), b.end());
}

}  // namespace pvn
