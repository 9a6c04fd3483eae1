#include "sdn/meter.h"

namespace pvn {

void Meter::refill(SimTime now) {
  if (now <= last_refill_) return;
  const double elapsed = to_seconds(now - last_refill_);
  tokens_ += elapsed * static_cast<double>(rate_.bits_per_second) / 8.0;
  if (tokens_ > static_cast<double>(burst_bytes_)) {
    tokens_ = static_cast<double>(burst_bytes_);
  }
  last_refill_ = now;
}

bool Meter::conforms(std::int64_t bytes, SimTime now) {
  refill(now);
  if (tokens_ >= static_cast<double>(bytes)) {
    tokens_ -= static_cast<double>(bytes);
    passed_.inc();
    return true;
  }
  dropped_.inc();
  return false;
}

}  // namespace pvn
