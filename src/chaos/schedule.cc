#include "chaos/schedule.h"

#include <cstdio>
#include <cstring>
#include <limits>

namespace pvn {

const char* to_string(ChaosEventKind kind) {
  switch (kind) {
    case ChaosEventKind::kLinkFlap: return "link-flap";
    case ChaosEventKind::kLossBurst: return "loss-burst";
    case ChaosEventKind::kPartition: return "partition";
    case ChaosEventKind::kClientCrash: return "client-crash";
    case ChaosEventKind::kServerCrash: return "server-crash";
    case ChaosEventKind::kMboxCrash: return "mbox-crash";
    case ChaosEventKind::kRogueMode: return "rogue-mode";
    case ChaosEventKind::kByzantineStandby: return "byzantine-standby";
    case ChaosEventKind::kHandoverStorm: return "handover-storm";
    case ChaosEventKind::kPlantedBug: return "planted-bug";
  }
  return "?";
}

const char* to_string(PlantedBug bug) {
  switch (bug) {
    case PlantedBug::kConservation: return "conservation";
    case PlantedBug::kStuckSession: return "stuck-session";
    case PlantedBug::kLeaseLeak: return "lease-leak";
    case PlantedBug::kMemoryLeak: return "memory-leak";
    case PlantedBug::kReputation: return "reputation";
    case PlantedBug::kReplyCache: return "reply-cache";
  }
  return "?";
}

bool ChaosScenario::validate() const {
  // The horizon, fault_window + settle, must not overflow.
  return clients > 0 && clients <= kMaxChaosClients && lease >= 0 &&
         fault_window > 0 && settle >= 0 &&
         settle <= std::numeric_limits<SimDuration>::max() - fault_window;
}

bool ChaosSchedule::validate() const {
  if (version != kChaosScheduleVersion || events.size() > kMaxChaosEvents) {
    return false;
  }
  // Every fault must start inside the fault window (so the settle tail is
  // genuinely quiet) and end before the horizon. Both times are
  // non-negative, so the subtraction cannot overflow where a sum could.
  for (const ChaosEvent& e : events) {
    if (e.at > scenario.fault_window || e.duration > horizon() - e.at) {
      return false;
    }
  }
  return true;
}

namespace {
constexpr char kReproMagic[8] = {'P', 'V', 'N', 'C', 'H', 'A', 'O', 'S'};
}  // namespace

bool save_repro(const ChaosSchedule& schedule, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const Bytes body = schedule.encode();
  bool ok = std::fwrite(kReproMagic, 1, sizeof(kReproMagic), f) ==
            sizeof(kReproMagic);
  ok = ok && std::fwrite(body.data(), 1, body.size(), f) == body.size();
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

std::optional<ChaosSchedule> load_repro(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  char magic[sizeof(kReproMagic)];
  if (std::fread(magic, 1, sizeof(magic), f) != sizeof(magic) ||
      std::memcmp(magic, kReproMagic, sizeof(magic)) != 0) {
    std::fclose(f);
    return std::nullopt;
  }
  Bytes body;
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    body.insert(body.end(), buf, buf + n);
  }
  std::fclose(f);
  return ChaosSchedule::decode(body);
}

}  // namespace pvn
