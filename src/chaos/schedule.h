// Chaos schedules: the typed, serializable fault programs that drive a
// chaos campaign (see DESIGN.md "Chaos & invariants").
//
// A ChaosSchedule is fully self-contained: the scenario block describes the
// PopulationTestbed to build (fleet size, lease, standbys, rogue) and the
// event list describes every fault to inject, each with an absolute start
// time and a bounded duration drawn at *plan* time. No randomness happens at
// run time, so removing one event from a schedule never shifts another —
// the property the delta-debugging Shrinker depends on.
//
// Schedules have a versioned binary codec (field lists, util/codec.h, like
// every wire message) so a failing schedule can be written to a repro
// file, attached to a bug report, and replayed bit-identically later.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/codec.h"
#include "util/time.h"

namespace pvn {

// The fault vocabulary. `target`/`duration`/`loss`/`arg` are interpreted
// per kind (see ChaosEvent).
enum class ChaosEventKind : std::uint8_t {
  kLinkFlap = 0,     // client `target`'s access link down for `duration`
  kLossBurst,        // client `target`'s access link at `loss` for `duration`
  kPartition,        // access net `target` (0=A, 1=B) uplink down: the whole
                     // network unreachable for `duration`
  kClientCrash,      // client host `target` down for `duration`
  kServerCrash,      // control host of net `target` down for `duration`
  kMboxCrash,        // primary mbox pool of net `target` crashed, restarted
                     // after `duration` (chains lost; standbys promote)
  kRogueMode,        // switch the rogue server's attack to RogueMode(`arg`)
  kByzantineStandby, // standby agent of net `target` lies about checkpoint
                     // digests for `duration`
  kHandoverStorm,    // `arg` active agents migrate to the other network at
                     // once (a city-block handover wave)
  kPlantedBug,       // test-only: trip PlantedBug(`arg`) — the auditor must
                     // catch it (never drawn by the planner)
};
constexpr int kChaosEventKindCount = 10;
const char* to_string(ChaosEventKind kind);
constexpr bool wire_valid(ChaosEventKind kind) {
  return static_cast<int>(kind) < kChaosEventKindCount;
}

// Deliberate invariant violations for auditor self-tests. Each one maps to
// a debug hook that breaks exactly one invariant class.
enum class PlantedBug : std::uint8_t {
  kConservation = 0,  // inflate sdn.switch.packets_in past link deliveries
  kStuckSession,      // stop one agent's session; it idles forever
  kLeaseLeak,         // pause the lease sweep; expired leases linger
  kMemoryLeak,        // instantiate an orphan module no deployment owns
  kReputation,        // raise a host's distrust without any recorded report
  kReplyCache,        // bump the duplicate-deploy count past retransmissions
};
constexpr int kPlantedBugCount = 6;
const char* to_string(PlantedBug bug);

struct ChaosEvent : codec::Message<ChaosEvent> {
  SimTime at = 0;           // absolute injection time
  ChaosEventKind kind = ChaosEventKind::kLinkFlap;
  std::uint32_t target = 0; // client index or access-net index, per kind
  SimDuration duration = 0; // fault window length (0 where meaningless)
  double loss = 0.0;        // kLossBurst only, in [0, 1]
  std::uint32_t arg = 0;    // rogue mode / planted bug / storm size

  template <class F> void fields(F& f) {
    f(at, kind, target, duration, loss, arg);
  }
  bool validate() const {
    return at >= 0 && duration >= 0 && loss >= 0.0 && loss <= 1.0 &&
           (kind != ChaosEventKind::kPlantedBug || arg < kPlantedBugCount);
  }
  bool operator==(const ChaosEvent&) const = default;
};

// The testbed a schedule runs over. Kept small and explicit so a repro file
// rebuilds the exact same world.
struct ChaosScenario : codec::Message<ChaosScenario> {
  std::uint32_t clients = 8;
  SimDuration lease = seconds(20);
  bool standbys = true;
  bool rogue = true;
  SimDuration fault_window = seconds(60);  // events are drawn inside this
  SimDuration settle = seconds(75);        // quiet tail for reconvergence
  std::uint32_t max_pending_deploys = 0;   // server admission (0 = unbounded)
  std::uint32_t max_expiries_per_sweep = 0;

  template <class F> void fields(F& f) {
    f(clients, lease, standbys, rogue, fault_window, settle,
      max_pending_deploys, max_expiries_per_sweep);
  }
  bool validate() const;
  bool operator==(const ChaosScenario&) const = default;
};

constexpr std::uint32_t kChaosScheduleVersion = 1;
// Decode guards: no legitimate schedule needs more than this.
constexpr std::uint32_t kMaxChaosEvents = 100'000;
constexpr std::uint32_t kMaxChaosClients = 1'000'000;

struct ChaosSchedule : codec::Message<ChaosSchedule> {
  std::uint32_t version = kChaosScheduleVersion;
  std::uint64_t seed = 0;
  ChaosScenario scenario;
  std::vector<ChaosEvent> events;  // sorted by `at` by the planner

  // The run deadline: every fault window has closed and the settle tail
  // has elapsed.
  SimTime horizon() const { return scenario.fault_window + scenario.settle; }

  template <class F> void fields(F& f) {
    f(version, seed);
    f.blob(scenario);
    f.blob_list32(events, "events");
  }
  bool validate() const;
  bool operator==(const ChaosSchedule&) const = default;
};

// Repro files: a magic header + the encoded schedule, so a truncated or
// foreign file is rejected instead of misparsed.
bool save_repro(const ChaosSchedule& schedule, const std::string& path);
std::optional<ChaosSchedule> load_repro(const std::string& path);

}  // namespace pvn
