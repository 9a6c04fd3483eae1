#include "pvn/pvnc.h"

#include <algorithm>

#include "mbox/registry.h"

namespace pvn {

std::vector<std::string> Pvnc::module_names() const {
  std::vector<std::string> names;
  names.reserve(chain.size());
  for (const PvncModule& m : chain) names.push_back(m.store_name);
  return names;
}

std::int64_t Pvnc::est_memory_bytes() const {
  return static_cast<std::int64_t>(chain.size()) * 6 * 1024 * 1024;
}

std::vector<std::string> validate_pvnc(const Pvnc& pvnc,
                                       const PvnStore* store) {
  std::vector<std::string> problems;
  if (pvnc.name.empty()) problems.push_back("pvnc has no name");
  if (store != nullptr) {
    for (const PvncModule& m : pvnc.chain) {
      if (!store->has(m.store_name)) {
        problems.push_back("unknown module: " + m.store_name);
      }
    }
  }
  // Duplicate modules are almost certainly a mistake.
  std::vector<std::string> names = pvnc.module_names();
  std::sort(names.begin(), names.end());
  for (std::size_t i = 1; i < names.size(); ++i) {
    if (names[i] == names[i - 1]) {
      problems.push_back("duplicate module: " + names[i]);
    }
  }
  // Conflicting policies: identical matches with different kinds.
  for (std::size_t i = 0; i < pvnc.policies.size(); ++i) {
    for (std::size_t j = i + 1; j < pvnc.policies.size(); ++j) {
      const PvncPolicy& a = pvnc.policies[i];
      const PvncPolicy& b = pvnc.policies[j];
      if (a.match == b.match && a.priority == b.priority && a.kind != b.kind) {
        problems.push_back("conflicting policies at priority " +
                           std::to_string(a.priority) + " on match " +
                           a.match.to_string());
      }
    }
  }
  // Rate-limit policies need a positive rate.
  for (const PvncPolicy& p : pvnc.policies) {
    if (p.kind == PvncPolicy::Kind::kRateLimit &&
        p.rate.bits_per_second <= 0) {
      problems.push_back("rate-limit policy with non-positive rate");
    }
    if (p.kind == PvncPolicy::Kind::kTunnel && p.gateway.is_unspecified()) {
      problems.push_back("tunnel policy with no gateway");
    }
  }
  return problems;
}

Pvnc restrict_to_modules(const Pvnc& pvnc,
                         const std::vector<std::string>& allowed) {
  Pvnc out = pvnc;
  out.chain.clear();
  for (const PvncModule& m : pvnc.chain) {
    if (std::find(allowed.begin(), allowed.end(), m.store_name) !=
        allowed.end()) {
      out.chain.push_back(m);
    }
  }
  return out;
}

}  // namespace pvn
