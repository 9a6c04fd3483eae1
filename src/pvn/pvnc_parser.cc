#include "pvn/pvnc_parser.h"

#include <charconv>
#include <limits>
#include <sstream>

namespace pvn {
namespace {

// Each list in a PVNC travels with a u16 count (Pvnc::fields), and the text
// is the one place list lengths come from outside the program.
constexpr std::size_t kMaxListSize = std::numeric_limits<std::uint16_t>::max();

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

bool parse_int(const std::string& s, long& out) {
  int base = 10;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    base = 16;
    begin += 2;
  }
  const auto [p, ec] = std::from_chars(begin, end, out, base);
  return ec == std::errc() && p == end;
}

// "1500kbps" / "2mbps" / "400bps"
bool parse_rate(const std::string& s, Rate& out) {
  std::size_t i = 0;
  while (i < s.size() && (std::isdigit(s[i]) != 0)) ++i;
  long value = 0;
  if (!parse_int(s.substr(0, i), value)) return false;
  const std::string unit = s.substr(i);
  if (unit == "bps") {
    out = Rate::bps(value);
  } else if (unit == "kbps") {
    out = Rate::kbps(value);
  } else if (unit == "mbps") {
    out = Rate::mbps(value);
  } else if (unit == "gbps") {
    out = Rate::gbps(value);
  } else {
    return false;
  }
  return true;
}

// Applies one key=value token to a policy; returns error text or "".
std::string apply_policy_kv(PvncPolicy& policy, const std::string& key,
                            const std::string& value) {
  if (key == "src" || key == "dst") {
    const auto prefix = Prefix::parse(value);
    if (!prefix) return "bad cidr: " + value;
    (key == "src" ? policy.match.src : policy.match.dst) = *prefix;
    return "";
  }
  if (key == "proto") {
    if (value == "tcp") {
      policy.match.proto = IpProto::kTcp;
    } else if (value == "udp") {
      policy.match.proto = IpProto::kUdp;
    } else {
      return "bad proto: " + value;
    }
    return "";
  }
  long n = 0;
  if (key == "sport" || key == "dport") {
    if (!parse_int(value, n) || n < 0 || n > 65535) return "bad port: " + value;
    (key == "sport" ? policy.match.src_port : policy.match.dst_port) =
        static_cast<Port>(n);
    return "";
  }
  if (key == "tos") {
    if (!parse_int(value, n) || n < 0 || n > 255) return "bad tos: " + value;
    // For `mark`, tos is the value to set; for other kinds it is a match
    // field. Store in both places; the kind decides which is used.
    policy.tos = static_cast<std::uint8_t>(n);
    if (policy.kind != PvncPolicy::Kind::kMark) {
      policy.match.tos = static_cast<std::uint8_t>(n);
    }
    return "";
  }
  if (key == "rate") {
    if (!parse_rate(value, policy.rate)) return "bad rate: " + value;
    return "";
  }
  if (key == "gateway") {
    const auto addr = Ipv4Addr::parse(value);
    if (!addr) return "bad gateway: " + value;
    policy.gateway = *addr;
    return "";
  }
  if (key == "priority") {
    if (!parse_int(value, n)) return "bad priority: " + value;
    policy.priority = static_cast<int>(n);
    return "";
  }
  return "unknown policy field: " + key;
}

}  // namespace

std::variant<Pvnc, ParseError> parse_pvnc(const std::string& text) {
  Pvnc pvnc;
  bool in_block = false;
  bool saw_block = false;
  int line_no = 0;
  std::istringstream in(text);
  std::string line;

  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments.
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    const std::vector<std::string> tokens = split_ws(line);
    if (tokens.empty()) continue;

    if (!in_block) {
      if (tokens[0] != "pvnc") {
        return ParseError{line_no, "expected 'pvnc \"name\" {'"};
      }
      if (tokens.size() < 3 || tokens.back() != "{") {
        return ParseError{line_no, "expected 'pvnc \"name\" {'"};
      }
      std::string name = tokens[1];
      if (name.size() >= 2 && name.front() == '"' && name.back() == '"') {
        name = name.substr(1, name.size() - 2);
      }
      if (name.empty()) return ParseError{line_no, "empty pvnc name"};
      pvnc.name = name;
      in_block = true;
      saw_block = true;
      continue;
    }

    if (tokens[0] == "}") {
      in_block = false;
      continue;
    }

    if (tokens[0] == "module") {
      if (tokens.size() < 2) {
        return ParseError{line_no, "module needs a name"};
      }
      PvncModule mod;
      mod.store_name = tokens[1];
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        const auto eq = tokens[i].find('=');
        if (eq == std::string::npos) {
          return ParseError{line_no, "module param must be key=value: " +
                                         tokens[i]};
        }
        mod.params[tokens[i].substr(0, eq)] = tokens[i].substr(eq + 1);
      }
      if (mod.params.size() > kMaxListSize) {
        return ParseError{line_no, "module has more than 65535 params"};
      }
      if (pvnc.chain.size() == kMaxListSize) {
        return ParseError{line_no, "pvnc has more than 65535 modules"};
      }
      pvnc.chain.push_back(std::move(mod));
      continue;
    }

    if (tokens[0] == "policy") {
      if (tokens.size() < 2) {
        return ParseError{line_no, "policy needs a kind"};
      }
      PvncPolicy policy;
      const std::string& kind = tokens[1];
      if (kind == "drop") {
        policy.kind = PvncPolicy::Kind::kDrop;
      } else if (kind == "rate") {
        policy.kind = PvncPolicy::Kind::kRateLimit;
      } else if (kind == "mark") {
        policy.kind = PvncPolicy::Kind::kMark;
      } else if (kind == "tunnel") {
        policy.kind = PvncPolicy::Kind::kTunnel;
      } else {
        return ParseError{line_no, "unknown policy kind: " + kind};
      }
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        const auto eq = tokens[i].find('=');
        if (eq == std::string::npos) {
          return ParseError{line_no,
                            "policy field must be key=value: " + tokens[i]};
        }
        const std::string err = apply_policy_kv(
            policy, tokens[i].substr(0, eq), tokens[i].substr(eq + 1));
        if (!err.empty()) return ParseError{line_no, err};
      }
      if (policy.kind == PvncPolicy::Kind::kRateLimit &&
          policy.rate.bits_per_second <= 0) {
        return ParseError{line_no, "rate policy needs rate=<n>[k|m|g]bps"};
      }
      if (policy.kind == PvncPolicy::Kind::kTunnel &&
          policy.gateway.is_unspecified()) {
        return ParseError{line_no, "tunnel policy needs gateway=<addr>"};
      }
      if (pvnc.policies.size() == kMaxListSize) {
        return ParseError{line_no, "pvnc has more than 65535 policies"};
      }
      pvnc.policies.push_back(policy);
      continue;
    }

    return ParseError{line_no, "unknown directive: " + tokens[0]};
  }

  if (!saw_block) {
    return ParseError{line_no > 0 ? line_no : 1, "no pvnc block found"};
  }
  if (in_block) return ParseError{line_no, "unterminated pvnc block"};
  return pvnc;
}

std::string format_pvnc(const Pvnc& pvnc) {
  std::ostringstream out;
  out << "pvnc \"" << pvnc.name << "\" {\n";
  for (const PvncModule& m : pvnc.chain) {
    out << "  module " << m.store_name;
    for (const auto& [k, v] : m.params) out << " " << k << "=" << v;
    out << "\n";
  }
  for (const PvncPolicy& p : pvnc.policies) {
    out << "  policy ";
    switch (p.kind) {
      case PvncPolicy::Kind::kDrop: out << "drop"; break;
      case PvncPolicy::Kind::kRateLimit: out << "rate"; break;
      case PvncPolicy::Kind::kMark: out << "mark"; break;
      case PvncPolicy::Kind::kTunnel: out << "tunnel"; break;
    }
    if (p.match.src) out << " src=" << p.match.src->to_string();
    if (p.match.dst) out << " dst=" << p.match.dst->to_string();
    if (p.match.proto) {
      out << " proto=" << to_string(*p.match.proto);
    }
    if (p.match.src_port) out << " sport=" << *p.match.src_port;
    if (p.match.dst_port) out << " dport=" << *p.match.dst_port;
    if (p.kind == PvncPolicy::Kind::kMark) {
      out << " tos=" << static_cast<int>(p.tos);
    } else if (p.match.tos) {
      out << " tos=" << static_cast<int>(*p.match.tos);
    }
    if (p.kind == PvncPolicy::Kind::kRateLimit) {
      out << " rate=" << p.rate.bits_per_second << "bps";
    }
    if (p.kind == PvncPolicy::Kind::kTunnel) {
      out << " gateway=" << p.gateway.to_string();
    }
    if (p.priority != 100) out << " priority=" << p.priority;
    out << "\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace pvn
