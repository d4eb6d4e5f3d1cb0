#include "workload/serialize.hpp"

#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "flowspace/header.hpp"
#include "util/contract.hpp"
#include "util/parse.hpp"

namespace difane {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::runtime_error("parse error at line " + std::to_string(line) + ": " + what);
}

// A number token's value (util::parse_count / parse_signed / parse_double:
// whole token, no sign on counts), or a parse error naming the field.
template <typename T>
T number(std::optional<T> value, std::size_t line, const char* what,
         const std::string& token) {
  if (!value) fail(line, std::string("bad ") + what + " '" + token + "'");
  return *value;
}

std::string action_to_token(const Action& action) {
  switch (action.type) {
    case ActionType::kDrop: return "drop";
    case ActionType::kForward: return "fwd:" + std::to_string(action.arg);
    case ActionType::kEncap: return "encap:" + std::to_string(action.arg);
    case ActionType::kToController: return "ctrl";
  }
  return "drop";
}

Action action_from_token(const std::string& token, std::size_t line) {
  if (token == "drop") return Action::drop();
  if (token == "ctrl") return Action::to_controller();
  const auto colon = token.find(':');
  const std::string kind = token.substr(0, colon);
  if (colon != std::string::npos && (kind == "fwd" || kind == "encap")) {
    const auto arg = util::parse_count<std::uint32_t>(token.c_str() + colon + 1);
    if (!arg) fail(line, "bad action argument in '" + token + "'");
    return kind == "fwd" ? Action::forward(*arg) : Action::encap(*arg);
  }
  fail(line, "unknown action '" + token + "'");
}

const FieldSpec* find_field(const std::string& name) {
  for (const auto& spec : all_fields()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

// Pattern of one field as {0,1,x}*, MSB first; "x...x" fields are omitted on
// save, so anything we emit has at least one cared bit.
void apply_field_bits(Ternary& match, const FieldSpec& spec, const std::string& bits,
                      std::size_t line) {
  if (bits.size() != spec.width) {
    fail(line, std::string("field ") + spec.name + " expects " +
                   std::to_string(spec.width) + " bits, got " +
                   std::to_string(bits.size()));
  }
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const char c = bits[i];
    const std::size_t bit = spec.offset + spec.width - 1 - i;  // MSB first
    if (c == '0') {
      match.set_exact(bit, 1, 0);
    } else if (c == '1') {
      match.set_exact(bit, 1, 1);
    } else if (c != 'x') {
      fail(line, std::string("bad pattern character '") + c + "'");
    }
  }
}

std::string header_to_hex(const BitVec& v) {
  std::ostringstream os;
  os << std::hex;
  for (const auto word : v.w) {
    for (int nibble = 15; nibble >= 0; --nibble) {
      os << ((word >> (nibble * 4)) & 0xf);
    }
  }
  return os.str();
}

BitVec header_from_hex(const std::string& hex, std::size_t line) {
  if (hex.size() != kHeaderWords * 16) fail(line, "header hex must be 64 chars");
  BitVec v;
  for (std::size_t w = 0; w < kHeaderWords; ++w) {
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < 16; ++i) {
      const char c = hex[w * 16 + i];
      std::uint64_t nibble = 0;
      if (c >= '0' && c <= '9') {
        nibble = static_cast<std::uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        nibble = static_cast<std::uint64_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        nibble = static_cast<std::uint64_t>(c - 'A' + 10);
      } else {
        fail(line, "bad hex character");
      }
      word = (word << 4) | nibble;
    }
    v.w[w] = word;
  }
  return v;
}

}  // namespace

void save_policy(std::ostream& os, const RuleTable& table) {
  os.precision(17);  // doubles must round-trip exactly
  os << "policy v1\n";
  for (const auto& rule : table.rules()) {
    os << "rule " << rule.id << " " << rule.priority << " "
       << action_to_token(rule.action) << " " << rule.weight;
    for (const auto& spec : all_fields()) {
      const std::string bits = rule.match.bits_to_string(spec.offset, spec.width);
      if (bits.find_first_not_of('x') == std::string::npos) continue;
      os << " " << spec.name << "=" << bits;
    }
    os << "\n";
  }
}

RuleTable load_policy(std::istream& is) {
  std::string line;
  std::size_t lineno = 0;
  if (!std::getline(is, line)) fail(1, "empty input");
  ++lineno;
  if (line != "policy v1") fail(lineno, "expected 'policy v1' header");
  std::vector<Rule> rules;
  std::unordered_set<RuleId> ids;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag != "rule") fail(lineno, "expected 'rule', got '" + tag + "'");
    Rule rule;
    std::string id, priority, action_token, weight;
    if (!(ls >> id >> priority)) fail(lineno, "malformed rule line");
    rule.id = number(util::parse_count<RuleId>(id.c_str()), lineno, "rule id", id);
    if (rule.id == kInvalidRuleId) fail(lineno, "rule id " + id + " is reserved");
    rule.priority = number(util::parse_signed<Priority>(priority.c_str()), lineno,
                           "priority", priority);
    if (!(ls >> action_token >> weight)) fail(lineno, "malformed rule line");
    rule.weight = number(util::parse_double(weight.c_str()), lineno, "weight", weight);
    if (rule.weight < 0.0) fail(lineno, "negative weight");
    if (!ids.insert(rule.id).second) {
      fail(lineno, "duplicate rule id " + std::to_string(rule.id));
    }
    rule.action = action_from_token(action_token, lineno);
    std::string field_token;
    while (ls >> field_token) {
      const auto eq = field_token.find('=');
      if (eq == std::string::npos) fail(lineno, "expected field=bits");
      const FieldSpec* spec = find_field(field_token.substr(0, eq));
      if (spec == nullptr) {
        fail(lineno, "unknown field '" + field_token.substr(0, eq) + "'");
      }
      apply_field_bits(rule.match, *spec, field_token.substr(eq + 1), lineno);
    }
    rules.push_back(std::move(rule));
  }
  return RuleTable(std::move(rules));
}

void save_trace(std::ostream& os, const std::vector<FlowSpec>& flows) {
  os.precision(17);  // doubles must round-trip exactly
  os << "trace v1\n";
  for (const auto& flow : flows) {
    os << "flow " << flow.id << " " << flow.start << " " << flow.packets << " "
       << flow.packet_gap << " " << flow.ingress_index << " "
       << header_to_hex(flow.header) << "\n";
  }
}

std::vector<FlowSpec> load_trace(std::istream& is) {
  std::string line;
  std::size_t lineno = 0;
  if (!std::getline(is, line)) fail(1, "empty input");
  ++lineno;
  if (line != "trace v1") fail(lineno, "expected 'trace v1' header");
  std::vector<FlowSpec> flows;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string tag, id, start, packets, gap, ingress, hex;
    ls >> tag;
    if (tag != "flow") fail(lineno, "expected 'flow', got '" + tag + "'");
    if (!(ls >> id >> start >> packets >> gap >> ingress >> hex)) {
      fail(lineno, "malformed flow line");
    }
    FlowSpec flow;
    flow.id = number(util::parse_count<std::uint64_t>(id.c_str()), lineno, "flow id", id);
    flow.start = number(util::parse_double(start.c_str()), lineno, "start", start);
    flow.packets = number(util::parse_count<std::size_t>(packets.c_str()), lineno,
                          "packets", packets);
    flow.packet_gap = number(util::parse_double(gap.c_str()), lineno, "packet_gap", gap);
    flow.ingress_index = number(util::parse_count<std::uint32_t>(ingress.c_str()),
                                lineno, "ingress index", ingress);
    if (!(flow.start >= 0.0)) fail(lineno, "negative flow start");
    if (!(flow.packet_gap >= 0.0)) fail(lineno, "negative packet_gap");
    flow.header = header_from_hex(hex, lineno);
    flows.push_back(std::move(flow));
  }
  return flows;
}

namespace {
std::ofstream open_out(const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  return os;
}
std::ifstream open_in(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open for reading: " + path);
  return is;
}
}  // namespace

void save_policy_file(const std::string& path, const RuleTable& table) {
  auto os = open_out(path);
  save_policy(os, table);
}

RuleTable load_policy_file(const std::string& path) {
  auto is = open_in(path);
  return load_policy(is);
}

void save_trace_file(const std::string& path, const std::vector<FlowSpec>& flows) {
  auto os = open_out(path);
  save_trace(os, flows);
}

std::vector<FlowSpec> load_trace_file(const std::string& path) {
  auto is = open_in(path);
  return load_trace(is);
}

}  // namespace difane
