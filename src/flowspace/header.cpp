#include "flowspace/header.hpp"

#include <sstream>

namespace difane {

namespace {
std::vector<FieldSpec> build_layout() {
  std::vector<FieldSpec> specs;
  std::size_t offset = 0;
  auto add = [&](Field f, const char* name, std::size_t width) {
    specs.push_back(FieldSpec{f, name, offset, width});
    offset += width;
  };
  add(Field::kInPort, "in_port", 16);
  add(Field::kEthSrc, "eth_src", 48);
  add(Field::kEthDst, "eth_dst", 48);
  add(Field::kEthType, "eth_type", 16);
  add(Field::kVlanId, "vlan_id", 12);
  add(Field::kVlanPcp, "vlan_pcp", 3);
  add(Field::kIpSrc, "ip_src", 32);
  add(Field::kIpDst, "ip_dst", 32);
  add(Field::kIpProto, "ip_proto", 8);
  add(Field::kIpTos, "ip_tos", 6);
  add(Field::kTpSrc, "tp_src", 16);
  add(Field::kTpDst, "tp_dst", 16);
  ensures(offset <= kHeaderBits, "12-tuple must fit the header vector");
  return specs;
}
}  // namespace

const std::vector<FieldSpec>& all_fields() {
  static const std::vector<FieldSpec> specs = build_layout();
  return specs;
}

const FieldSpec& field_spec(Field f) { return all_fields().at(static_cast<std::size_t>(f)); }

std::size_t header_bits_used() {
  const auto& last = all_fields().back();
  return last.offset + last.width;
}

const BitVec& used_bits_mask() {
  static const BitVec mask = [] {
    BitVec m;
    for (std::size_t b = 0; b < header_bits_used(); ++b) m.set(b, true);
    return m;
  }();
  return mask;
}

bool covers_used_bits(const Ternary& t) {
  return (t.care() & used_bits_mask()) == used_bits_mask();
}

PacketBuilder& PacketBuilder::set(Field f, std::uint64_t value) {
  const auto& spec = field_spec(f);
  bits_.set_bits(spec.offset, spec.width, value);
  return *this;
}

std::uint64_t get_field(const BitVec& packet, Field f) {
  const auto& spec = field_spec(f);
  return packet.get_bits(spec.offset, spec.width);
}

void match_exact(Ternary& t, Field f, std::uint64_t value) {
  const auto& spec = field_spec(f);
  t.set_exact(spec.offset, spec.width, value);
}

Ternary exact_pattern(const BitVec& packet) { return Ternary(packet, used_bits_mask()); }

void match_prefix(Ternary& t, Field f, std::uint64_t value, std::size_t plen) {
  const auto& spec = field_spec(f);
  t.set_prefix(spec.offset, spec.width, value, plen);
}

std::vector<std::pair<std::uint64_t, std::size_t>> range_to_prefixes(
    std::uint64_t lo, std::uint64_t hi, std::size_t width) {
  expects(width >= 1 && width <= 64, "range_to_prefixes: bad width");
  const std::uint64_t limit = width == 64 ? ~0ULL : (1ULL << width) - 1;
  expects(lo <= hi && hi <= limit, "range_to_prefixes: bad range");
  std::vector<std::pair<std::uint64_t, std::size_t>> out;
  // Greedy: at each step take the largest aligned power-of-two block that
  // starts at `lo` and does not overshoot `hi`.
  while (true) {
    std::size_t block_log = width;
    // Largest alignment of lo.
    if (lo != 0) block_log = static_cast<std::size_t>(__builtin_ctzll(lo));
    // Shrink until block fits in remaining range.
    while (block_log > 0) {
      const std::uint64_t span = (block_log >= 64) ? ~0ULL : (1ULL << block_log) - 1;
      if (lo + span <= hi && block_log <= width) break;
      --block_log;
    }
    const std::uint64_t span = (block_log >= 64) ? ~0ULL : (1ULL << block_log) - 1;
    out.emplace_back(lo, width - block_log);
    if (lo + span >= hi) break;
    lo += span + 1;
  }
  return out;
}

std::vector<Ternary> match_range(const Ternary& base, Field f, std::uint64_t lo,
                                 std::uint64_t hi) {
  const auto& spec = field_spec(f);
  std::vector<Ternary> out;
  for (const auto& [value, plen] : range_to_prefixes(lo, hi, spec.width)) {
    Ternary t = base;
    t.set_prefix(spec.offset, spec.width, value, plen);
    out.push_back(t);
  }
  return out;
}

std::string pattern_to_string(const Ternary& t) {
  std::ostringstream os;
  bool any = false;
  for (const auto& spec : all_fields()) {
    const std::string bits = t.bits_to_string(spec.offset, spec.width);
    if (bits.find_first_not_of('x') == std::string::npos) continue;  // unconstrained
    if (any) os << " ";
    os << spec.name << "=" << bits;
    any = true;
  }
  if (!any) return "*";
  return os.str();
}

std::string ipv4_to_string(std::uint32_t ip) {
  std::ostringstream os;
  os << ((ip >> 24) & 0xff) << "." << ((ip >> 16) & 0xff) << "." << ((ip >> 8) & 0xff)
     << "." << (ip & 0xff);
  return os.str();
}

std::uint32_t make_ipv4(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d) {
  return (static_cast<std::uint32_t>(a) << 24) | (static_cast<std::uint32_t>(b) << 16) |
         (static_cast<std::uint32_t>(c) << 8) | d;
}

}  // namespace difane
