// OpenFlow 1.0 12-tuple header layout over the 256-bit header vector, plus
// builders for packets and per-field pattern constraints (exact, prefix,
// range with range->prefix expansion).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flowspace/ternary.hpp"

namespace difane {

enum class Field : std::uint8_t {
  kInPort = 0,   // 16 bits
  kEthSrc,       // 48
  kEthDst,       // 48
  kEthType,      // 16
  kVlanId,       // 12
  kVlanPcp,      // 3
  kIpSrc,        // 32
  kIpDst,        // 32
  kIpProto,      // 8
  kIpTos,        // 6
  kTpSrc,        // 16 (transport source port)
  kTpDst,        // 16 (transport destination port)
};

inline constexpr std::size_t kNumFields = 12;

struct FieldSpec {
  Field field;
  const char* name;
  std::size_t offset;  // bit offset of field LSB in the header vector
  std::size_t width;   // bits
};

// Layout table; offsets are contiguous from bit 0.
const FieldSpec& field_spec(Field f);
const std::vector<FieldSpec>& all_fields();

// Total bits used by the 12-tuple (== offset+width of the last field).
std::size_t header_bits_used();

// The header_bits_used() low bits set; the rest are spare bits no field
// reads (generated packets carry noise there).
const BitVec& used_bits_mask();

// True iff `t` cares about every used bit, so it names one 12-tuple point
// (whatever it does with the spare bits).
bool covers_used_bits(const Ternary& t);

// ---- Packet construction ----------------------------------------------

// A concrete packet header is just a BitVec; this builder names the fields.
class PacketBuilder {
 public:
  PacketBuilder& set(Field f, std::uint64_t value);
  PacketBuilder& ip_src(std::uint32_t v) { return set(Field::kIpSrc, v); }
  PacketBuilder& ip_dst(std::uint32_t v) { return set(Field::kIpDst, v); }
  PacketBuilder& ip_proto(std::uint8_t v) { return set(Field::kIpProto, v); }
  PacketBuilder& tp_src(std::uint16_t v) { return set(Field::kTpSrc, v); }
  PacketBuilder& tp_dst(std::uint16_t v) { return set(Field::kTpDst, v); }
  PacketBuilder& in_port(std::uint16_t v) { return set(Field::kInPort, v); }
  BitVec build() const { return bits_; }

 private:
  BitVec bits_;
};

std::uint64_t get_field(const BitVec& packet, Field f);

// ---- Pattern construction ----------------------------------------------

// Constrain a field of `t` to an exact value.
void match_exact(Ternary& t, Field f, std::uint64_t value);

// Exact match on every used header bit of `packet`: the microflow pattern
// NOX and microflow caching install, and how counterexamples print packets.
Ternary exact_pattern(const BitVec& packet);

// Constrain a field of `t` to a CIDR-style prefix of length `plen`.
void match_prefix(Ternary& t, Field f, std::uint64_t value, std::size_t plen);

// Range -> minimal prefix cover (the classic TCAM "range expansion" that
// inflates ACLs). Returns (value, prefix_len) pairs covering [lo, hi].
std::vector<std::pair<std::uint64_t, std::size_t>> range_to_prefixes(
    std::uint64_t lo, std::uint64_t hi, std::size_t width);

// Expand one pattern with a range constraint on field `f` into several
// patterns, one per covering prefix.
std::vector<Ternary> match_range(const Ternary& base, Field f, std::uint64_t lo,
                                 std::uint64_t hi);

// Human-readable pattern dump: one "field=bits" token per constrained field.
std::string pattern_to_string(const Ternary& t);

// Dotted-quad helper for examples and logs.
std::string ipv4_to_string(std::uint32_t ip);
std::uint32_t make_ipv4(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d);

}  // namespace difane
