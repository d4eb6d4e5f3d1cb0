#include "flowspace/ternary.hpp"

namespace difane {

void Ternary::set_exact(std::size_t offset, std::size_t width, std::uint64_t value) {
  expects(width >= 1 && width <= 64 && offset + width <= kHeaderBits,
          "Ternary: bad field bounds");
  if (width < 64) {
    expects(value < (1ULL << width), "Ternary: value wider than field");
  }
  value_.set_bits(offset, width, value);
  care_.set_bits(offset, width, ~std::uint64_t{0});
}

void Ternary::set_prefix(std::size_t offset, std::size_t width, std::uint64_t value,
                         std::size_t prefix_len) {
  expects(width >= 1 && width <= 64 && offset + width <= kHeaderBits,
          "Ternary: bad field bounds");
  expects(prefix_len <= width, "Ternary: prefix longer than field");
  if (prefix_len == 0) return;
  // CIDR semantics: the prefix constrains the *most significant* bits of the
  // field, its top prefix_len bits, stored from offset + width - prefix_len.
  const std::size_t low = width - prefix_len;
  value_.set_bits(offset + low, prefix_len, value >> low);
  care_.set_bits(offset + low, prefix_len, ~std::uint64_t{0});
}

BitVec Ternary::sample_point(Rng& rng) const {
  BitVec noise;
  for (auto& word : noise.w) word = rng.next_u64();
  // Keep cared bits from value_, fill wildcard bits with noise.
  return value_ | (noise & ~care_);
}

std::string Ternary::bits_to_string(std::size_t offset, std::size_t width) const {
  expects(offset + width <= kHeaderBits, "Ternary: bad range");
  std::string s;
  s.reserve(width);
  for (std::size_t i = 0; i < width; ++i) {
    const std::size_t bit = offset + width - 1 - i;  // MSB first
    if (!care_.get(bit)) {
      s.push_back('x');
    } else {
      s.push_back(value_.get(bit) ? '1' : '0');
    }
  }
  return s;
}

std::vector<Ternary> subtract(const Ternary& a, const Ternary& b) {
  if (!intersects(a, b)) return {a};
  // Peel off, one bit at a time in ascending order, the region of `a` that
  // disagrees with `b` on a bit `b` cares about but `a` does not. Each peeled
  // piece is disjoint from all previous pieces (they agree with b on earlier
  // peel bits) and from b (they disagree on the peel bit).
  const BitVec peel = b.care() & ~a.care();
  std::vector<Ternary> out;
  out.reserve(static_cast<std::size_t>(peel.popcount()));
  BitVec value = a.value();
  BitVec care = a.care();
  for (std::size_t word = 0; word < kHeaderWords; ++word) {
    for (std::uint64_t bits = peel.w[word]; bits != 0; bits &= bits - 1) {
      const std::uint64_t bit = bits & (~bits + 1);
      care.w[word] |= bit;
      BitVec piece = value;
      piece.w[word] |= ~b.value().w[word] & bit;
      out.emplace_back(piece, care);
      value.w[word] |= b.value().w[word] & bit;
    }
  }
  // (value, care) is now a ∩ b and is intentionally dropped.
  return out;
}

std::optional<std::vector<Ternary>> subtract_all(const Ternary& a,
                                                 const std::vector<Ternary>& bs,
                                                 std::size_t max_pieces) {
  std::vector<Ternary> pieces{a};
  for (const auto& b : bs) {
    std::vector<Ternary> next;
    for (const auto& piece : pieces) {
      auto sub = subtract(piece, b);
      next.insert(next.end(), sub.begin(), sub.end());
      if (next.size() > max_pieces) return std::nullopt;
    }
    pieces = std::move(next);
    if (pieces.empty()) break;
  }
  return pieces;
}

}  // namespace difane
