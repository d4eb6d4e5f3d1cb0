#include <gtest/gtest.h>

#include "flowspace/header.hpp"
#include "flowspace/ternary.hpp"
#include "util/rng.hpp"

namespace difane {
namespace {

Ternary pattern_from_bits(std::size_t offset, const std::string& msb_first) {
  // Helper: "1x0" constrains offset+2=1, offset+1=anything, offset+0=0.
  Ternary t;
  const std::size_t width = msb_first.size();
  for (std::size_t i = 0; i < width; ++i) {
    const char c = msb_first[i];
    const std::size_t bit = offset + width - 1 - i;
    if (c == '0') t.set_exact(bit, 1, 0);
    if (c == '1') t.set_exact(bit, 1, 1);
  }
  return t;
}

TEST(Ternary, WildcardMatchesEverything) {
  const Ternary t = Ternary::wildcard();
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(t.matches(Ternary::wildcard().sample_point(rng)));
  }
  EXPECT_TRUE(t.is_full_wildcard());
  EXPECT_EQ(t.care_bits(), 0);
}

TEST(Ternary, ExactBitsConstrainMatching) {
  Ternary t;
  t.set_exact(10, 4, 0b1010);
  BitVec yes;
  yes.set_bits(10, 4, 0b1010);
  BitVec no;
  no.set_bits(10, 4, 0b1011);
  EXPECT_TRUE(t.matches(yes));
  EXPECT_FALSE(t.matches(no));
  EXPECT_EQ(t.care_bits(), 4);
}

TEST(Ternary, NormalizesWildcardValueBits) {
  BitVec value;
  value.set(3, true);  // value bit set where care is 0
  BitVec care;         // nothing cared for
  const Ternary t(value, care);
  EXPECT_TRUE(t.value().is_zero());
  EXPECT_TRUE(t.is_full_wildcard());
}

TEST(Ternary, IntersectDisjointIsNull) {
  const auto a = pattern_from_bits(0, "1");
  const auto b = pattern_from_bits(0, "0");
  EXPECT_FALSE(intersect(a, b).has_value());
  EXPECT_FALSE(intersects(a, b));
}

TEST(Ternary, IntersectRefines) {
  const auto a = pattern_from_bits(0, "1x");
  const auto b = pattern_from_bits(0, "x0");
  const auto i = intersect(a, b);
  ASSERT_TRUE(i.has_value());
  EXPECT_EQ(i->bits_to_string(0, 2), "10");
}

TEST(Ternary, CoversSemantics) {
  const auto broad = pattern_from_bits(4, "1xx");
  const auto narrow = pattern_from_bits(4, "101");
  EXPECT_TRUE(covers(broad, narrow));
  EXPECT_FALSE(covers(narrow, broad));
  EXPECT_TRUE(covers(broad, broad));
  EXPECT_TRUE(covers(Ternary::wildcard(), narrow));
}

TEST(Ternary, SetPrefixConstrainsMsbs) {
  Ternary t;
  t.set_prefix(0, 8, 0b10110000, 4);  // top 4 bits = 1011
  EXPECT_EQ(t.bits_to_string(0, 8), "1011xxxx");
  BitVec pkt;
  pkt.set_bits(0, 8, 0b10111111);
  EXPECT_TRUE(t.matches(pkt));
  pkt.set_bits(0, 8, 0b10101111);
  EXPECT_FALSE(t.matches(pkt));
}

// set_prefix, set_exact and exact_pattern write whole words; they must set
// the same value and care bits as writing one bit at a time, and leave every
// other bit of the pattern as it was.
TEST(Ternary, WordWiseBuildersMatchBitwiseReference) {
  Rng rng(41);
  const auto random_bits = [&rng] {
    BitVec v;
    for (auto& word : v.w) word = rng.next_u64();
    return v;
  };
  // Field bit i of `value` into header bit offset + i, for i in [from, width).
  const auto bitwise = [](const Ternary& base, std::size_t offset, std::size_t width,
                          std::uint64_t value, std::size_t from) {
    BitVec v = base.value(), c = base.care();
    for (std::size_t i = from; i < width; ++i) {
      v.set(offset + i, (value >> i) & 1);
      c.set(offset + i, true);
    }
    return Ternary(v, c);
  };
  for (const auto& spec : all_fields()) {
    for (int trial = 0; trial < 20; ++trial) {
      const Ternary base(random_bits(), random_bits());
      const std::uint64_t raw = rng.next_u64();
      for (std::size_t plen = 0; plen <= spec.width; ++plen) {
        Ternary t = base;
        t.set_prefix(spec.offset, spec.width, raw, plen);
        ASSERT_TRUE(t == bitwise(base, spec.offset, spec.width, raw, spec.width - plen))
            << spec.name << " prefix " << plen;
      }
      const std::uint64_t value =
          spec.width == 64 ? raw : raw & ((std::uint64_t{1} << spec.width) - 1);
      Ternary t = base;
      t.set_exact(spec.offset, spec.width, value);
      ASSERT_TRUE(t == bitwise(base, spec.offset, spec.width, value, 0)) << spec.name;
    }
  }
  for (int trial = 0; trial < 200; ++trial) {
    const BitVec packet = random_bits();
    BitVec v, c;
    for (std::size_t b = 0; b < header_bits_used(); ++b) {
      v.set(b, packet.get(b));
      c.set(b, true);
    }
    ASSERT_TRUE(exact_pattern(packet) == Ternary(v, c));
  }
}

TEST(Ternary, SubtractDisjointReturnsOriginal) {
  const auto a = pattern_from_bits(0, "1x");
  const auto b = pattern_from_bits(0, "0x");
  const auto out = subtract(a, b);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0] == a);
}

TEST(Ternary, SubtractCoveringIsEmpty) {
  const auto a = pattern_from_bits(0, "101");
  const auto out = subtract(a, Ternary::wildcard());
  EXPECT_TRUE(out.empty());
}

TEST(Ternary, SubtractSelfIsEmpty) {
  const auto a = pattern_from_bits(0, "1x0");
  EXPECT_TRUE(subtract(a, a).empty());
}

TEST(Ternary, SubtractHalf) {
  // a = xx, b = 1x  ->  a \ b = 0x.
  const Ternary a;
  const auto b = pattern_from_bits(0, "1x");
  // b fixes bit 1 only; subtract peels exactly that bit across the whole
  // 256-bit space.
  const auto out = subtract(a, b);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].bits_to_string(0, 2), "0x");
}

// ---- Property sweep: subtraction laws on random patterns ----------------

class TernaryProperty : public ::testing::TestWithParam<std::uint64_t> {};

Ternary random_pattern(Rng& rng, std::size_t max_care = 12) {
  Ternary t;
  const auto bits = rng.uniform(0, max_care);
  for (std::uint64_t i = 0; i < bits; ++i) {
    // Confine to a narrow window so patterns actually interact.
    t.set_exact(rng.uniform(0, 15), 1, rng.uniform(0, 1));
  }
  return t;
}

TEST_P(TernaryProperty, SubtractPartitionsCorrectly) {
  Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    const Ternary a = random_pattern(rng);
    const Ternary b = random_pattern(rng);
    const auto pieces = subtract(a, b);
    // Pieces are pairwise disjoint, inside a, outside b.
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      EXPECT_TRUE(covers(a, pieces[i]));
      EXPECT_FALSE(intersects(pieces[i], b));
      for (std::size_t j = i + 1; j < pieces.size(); ++j) {
        EXPECT_FALSE(intersects(pieces[i], pieces[j]));
      }
    }
    // Point test: any sample of a is either in b or in exactly one piece.
    for (int s = 0; s < 40; ++s) {
      const BitVec p = a.sample_point(rng);
      std::size_t owners = b.matches(p) ? 1 : 0;
      for (const auto& piece : pieces) {
        if (piece.matches(p)) ++owners;
      }
      EXPECT_EQ(owners, 1u);
    }
  }
}

TEST_P(TernaryProperty, CoversIffIntersectEqualsNarrower) {
  Rng rng(GetParam() ^ 0xabcdef);
  for (int round = 0; round < 200; ++round) {
    const Ternary a = random_pattern(rng);
    const Ternary b = random_pattern(rng);
    const auto i = intersect(a, b);
    const bool a_covers_b = covers(a, b);
    const bool via_intersect = i.has_value() && (*i == b);
    EXPECT_EQ(a_covers_b, via_intersect);
  }
}

TEST_P(TernaryProperty, SamplePointAlwaysMatches) {
  Rng rng(GetParam() ^ 0x1234);
  for (int round = 0; round < 200; ++round) {
    const Ternary a = random_pattern(rng, 30);
    EXPECT_TRUE(a.matches(a.sample_point(rng)));
  }
}

TEST_P(TernaryProperty, SubtractAllRemainderDisjointFromAll) {
  Rng rng(GetParam() ^ 0x77);
  for (int round = 0; round < 30; ++round) {
    const Ternary a = random_pattern(rng);
    std::vector<Ternary> bs;
    for (int k = 0; k < 5; ++k) bs.push_back(random_pattern(rng));
    const auto rem = subtract_all(a, bs, 1 << 14);
    ASSERT_TRUE(rem.has_value());
    for (const auto& piece : *rem) {
      for (const auto& b : bs) EXPECT_FALSE(intersects(piece, b));
      EXPECT_TRUE(covers(a, piece));
    }
  }
}

// The bit-at-a-time peel subtract() replaced: one bounds-checked bit per
// step over all 256 bits.
std::vector<Ternary> subtract_per_bit(const Ternary& a, const Ternary& b) {
  if (!intersects(a, b)) return {a};
  std::vector<Ternary> out;
  Ternary cur = a;
  for (std::size_t bit = 0; bit < kHeaderBits; ++bit) {
    if (!b.care().get(bit) || cur.care().get(bit)) continue;
    Ternary piece = cur;
    piece.set_exact(bit, 1, b.value().get(bit) ? 0 : 1);
    out.push_back(piece);
    cur.set_exact(bit, 1, b.value().get(bit) ? 1 : 0);
  }
  return out;
}

TEST_P(TernaryProperty, SubtractMatchesPerBitReference) {
  Rng rng(GetParam() ^ 0x5eed);
  // Care bits anywhere in the 256, so peels cross every word boundary.
  const auto spread = [&rng](std::uint64_t max_care) {
    Ternary t;
    const auto bits = rng.uniform(0, max_care);
    for (std::uint64_t i = 0; i < bits; ++i) {
      t.set_exact(rng.uniform(0, kHeaderBits - 1), 1, rng.uniform(0, 1));
    }
    return t;
  };
  for (int round = 0; round < 300; ++round) {
    const Ternary a = spread(40);
    Ternary b = spread(60);
    // Mostly make b agree with a where both care, so the two intersect.
    if (round % 4 != 0) b = Ternary((b.value() & ~a.care()) | a.value(), b.care());
    EXPECT_EQ(subtract(a, b), subtract_per_bit(a, b)) << "round " << round;
    EXPECT_EQ(subtract(Ternary::wildcard(), b),
              subtract_per_bit(Ternary::wildcard(), b)) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TernaryProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(Ternary, SubtractAllExplosionGuardReturnsNullopt) {
  // Subtracting patterns that each care about a fresh *pair* of bits doubles
  // the piece count every step; a tiny budget must trip the guard rather
  // than blow up.
  std::vector<Ternary> bs;
  for (std::size_t i = 0; i < 20; ++i) {
    Ternary t;
    t.set_exact(2 * i, 1, 1);
    t.set_exact(2 * i + 1, 1, 1);
    bs.push_back(t);
  }
  const auto out = subtract_all(Ternary::wildcard(), bs, 4);
  EXPECT_FALSE(out.has_value());
}

TEST(Ternary, BitsToStringShowsWildcards) {
  Ternary t;
  t.set_exact(2, 1, 1);
  EXPECT_EQ(t.bits_to_string(0, 4), "x1xx");
}

}  // namespace
}  // namespace difane
