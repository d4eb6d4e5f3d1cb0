#include "proptest/shrink.hpp"

#include <algorithm>
#include <sstream>

#include "flowspace/header.hpp"

namespace difane::proptest {

std::string Counterexample::to_string() const {
  std::ostringstream os;
  os << rules.size() << " rules, " << packets.size() << " packets\n";
  for (const auto& r : rules) os << "  " << r.to_string() << "\n";
  for (std::size_t i = 0; i < packets.size(); ++i) {
    os << "  packet[" << i << "] " << pattern_to_string(exact_pattern(packets[i]))
       << "\n";
  }
  return os.str();
}

Counterexample shrink(Counterexample cex, const StillFails& still_fails,
                      std::size_t max_attempts, ShrinkStats* stats) {
  ShrinkStats local;
  const auto attempt = [&](const Counterexample& cand) {
    if (local.attempts >= max_attempts) return false;
    ++local.attempts;
    if (!still_fails(cand)) return false;
    ++local.accepted;
    return true;
  };

  // Delta-debug one list: remove chunks, halving the chunk size, greedily
  // restarting a pass whenever a removal sticks.
  const auto minimize_list = [&](auto member) {
    bool any = false;
    std::size_t chunk = std::max<std::size_t>(1, (cex.*member).size() / 2);
    while (true) {
      bool removed = true;
      while (removed) {
        removed = false;
        for (std::size_t i = 0; i < (cex.*member).size();) {
          Counterexample cand = cex;
          auto& vec = cand.*member;
          const std::size_t take = std::min(chunk, vec.size() - i);
          vec.erase(vec.begin() + static_cast<std::ptrdiff_t>(i),
                    vec.begin() + static_cast<std::ptrdiff_t>(i + take));
          if (attempt(cand)) {
            cex = std::move(cand);
            removed = any = true;
          } else {
            i += take;
          }
        }
      }
      if (chunk == 1) break;
      chunk /= 2;
    }
    return any;
  };

  // Simplify surviving rules: wildcard cared bits one at a time (a wider rule
  // is a simpler rule — fewer constraints to read).
  const auto widen_rules = [&] {
    bool any = false;
    const std::size_t used = header_bits_used();
    for (std::size_t r = 0; r < cex.rules.size(); ++r) {
      for (std::size_t bit = 0; bit < used; ++bit) {
        if (!cex.rules[r].match.care().get(bit)) continue;
        Counterexample cand = cex;
        BitVec care = cand.rules[r].match.care();
        care.set(bit, false);
        cand.rules[r].match = Ternary(cand.rules[r].match.value(), care);
        if (attempt(cand)) {
          cex = std::move(cand);
          any = true;
        }
      }
    }
    return any;
  };

  // Canonicalize packets toward all-zero bits.
  const auto zero_packets = [&] {
    bool any = false;
    const std::size_t used = header_bits_used();
    for (std::size_t p = 0; p < cex.packets.size(); ++p) {
      for (std::size_t bit = 0; bit < used; ++bit) {
        if (!cex.packets[p].get(bit)) continue;
        Counterexample cand = cex;
        cand.packets[p].set(bit, false);
        if (attempt(cand)) {
          cex = std::move(cand);
          any = true;
        }
      }
    }
    return any;
  };

  bool progress = true;
  while (progress && local.attempts < max_attempts) {
    progress = false;
    if (minimize_list(&Counterexample::rules)) progress = true;
    if (minimize_list(&Counterexample::packets)) progress = true;
    if (widen_rules()) progress = true;
    if (zero_packets()) progress = true;
  }
  if (stats) *stats = local;
  return cex;
}

}  // namespace difane::proptest
