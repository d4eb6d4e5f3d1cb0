// The property runner: DIFANE_PROPERTY(Name, cases) expands to a gtest TEST
// that runs `cases` random cases, each with its own Rng seeded from a
// per-case seed, and stops at the first failing case with replay
// instructions. Replay environment:
//
//   DIFANE_PROPTEST_REPLAY=<seed>  run exactly one case with that seed
//                                  (the seed a failure report prints)
//   DIFANE_PROPTEST_SEED=<seed>    change the base seed of the whole sweep
//   DIFANE_PROPTEST_CASES=<n>      override the case count (e.g. long soaks)
//
// Case seeds derive from the base seed by splitmix64, so every case is an
// independent, reproducible stream; runs are deterministic end to end.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "util/rng.hpp"

namespace difane::proptest {

struct PropertyContext {
  std::uint64_t case_seed;
  std::size_t case_index;
  Rng rng;
};

inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* s = std::getenv(name);
  return s != nullptr ? std::strtoull(s, nullptr, 0) : fallback;
}

// Runs one case of a property body at a fixed seed, as a replay does: also
// a named regression test for a seed a sweep once failed on.
template <typename Body>
void run_case(std::uint64_t seed, Body&& body) {
  PropertyContext ctx{seed, 0, Rng(seed)};
  body(ctx);
}

template <typename Body>
void run_property(const char* name, std::size_t default_cases,
                  std::uint64_t default_seed, Body&& body) {
  if (const char* replay = std::getenv("DIFANE_PROPTEST_REPLAY")) {
    const std::uint64_t seed = std::strtoull(replay, nullptr, 0);
    run_case(seed, body);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "property " << name << " failed on replayed seed 0x"
                    << std::hex << seed;
    }
    return;
  }
  const std::uint64_t base = env_u64("DIFANE_PROPTEST_SEED", default_seed);
  const std::size_t cases = static_cast<std::size_t>(
      env_u64("DIFANE_PROPTEST_CASES", default_cases));
  std::uint64_t state = base;
  for (std::size_t i = 0; i < cases; ++i) {
    const std::uint64_t case_seed = splitmix64(state);
    PropertyContext ctx{case_seed, i, Rng(case_seed)};
    body(ctx);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "property " << name << " failed at case " << i << " of "
                    << cases << "; replay with: DIFANE_PROPTEST_REPLAY=0x"
                    << std::hex << case_seed << " ./" << name
                    << " (any runner of this test binary)";
      return;
    }
  }
}

}  // namespace difane::proptest

// `cases` is the default case count; the body sees `ctx` (PropertyContext&).
#define DIFANE_PROPERTY(name, cases)                                        \
  static void name##_PropertyBody(::difane::proptest::PropertyContext& ctx); \
  TEST(Property, name) {                                                    \
    ::difane::proptest::run_property(#name, (cases), 0xd1fa9eULL,           \
                                     name##_PropertyBody);                  \
  }                                                                         \
  static void name##_PropertyBody(::difane::proptest::PropertyContext& ctx)
