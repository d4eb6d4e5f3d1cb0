// Perf-regression gate: diffs two trajectory files produced by bench_all and
// exits nonzero when any metric moved past the threshold. Deterministic
// simulation metrics are held to a tight tolerance (same seed => identical
// values, so any drift is a behavior change); `_wall_` host-timing metrics
// are noisy and are only checked when --wall-threshold is given.
//
//   bench_compare <baseline.json> <candidate.json>
//                 [--threshold PCT] [--wall-threshold PCT] [--verbose]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "obs/report.hpp"
#include "util/parse.hpp"

using difane::obs::Trajectory;

namespace {

struct Options {
  std::string baseline;
  std::string candidate;
  double threshold_pct = 0.0;       // deterministic metrics: exact by default
  double wall_threshold_pct = -1.0; // <0 => wall metrics not gated
  bool verbose = false;
};

[[noreturn]] void usage(int exit_code) {
  std::fprintf(
      exit_code == 0 ? stdout : stderr,
      "usage: bench_compare <baseline.json> <candidate.json>\n"
      "                     [--threshold PCT] [--wall-threshold PCT] [--verbose]\n"
      "Diffs two bench_all trajectory files. Exits 1 when a deterministic\n"
      "metric differs by more than PCT%% (default 0: byte-exact), or a\n"
      "_wall_ metric differs by more than the wall threshold (default: wall\n"
      "metrics are reported but not gated). Exits 2 on usage/schema errors.\n");
  std::exit(exit_code);
}

Options parse(int argc, char** argv) {
  Options opt;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_compare: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // Strict: a malformed threshold is a usage error, not a silent 0%.
    const auto percent = [&](double& out) {
      const auto v = difane::util::parse_double(next());
      if (!v) {
        std::fprintf(stderr, "bench_compare: bad value for %s\n", arg.c_str());
        usage(2);
      }
      out = *v;
    };
    if (arg == "--threshold") {
      percent(opt.threshold_pct);
    } else if (arg == "--wall-threshold") {
      percent(opt.wall_threshold_pct);
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(0);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "bench_compare: unknown flag '%s'\n", arg.c_str());
      usage(2);
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) usage(2);
  opt.baseline = positional[0];
  opt.candidate = positional[1];
  return opt;
}

double rel_delta_pct(double base, double cand) {
  if (base == cand) return 0.0;
  const double denom = std::abs(base);
  if (denom == 0.0) return std::numeric_limits<double>::infinity();
  return 100.0 * (cand - base) / denom;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  Trajectory base, cand;
  try {
    base = Trajectory::from_json(difane::obs::load_json_file(opt.baseline));
    cand = Trajectory::from_json(difane::obs::load_json_file(opt.candidate));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    return 2;
  }

  std::printf("bench_compare: baseline %s (git %s) vs candidate %s (git %s)\n",
              opt.baseline.c_str(), base.git_rev.c_str(), opt.candidate.c_str(),
              cand.git_rev.c_str());

  int violations = 0;
  int compared = 0;
  for (const auto& [id, base_report] : base.experiments) {
    const auto it = cand.experiments.find(id);
    if (it == cand.experiments.end()) {
      std::printf("  [%s] MISSING in candidate\n", id.c_str());
      ++violations;
      continue;
    }
    const auto& cand_report = it->second;
    for (const auto& [name, base_value] : base_report.metrics) {
      const auto mit = cand_report.metrics.find(name);
      if (mit == cand_report.metrics.end()) {
        std::printf("  [%s] %s MISSING in candidate\n", id.c_str(), name.c_str());
        ++violations;
        continue;
      }
      const bool wall = difane::obs::is_wall_metric(name);
      const double limit = wall ? opt.wall_threshold_pct : opt.threshold_pct;
      const double delta = rel_delta_pct(base_value, mit->second);
      ++compared;
      const bool gated = !wall || opt.wall_threshold_pct >= 0.0;
      const bool over = gated && std::abs(delta) > limit;
      if (over) ++violations;
      if (over || opt.verbose) {
        std::printf("  [%s] %s: %.6g -> %.6g (%+.2f%%)%s%s\n", id.c_str(),
                    name.c_str(), base_value, mit->second, delta,
                    wall ? " [wall]" : "", over ? " VIOLATION" : "");
      }
    }
  }
  for (const auto& [id, report] : cand.experiments) {
    (void)report;
    if (!base.experiments.count(id)) {
      std::printf("  [%s] new in candidate (not gated)\n", id.c_str());
    }
  }

  if (violations) {
    std::printf("bench_compare: %d violation(s) over %d metric(s)\n", violations,
                compared);
    return 1;
  }
  std::printf("bench_compare: OK (%d metrics within threshold)\n", compared);
  return 0;
}
