// difane_sim — command-line scenario driver. Runs a DIFANE or NOX scenario
// with a generated policy and traffic, prints the measurement summary, and
// optionally verifies the installed state afterwards. Every experiment in
// bench/ can be approximated interactively with this tool.
//
//   difane_sim --mode difane --rules 5000 --authorities 4 --rate 20000
//              --duration 2 --strategy cover --cache 2000 --verify
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <type_traits>

#include "core/symbolic_verifier.hpp"
#include "core/system.hpp"
#include "core/verifier.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"
#include "workload/rulegen.hpp"
#include "workload/serialize.hpp"

using namespace difane;

namespace {

struct Options {
  Mode mode = Mode::kDifane;
  std::size_t rules = 2000;
  std::uint64_t seed = 1;
  std::size_t edges = 4;
  std::size_t cores = 2;
  std::uint32_t authorities = 2;
  std::size_t cache = 2000;
  CacheStrategy strategy = CacheStrategy::kCoverSet;
  std::size_t capacity = 1000;
  double rate = 5000.0;
  double duration = 2.0;
  std::size_t pool = 20000;
  double zipf = 1.0;
  double mean_packets = 5.0;
  double fail_at = -1.0;  // <0: no failure
  bool verify = false;
  bool verify_symbolic = false;
  bool campus = false;
  bool flow_stats = false;
  std::string policy_in;    // load policy from file instead of generating
  std::string policy_out;   // dump the (generated or loaded) policy
  std::string trace_in;     // replay a saved trace instead of generating
  std::string trace_out;    // dump the generated trace
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --mode difane|nox         control plane (default difane)\n"
      "  --rules N                 policy size (default 2000)\n"
      "  --campus                  campus-style policy instead of classbench\n"
      "  --seed N                  RNG seed (default 1)\n"
      "  --edges N --cores N       topology (default 4 / 2)\n"
      "  --authorities K           authority switches (default 2)\n"
      "  --cache N                 ingress cache entries (default 2000)\n"
      "  --capacity N              partition capacity (default 1000)\n"
      "  --strategy micro|dep|cover  cache strategy (default cover)\n"
      "  --rate F --duration F     traffic (default 5000 flows/s, 2 s)\n"
      "  --pool N --zipf F         flow pool / popularity skew\n"
      "  --packets F               mean packets per flow (default 5)\n"
      "  --fail-at T               fail authority 0 at time T\n"
      "  --verify                  sample-verify installed state after the run\n"
      "  --verify-symbolic         exhaustive region-level verification\n"
      "  --flow-stats              print top per-policy-rule counters\n"
      "  --policy-in FILE          load policy (serialize format) from FILE\n"
      "  --policy-out FILE         save the policy to FILE\n"
      "  --trace-in FILE           replay a saved traffic trace\n"
      "  --trace-out FILE          save the generated trace to FILE\n",
      argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (++i >= argc) usage(argv[0]);
      return argv[i];
    };
    // Numeric flags parse strictly: a malformed value is a usage error.
    const auto count = [&](auto& out) {
      const auto v =
          util::parse_count<std::remove_reference_t<decltype(out)>>(value());
      if (!v) usage(argv[0]);
      out = *v;
    };
    const auto real = [&](double& out) {
      const auto v = util::parse_double(value());
      if (!v) usage(argv[0]);
      out = *v;
    };
    if (arg == "--mode") {
      const std::string m = value();
      if (m == "difane") {
        opt.mode = Mode::kDifane;
      } else if (m == "nox") {
        opt.mode = Mode::kNox;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--strategy") {
      const std::string s = value();
      if (s == "micro") {
        opt.strategy = CacheStrategy::kMicroflow;
      } else if (s == "dep") {
        opt.strategy = CacheStrategy::kDependentSet;
      } else if (s == "cover") {
        opt.strategy = CacheStrategy::kCoverSet;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--rules") {
      count(opt.rules);
    } else if (arg == "--seed") {
      count(opt.seed);
    } else if (arg == "--edges") {
      count(opt.edges);
    } else if (arg == "--cores") {
      count(opt.cores);
    } else if (arg == "--authorities") {
      count(opt.authorities);
    } else if (arg == "--cache") {
      count(opt.cache);
    } else if (arg == "--capacity") {
      count(opt.capacity);
    } else if (arg == "--rate") {
      real(opt.rate);
    } else if (arg == "--duration") {
      real(opt.duration);
    } else if (arg == "--pool") {
      count(opt.pool);
    } else if (arg == "--zipf") {
      real(opt.zipf);
    } else if (arg == "--packets") {
      real(opt.mean_packets);
    } else if (arg == "--fail-at") {
      real(opt.fail_at);
    } else if (arg == "--verify") {
      opt.verify = true;
    } else if (arg == "--verify-symbolic") {
      opt.verify_symbolic = true;
    } else if (arg == "--policy-in") {
      opt.policy_in = value();
    } else if (arg == "--policy-out") {
      opt.policy_out = value();
    } else if (arg == "--trace-in") {
      opt.trace_in = value();
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else if (arg == "--campus") {
      opt.campus = true;
    } else if (arg == "--flow-stats") {
      opt.flow_stats = true;
    } else {
      usage(argv[0]);
    }
  }
  return opt;
}

int run(const Options& opt) {
  const RuleTable policy =
      !opt.policy_in.empty() ? load_policy_file(opt.policy_in)
      : opt.campus           ? campus_like(opt.rules, opt.seed)
                             : classbench_like(opt.rules, opt.seed);
  if (!opt.policy_out.empty()) {
    save_policy_file(opt.policy_out, policy);
    std::printf("saved policy (%zu rules) to %s\n", policy.size(),
                opt.policy_out.c_str());
  }

  ScenarioParams params;
  params.mode = opt.mode;
  params.edge_switches = opt.edges;
  params.core_switches = std::max<std::size_t>(opt.cores, opt.authorities);
  params.authority_count = opt.authorities;
  params.edge_cache_capacity = opt.cache;
  params.partitioner.capacity = opt.capacity;
  params.cache_strategy = opt.strategy;
  Scenario scenario(policy, params);

  const char* policy_source = !opt.policy_in.empty() ? opt.policy_in.c_str()
                              : opt.campus            ? "campus"
                                                      : "classbench";
  std::printf("difane_sim: mode=%s policy=%zu rules (%s) topology=%zu edges/%zu "
              "cores, cache=%zu, strategy=%s\n",
              mode_name(opt.mode), policy.size(), policy_source, opt.edges,
              params.core_switches, opt.cache, cache_strategy_name(opt.strategy));
  if (const auto* plan = scenario.plan()) {
    std::printf("partitioning: %zu partitions over %u authority switches, "
                "duplication %.2fx, max %zu rules/switch\n",
                plan->partitions().size(), plan->authority_count(),
                plan->duplication_factor(), plan->max_rules_per_authority());
  }

  std::vector<FlowSpec> flows;
  if (!opt.trace_in.empty()) {
    flows = load_trace_file(opt.trace_in);
  } else {
    TrafficParams tp;
    tp.seed = opt.seed ^ 0x7777;
    tp.flow_pool = opt.pool;
    tp.zipf_s = opt.zipf;
    tp.arrival_rate = opt.rate;
    tp.duration = opt.duration;
    tp.mean_packets = opt.mean_packets;
    if (opt.mean_packets <= 1.0) tp.max_packets = 1.0;
    tp.ingress_count = static_cast<std::uint32_t>(opt.edges);
    TrafficGenerator gen(policy, tp);
    flows = gen.generate();
  }
  if (!opt.trace_out.empty()) {
    save_trace_file(opt.trace_out, flows);
    std::printf("saved trace (%zu flows) to %s\n", flows.size(), opt.trace_out.c_str());
  }
  if (!opt.trace_in.empty()) {
    std::printf("traffic: %zu flows from %s\n\n", flows.size(), opt.trace_in.c_str());
  } else {
    std::printf("traffic: %zu flows at %.0f/s for %.1fs (pool %zu, zipf %.2f)\n\n",
                flows.size(), opt.rate, opt.duration, opt.pool, opt.zipf);
  }

  if (opt.fail_at >= 0.0 && opt.mode == Mode::kDifane) {
    const SwitchId victim = scenario.difane()->authority_switches()[0];
    scenario.schedule_authority_failure(opt.fail_at, victim);
    std::printf("scheduled failure of authority switch %u at t=%.2fs\n\n", victim,
                opt.fail_at);
  }

  const auto& stats = scenario.run(flows);

  std::printf("results\n-------\n%s\n", stats.tracer.summary().c_str());
  std::printf("setup completions: %llu (%.1f%% of flows), rate %.0f/s\n",
              static_cast<unsigned long long>(stats.setup_completions.total()),
              100.0 * static_cast<double>(stats.setup_completions.total()) /
                  static_cast<double>(flows.empty() ? 1 : flows.size()),
              stats.setup_completions.rate());
  std::printf("ingress cache hit fraction: %.1f%% | redirects %llu | installs %llu\n",
              stats.cache_hit_fraction() * 100.0,
              static_cast<unsigned long long>(stats.redirects),
              static_cast<unsigned long long>(stats.cache_installs));
  if (!stats.tracer.first_packet_delay().empty()) {
    std::printf("first-packet delay ms: p50 %.3f p99 %.3f\n",
                stats.tracer.first_packet_delay().percentile(0.5) * 1e3,
                stats.tracer.first_packet_delay().percentile(0.99) * 1e3);
  }
  if (!stats.tracer.later_packet_delay().empty()) {
    std::printf("later-packet delay ms: p50 %.3f p99 %.3f\n",
                stats.tracer.later_packet_delay().percentile(0.5) * 1e3,
                stats.tracer.later_packet_delay().percentile(0.99) * 1e3);
  }

  if (opt.flow_stats) {
    auto rows = scenario.query_flow_stats();
    std::sort(rows.begin(), rows.end(),
              [](const FlowStatsEntry& a, const FlowStatsEntry& b) {
                return a.packets > b.packets;
              });
    TextTable table({"policy rule", "packets", "bytes", "installed copies"});
    for (std::size_t i = 0; i < std::min<std::size_t>(rows.size(), 10); ++i) {
      table.add_row({TextTable::integer(rows[i].origin),
                     TextTable::integer(static_cast<long long>(rows[i].packets)),
                     TextTable::integer(static_cast<long long>(rows[i].bytes)),
                     TextTable::integer(static_cast<long long>(rows[i].installed_copies))});
    }
    std::printf("\ntop policy rules by traffic\n%s", table.render().c_str());
  }

  int exit_code = 0;
  if (opt.verify && opt.mode == Mode::kDifane) {
    // At the engine's end-of-run clock, so entries that idled out during the
    // run no longer match (and cannot mask a violation behind them).
    const auto report = scenario.verify_installed(500);
    std::printf("\ninstalled-state verification (sampled): %s\n",
                report.summary().c_str());
    if (!report.clean()) exit_code = 1;
  }
  if (opt.verify_symbolic && opt.mode == Mode::kDifane) {
    // The same end-of-run clock as the sampled check above.
    for (std::uint32_t i = 0; i < opt.edges; ++i) {
      const auto report =
          verify_ingress_symbolically(scenario.net(), *scenario.difane(), policy,
                                      scenario.ingress_switch(i), scenario.end_clock());
      std::printf("symbolic verification, ingress %u: %s\n",
                  scenario.ingress_switch(i), report.summary().c_str());
      if (report.violation.has_value()) exit_code = 1;
    }
  }
  return exit_code;
}

}  // namespace

// A malformed input file is an error message and exit 2, not an abort.
int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "difane_sim: %s\n", e.what());
    return 2;
  }
}
