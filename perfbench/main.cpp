// perfbench_rep — one measured repetition of a benchmark workload.
//
//   perfbench_rep --workload NAME --seed N [--small] [--spans FILE]
//
// Generates the workload's policy and flow list from the seed, builds the
// Scenario, runs it, checks the outcome, and prints one JSON object with the
// repetition's walls, deterministic counters and check results. With
// --spans the repetition is traced: the per-layer replays run after the
// checks, their metrics are added under "layers", and the span log is
// written to FILE. run.py drives the repetitions and aggregates them.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "layers.hpp"
#include "spans.hpp"
#include "workloads.hpp"

using namespace difane;
using perfbench::Clock;
using perfbench::SpanLog;
using perfbench::SpanScope;

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_rep --workload NAME --seed N [--small] [--spans FILE]\n");
  std::exit(2);
}

double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_number(const char* key, double value) {
  std::printf("\"%s\": %.17g, ", key, value);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string spans_path;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') usage();
      have_seed = true;
    } else if (arg == "--spans" && i + 1 < argc) {
      spans_path = argv[++i];
    } else if (arg == "--small") {
      small = true;
    } else {
      usage();
    }
  }
  const perfbench::Workload* w = perfbench::find_workload(workload_name, small);
  if (w == nullptr || !have_seed) usage();

  try {
    std::unique_ptr<SpanLog> log;
    if (!spans_path.empty()) log = std::make_unique<SpanLog>(w->name);
    SpanLog* spans = log.get();
    const ScenarioParams params = perfbench::scenario_params(*w);

    const auto t0 = Clock::now();
    RuleTable policy;
    std::vector<FlowSpec> flows;
    std::unique_ptr<Scenario> scenario;
    {
      SpanScope setup(spans, "setup");
      {
        SpanScope s(spans, "workload.policy_gen");
        policy = perfbench::make_policy(*w, seed);
      }
      {
        SpanScope s(spans, "workload.traffic_gen");
        TrafficGenerator gen(policy, perfbench::traffic_params(
                                         *w, seed,
                                         static_cast<std::uint32_t>(params.edge_switches)));
        flows = gen.generate();
      }
      {
        SpanScope s(spans, "scenario.construct");
        scenario = std::make_unique<Scenario>(policy, params);
      }
    }
    const auto t1 = Clock::now();
    {
      SpanScope s(spans, "scenario.run");
      scenario->run(flows);
    }
    const auto t2 = Clock::now();
    const double rss = peak_rss_mib();

    const ScenarioStats& stats = scenario->stats();
    const Tracer& tr = stats.tracer;
    const std::uint64_t policy_drops = tr.dropped(DropReason::kPolicyDrop);
    const std::uint64_t failed_drops = tr.dropped() - policy_drops;
    const std::int64_t in_flight = tr.in_flight();
    VerifyReport verify;
    {
      SpanScope s(spans, "core.verify_sampled");
      verify = scenario->verify_installed(200, seed);
    }
    const SampleSet& first = tr.first_packet_delay();

    std::vector<perfbench::Metric> layers;
    if (spans != nullptr) {
      layers = perfbench::measure_layers(
          {*w, policy, flows, *scenario, verify.violations.size()}, *spans);
      if (!spans->write_jsonl(spans_path)) {
        std::fprintf(stderr, "perfbench_rep: cannot write %s\n", spans_path.c_str());
        return 1;
      }
    }

    std::printf("{\"workload\": \"%s\", \"seed\": %llu, ", w->name,
                static_cast<unsigned long long>(seed));
    print_number("setup_s", perfbench::seconds_between(t0, t1));
    print_number("run_s", perfbench::seconds_between(t1, t2));
    print_number("peak_rss_mib", rss);
    print_number("flows", static_cast<double>(flows.size()));
    print_number("injected", static_cast<double>(tr.injected()));
    print_number("delivered", static_cast<double>(tr.delivered()));
    print_number("policy_drops", static_cast<double>(policy_drops));
    print_number("failed_pkts",
                 static_cast<double>(failed_drops) +
                     static_cast<double>(in_flight > 0 ? in_flight : -in_flight));
    print_number("ingress_hits",
                 static_cast<double>(stats.ingress_cache_hits + stats.ingress_local_hits));
    print_number("redirects", static_cast<double>(stats.redirects));
    print_number("cache_installs", static_cast<double>(stats.cache_installs));
    print_number("cache_rules_installed", static_cast<double>(stats.cache_rules_installed));
    print_number("cache_hit_frac", stats.cache_hit_fraction());
    print_number("first_pkt_delay_mean_ms", first.empty() ? 0.0 : first.mean() * 1e3);
    print_number("first_pkt_delay_p50_ms", first.empty() ? 0.0 : first.percentile(0.5) * 1e3);
    print_number("first_pkt_delay_p99_ms", first.empty() ? 0.0 : first.percentile(0.99) * 1e3);
    print_number("first_pkt_delay_samples", static_cast<double>(first.count()));
    print_number("setup_rate_per_s", stats.setup_completions.rate());
    print_number("sim_end_s", scenario->net().engine().now());
    print_number("engine_events", static_cast<double>(scenario->net().engine().executed()));
    std::printf("\"checks\": {\"conserved\": %s, \"no_failed_drops\": %s, "
                "\"verify_clean\": %s}",
                in_flight == 0 ? "true" : "false", failed_drops == 0 ? "true" : "false",
                verify.clean() ? "true" : "false");
    if (!verify.clean()) {
      std::fprintf(stderr, "perfbench_rep: verify_installed: %s\n",
                   verify.summary().c_str());
    }
    std::printf(", \"layers\": {");
    for (std::size_t i = 0; i < layers.size(); ++i) {
      std::printf("%s\"%s\": [%.17g, \"%s\"]", i == 0 ? "" : ", ", layers[i].name.c_str(),
                  layers[i].value, layers[i].unit.c_str());
    }
    std::printf("}}\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_rep: %s\n", e.what());
    return 1;
  }
  return 0;
}
