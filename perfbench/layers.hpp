// Per-layer split of one traced repetition. The simulator has no internal
// tracing, so the benchmark times the public call of each layer from outside:
// calls it makes itself (policy and traffic generation, Scenario
// construction and run, verification) are spans around the real call, and
// calls made inside the Scenario constructor and Scenario::run are replayed
// on the repetition's own inputs (see NOTES.md, "How the split is
// measured").
#pragma once

#include <string>
#include <vector>

#include "core/system.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct TracedRep {
  const Workload& workload;
  const difane::RuleTable& policy;
  const std::vector<difane::FlowSpec>& flows;
  difane::Scenario& scenario;   // after run() and verify_installed()
  std::size_t verify_violations;
};

// Replays the layers' calls (recording their spans in `spans`, which already
// holds the repetition's own spans) and returns every per-layer metric.
std::vector<Metric> measure_layers(const TracedRep& rep, SpanLog& spans);

}  // namespace perfbench
