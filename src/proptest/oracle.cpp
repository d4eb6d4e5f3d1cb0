#include "proptest/oracle.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "core/authority.hpp"
#include "core/system.hpp"
#include "flowspace/header.hpp"
#include "flowspace/minimize.hpp"
#include "partition/incremental.hpp"
#include "switchsim/flow_table.hpp"

namespace difane::proptest {

namespace {

std::string describe(const Rule* r) { return r ? r->to_string() : "<none>"; }

// Winner identity across clipped/cached copies: the policy rule it descends
// from. Action equality is checked separately (a copy must act identically).
bool same_winner(const Rule* want, const Rule* got) {
  if ((want == nullptr) != (got == nullptr)) return false;
  if (want == nullptr) return true;
  return want->origin_or_self() == got->origin_or_self() &&
         want->action == got->action;
}

// Probe packets for an oracle: the counterexample's own packets plus
// deterministically sampled boundary packets.
std::vector<BitVec> probes_for(const Counterexample& cex, const RuleTable& table,
                               std::uint64_t sample_seed, std::size_t samples) {
  std::vector<BitVec> probes = cex.packets;
  Rng rng(sample_seed);
  for (std::size_t i = 0; i < samples; ++i) {
    probes.push_back(gen_boundary_packet(rng, table));
  }
  return probes;
}

}  // namespace

Violation check_classifier_agreement(const Counterexample& cex,
                                     const DTreeParams& params) {
  const RuleTable table = cex.table();
  const DTreeClassifier tree(table, params);
  for (std::size_t i = 0; i < cex.packets.size(); ++i) {
    const Rule* a = table.match(cex.packets[i]);
    const Rule* b = tree.classify(cex.packets[i]);
    const bool same = (a == nullptr && b == nullptr) ||
                      (a != nullptr && b != nullptr && a->id == b->id);
    if (!same) {
      std::ostringstream os;
      os << "packet[" << i << "]: linear=" << describe(a) << " dtree=" << describe(b);
      return os.str();
    }
  }
  return std::nullopt;
}

namespace {

// Shared body for the clean, faulty, and migrating transparency oracles.
// `difane_faults` (nullable) applies only to the DIFANE side, together with
// reliable control channels; the NOX oracle always runs on the clean wire.
// `migration_seed` (nullable) additionally enables live migration on the
// DIFANE side and schedules 1..3 deterministic mid-trace re-homes.
Violation nox_vs_difane_impl(const Counterexample& cex, const TopoGen& topo,
                             CacheStrategy strategy, double cache_idle_timeout,
                             const FaultPlan* difane_faults,
                             const std::uint64_t* migration_seed = nullptr) {
  const RuleTable policy = cex.table();
  const auto flows = flows_from_packets(
      cex.packets, static_cast<std::uint32_t>(topo.edge_switches));

  ScenarioParams params;
  params.topology = TopologyKind::kTwoTier;
  params.edge_switches = topo.edge_switches;
  params.core_switches = topo.core_switches;
  params.authority_count = topo.authority_count;
  params.edge_cache_capacity = topo.edge_cache_capacity;
  params.partitioner.capacity = topo.partition_capacity;
  params.cache_strategy = strategy;
  params.timings.cache_idle_timeout = cache_idle_timeout;
  params.verify_cache_hits = true;

  params.mode = Mode::kDifane;
  if (difane_faults != nullptr) {
    params.reliable_ctrl = true;
    params.faults = *difane_faults;
  }
  if (migration_seed != nullptr) {
    params.authority_count = std::max<std::uint32_t>(2, params.authority_count);
    // Authorities live on the core tier.
    params.core_switches =
        std::max<std::size_t>(params.core_switches, params.authority_count);
    params.reliable_ctrl = true;  // migration's transport
    params.migration = true;
  }
  Scenario difane(policy, params);
  if (migration_seed != nullptr) {
    // 1..3 re-homes at 10..60ms — inside the trace (flow i starts at
    // i * 5ms). Destinations drawn uniformly; a re-home to the current
    // primary is a documented no-op, so some draws deliberately test that.
    Rng mrng(*migration_seed);
    const std::uint64_t n_parts = difane.plan()->partitions().size();
    const std::uint64_t moves = 1 + mrng.uniform(0, 2);
    for (std::uint64_t i = 0; i < moves; ++i) {
      const auto index = static_cast<std::size_t>(mrng.uniform(0, n_parts - 1));
      const auto dest = static_cast<AuthorityIndex>(
          mrng.uniform(0, params.authority_count - 1));
      difane.request_rehome(index, dest,
                            0.01 + 0.02 * static_cast<double>(i) +
                                mrng.uniform01() * 0.01);
    }
  }
  const auto& ds = difane.run(flows);

  params.mode = Mode::kNox;
  params.reliable_ctrl = false;
  params.faults = FaultPlan{};
  params.migration = false;  // NOX has no partitions to move
  Scenario nox(policy, params);
  const auto& ns = nox.run(flows);

  // Transparency is only promised without capacity losses; the generators
  // keep rates far below every service rate, so losses mean the comparison
  // is vacuous, not that the property failed.
  for (const auto* s : {&ds, &ns}) {
    if (s->queue_rejects > 0 || s->tracer.dropped(DropReason::kControllerQueue) > 0 ||
        s->tracer.dropped(DropReason::kSwitchFailed) > 0 ||
        s->tracer.dropped(DropReason::kTtlExceeded) > 0 ||
        s->tracer.dropped(DropReason::kUnreachable) > 0) {
      return std::nullopt;
    }
  }

  std::ostringstream os;
  if (ds.cache_hit_mismatches != 0) {
    os << ds.cache_hit_mismatches << " ingress cache hits named the wrong winner";
    return os.str();
  }
  const auto agg = [&](const char* what, std::uint64_t d, std::uint64_t n) -> Violation {
    if (d == n) return std::nullopt;
    std::ostringstream o;
    o << what << ": difane=" << d << " nox=" << n;
    return o.str();
  };
  if (auto v = agg("delivered", ds.tracer.delivered(), ns.tracer.delivered())) return v;
  if (auto v = agg("policy drops", ds.tracer.dropped(DropReason::kPolicyDrop),
                   ns.tracer.dropped(DropReason::kPolicyDrop))) {
    return v;
  }
  if (auto v = agg("no-rule drops", ds.tracer.dropped(DropReason::kNoRule),
                   ns.tracer.dropped(DropReason::kNoRule))) {
    return v;
  }

  // DIFANE per-policy-rule counters must equal the single-table reference
  // (which is, by construction, what the NOX controller computes per punt).
  struct Ref {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
  };
  std::map<RuleId, Ref> ref;
  for (const auto& flow : flows) {
    if (const Rule* winner = policy.match(flow.header)) {
      ref[winner->id].packets += flow.packets;
      ref[winner->id].bytes += 100ull * flow.packets;
    }
  }
  std::map<RuleId, Ref> got;
  for (const auto& row : difane.query_flow_stats()) {
    got[row.origin] = Ref{row.packets, row.bytes};
  }
  for (const auto& [origin, want] : ref) {
    const auto it = got.find(origin);
    if (it == got.end() || it->second.packets != want.packets ||
        it->second.bytes != want.bytes) {
      os << "rule " << origin << " counters: want " << want.packets << " pkts/"
         << want.bytes << " B, got "
         << (it == got.end() ? std::string("<missing>")
                             : std::to_string(it->second.packets) + " pkts/" +
                                   std::to_string(it->second.bytes) + " B");
      return os.str();
    }
  }
  for (const auto& [origin, counters] : got) {
    if (counters.packets != 0 && ref.find(origin) == ref.end()) {
      os << "phantom counters for rule " << origin << " (" << counters.packets
         << " pkts)";
      return os.str();
    }
  }
  return std::nullopt;
}

}  // namespace

Violation check_nox_vs_difane(const Counterexample& cex, const TopoGen& topo,
                              CacheStrategy strategy, double cache_idle_timeout) {
  return nox_vs_difane_impl(cex, topo, strategy, cache_idle_timeout, nullptr);
}

Violation check_nox_vs_difane_faulty(const Counterexample& cex, const TopoGen& topo,
                                     CacheStrategy strategy,
                                     double cache_idle_timeout,
                                     const FaultPlan& difane_faults) {
  return nox_vs_difane_impl(cex, topo, strategy, cache_idle_timeout,
                            &difane_faults);
}

Violation check_nox_vs_difane_migrating(const Counterexample& cex,
                                        const TopoGen& topo,
                                        CacheStrategy strategy,
                                        double cache_idle_timeout,
                                        const FaultPlan& difane_faults,
                                        std::uint64_t migration_seed) {
  return nox_vs_difane_impl(cex, topo, strategy, cache_idle_timeout,
                            &difane_faults, &migration_seed);
}

Violation check_partition(const Counterexample& cex, const PartitionerParams& params,
                          std::uint32_t authority_count) {
  const RuleTable policy = cex.table();
  const PartitionPlan plan = Partitioner(params).build(policy, authority_count);
  std::ostringstream os;

  // Every policy rule reaches at least one partition.
  std::unordered_map<RuleId, bool> reachable;
  for (const auto& rule : policy.rules()) reachable[rule.origin_or_self()] = false;
  for (const auto& p : plan.partitions()) {
    for (const auto& rule : p.rules.rules()) reachable[rule.origin_or_self()] = true;
  }
  for (const auto& [id, seen] : reachable) {
    if (!seen) {
      os << "policy rule " << id << " unreachable: clipped into no partition";
      return os.str();
    }
  }

  // Capacity holds except where the partitioner provably could not cut: the
  // best-scoring separating bit (the one it would have chosen) leaves more
  // than kPartitionMinProgress of the rules on one side. Mirrors the effective
  // capacity shrink build() applies for multi-authority plans. kRandomBit
  // stops on whatever bit it sampled, so over-capacity leaves prove nothing.
  std::size_t effective = params.capacity;
  if (authority_count > 1 && !policy.empty()) {
    effective = std::max<std::size_t>(
        1, std::min(params.capacity, policy.size() / authority_count));
  }
  const auto& ip_src = field_spec(Field::kIpSrc);
  const auto& ip_dst = field_spec(Field::kIpDst);
  const auto is_ip_bit = [&](std::size_t bit) {
    return (bit >= ip_src.offset && bit < ip_src.offset + ip_src.width) ||
           (bit >= ip_dst.offset && bit < ip_dst.offset + ip_dst.width);
  };
  for (const auto& p : plan.partitions()) {
    const std::size_t n = p.rules.size();
    if (n <= effective || params.strategy == CutStrategy::kRandomBit) continue;
    if (static_cast<std::size_t>(p.region.care_bits()) >= kPartitionMaxDepth) continue;
    int best_bit = -1;
    double best_score = std::numeric_limits<double>::infinity();
    std::size_t best_max_side = n;
    for (std::size_t bit = 0; bit < header_bits_used(); ++bit) {
      if (p.region.care().get(bit)) continue;
      if (params.strategy == CutStrategy::kIpBitsOnly && !is_ip_bit(bit)) continue;
      std::size_t n0 = 0, n1 = 0;
      for (const auto& rule : p.rules.rules()) {
        if (!rule.match.care().get(bit)) {
          ++n0;
          ++n1;
        } else if (rule.match.value().get(bit)) {
          ++n1;
        } else {
          ++n0;
        }
      }
      if (n0 == n || n1 == n) continue;
      const double score = static_cast<double>(std::max(n0, n1)) +
                           params.dup_penalty * static_cast<double>(n0 + n1 - n);
      if (score < best_score) {
        best_score = score;
        best_bit = static_cast<int>(bit);
        best_max_side = std::max(n0, n1);
      }
    }
    if (best_bit >= 0 &&
        static_cast<double>(best_max_side) <=
            kPartitionMinProgress * static_cast<double>(n)) {
      os << "partition " << p.id << " holds " << n << " rules (cap " << effective
         << ") but bit " << best_bit << " still cuts it";
      return os.str();
    }
  }

  // Regions disjoint + complete, and each clipped table is the policy
  // clipped to its region (winner identity, not just action).
  return plan.validate(policy);
}

Violation check_cache_vs_authority(const Counterexample& cex,
                                   const CacheChurnParams& params) {
  const RuleTable policy = cex.table();
  const PartitionPlan plan =
      Partitioner(params.partitioner).build(policy, params.authority_count);

  // One AuthorityNode per authority index; switch ids are arbitrary labels.
  // Bindings borrow the partition indexes, so those are declared first.
  constexpr SwitchId kAuthorityBase = 1000;
  std::vector<std::unique_ptr<PartitionIndex>> indexes;
  std::vector<std::unique_ptr<AuthorityNode>> nodes;
  for (std::uint32_t a = 0; a < params.authority_count; ++a) {
    nodes.push_back(std::make_unique<AuthorityNode>(
        kAuthorityBase + a, params.strategy, params.max_splice_cost));
  }
  RuleId synth_base = 0x40000000u;
  for (const auto& p : plan.partitions()) {
    indexes.push_back(std::make_unique<PartitionIndex>(p));
    nodes[p.primary]->bind(*indexes.back(), synth_base, synth_base + (1u << 22));
    synth_base += 1u << 22;
  }

  // The ingress switch: cache band + partition band, as DIFANE installs it.
  FlowTable ingress(params.cache_capacity);
  RuleId partition_rule_id = 0x20000000u;
  for (const auto& p : plan.partitions()) {
    Rule r;
    r.id = partition_rule_id++;
    r.priority = 0;
    r.match = p.region;
    r.action = Action::encap(kAuthorityBase + p.primary);
    ingress.install(r, Band::kPartition, 0.0);
  }

  Rng churn(params.churn_seed);
  double now = 0.0;
  std::ostringstream os;
  for (std::size_t i = 0; i < cex.packets.size(); ++i) {
    const BitVec& packet = cex.packets[i];
    // Time jumps: mostly small (cache stays warm), sometimes past the idle
    // timeout (everything expires). Plus forced removals: the churn a real
    // switch sees from flow-removed races and manual flow-mods.
    now += churn.bernoulli(0.2) ? params.idle_timeout * 2.5
                                : params.idle_timeout * 0.1;
    if (churn.bernoulli(0.15) && ingress.size(Band::kCache) > 0) {
      const auto& entries = ingress.entries(Band::kCache);
      const RuleId victim = entries[churn.uniform(0, entries.size() - 1)].rule.id;
      ingress.remove(victim, Band::kCache);
    }

    const Rule* want = policy.match(packet);
    const FlowEntry* entry = ingress.lookup(packet, now);
    if (entry == nullptr) {
      os << "packet[" << i << "]: no entry matched (partition band must cover)";
      return os.str();
    }
    if (entry->band == Band::kCache &&
        entry->rule.action.type != ActionType::kEncap) {
      // Terminal cache hit: must be the true policy winner.
      if (!same_winner(want, &entry->rule)) {
        os << "packet[" << i << "]: cache hit " << entry->rule.to_string()
           << " but policy winner is " << describe(want);
        return os.str();
      }
      continue;
    }
    // Redirect (partition rule or cover-set shadow): resolve at the
    // authority switch the encap names, then install its cache response.
    const SwitchId target = entry->rule.action.arg;
    if (target < kAuthorityBase ||
        target >= kAuthorityBase + params.authority_count) {
      os << "packet[" << i << "]: redirect to unknown switch " << target;
      return os.str();
    }
    auto result = nodes[target - kAuthorityBase]->handle(packet);
    if (!result.has_value()) {
      os << "packet[" << i << "]: authority " << target
         << " has no partition covering the packet";
      return os.str();
    }
    if (!same_winner(want, result->winner)) {
      os << "packet[" << i << "]: authority winner " << describe(result->winner)
         << " but policy winner is " << describe(want);
      return os.str();
    }
    // The FlowMods Scenario::install_cache sends, applied at once.
    for (FlowMod& mod : install_flow_mods(result->install, params.cache_capacity,
                                          params.idle_timeout)) {
      ingress.install(mod.rule, Band::kCache, now, mod.idle_timeout, 0.0,
                      std::move(mod.guards));
    }
  }
  return std::nullopt;
}

Violation check_minimize(const Counterexample& cex, std::uint64_t sample_seed,
                         std::size_t samples) {
  const RuleTable table = cex.table();
  const RuleTable once = minimize(table);
  const RuleTable twice = minimize(once);
  std::ostringstream os;
  if (once.size() != twice.size()) {
    os << "minimize not idempotent: " << table.size() << " -> " << once.size()
       << " -> " << twice.size() << " rules";
    return os.str();
  }
  for (std::size_t i = 0; i < once.size(); ++i) {
    const Rule& a = once.at(i);
    const Rule& b = twice.at(i);
    if (a.id != b.id || a.priority != b.priority || !(a.match == b.match) ||
        !(a.action == b.action)) {
      os << "minimize not idempotent at rule " << i << ": " << a.to_string()
         << " vs " << b.to_string();
      return os.str();
    }
  }
  // Semantics preserved: same winning action everywhere (ids may change —
  // merged siblings keep the lower id — so actions are the contract).
  for (const auto& packet : probes_for(cex, table, sample_seed, samples)) {
    const Rule* want = table.match(packet);
    const Rule* got = once.match(packet);
    const bool same = (want == nullptr && got == nullptr) ||
                      (want != nullptr && got != nullptr && want->action == got->action);
    if (!same) {
      os << "minimize changed semantics: original " << describe(want)
         << " vs minimized " << describe(got);
      return os.str();
    }
  }
  return std::nullopt;
}

Violation check_incremental(const Counterexample& cex, const PartitionerParams& params,
                            std::uint32_t authority_count) {
  // First half of the rules seed the tree; the rest arrive as churn, and
  // every third insert is later removed again.
  std::vector<Rule> base(cex.rules.begin(),
                         cex.rules.begin() + static_cast<std::ptrdiff_t>(
                                                 (cex.rules.size() + 1) / 2));
  std::vector<Rule> ops(cex.rules.begin() + static_cast<std::ptrdiff_t>(base.size()),
                        cex.rules.end());
  RuleTable expected{base};
  IncrementalPartitioner inc(expected, params, authority_count);
  for (const auto& rule : ops) {
    inc.insert(rule);
    expected.add(rule);
  }
  for (std::size_t i = 0; i < ops.size(); i += 3) {
    inc.remove(ops[i].id);
    expected.remove(ops[i].id);
  }

  std::ostringstream os;
  if (inc.policy().size() != expected.size()) {
    os << "incremental policy drifted: " << inc.policy().size() << " rules vs "
       << expected.size() << " expected";
    return os.str();
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (inc.policy().at(i).id != expected.at(i).id) {
      os << "incremental policy order drifted at index " << i;
      return os.str();
    }
  }

  if (const auto bad = inc.snapshot().validate(expected)) return "incremental plan: " + *bad;
  if (const auto bad = Partitioner(params).build(expected, authority_count).validate(expected)) {
    return "rebuilt plan: " + *bad;
  }
  return std::nullopt;
}

std::string shrink_report(const std::function<Violation(const Counterexample&)>& oracle,
                          Counterexample cex, std::size_t max_attempts) {
  const Violation original = oracle(cex);
  ShrinkStats stats;
  const Counterexample minimized =
      shrink(std::move(cex),
             [&](const Counterexample& c) { return oracle(c).has_value(); },
             max_attempts, &stats);
  const Violation still = oracle(minimized);
  std::ostringstream os;
  os << "violation: " << original.value_or("<vanished?>") << "\n"
     << "minimized counterexample (" << stats.attempts << " shrink attempts, "
     << stats.accepted << " accepted): " << minimized.to_string()
     << "minimized violation: " << still.value_or("<vanished?>") << "\n";
  return os.str();
}

}  // namespace difane::proptest
