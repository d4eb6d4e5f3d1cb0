#include "core/difane_controller.hpp"

#include <algorithm>

#include "util/contract.hpp"
#include "util/log.hpp"

namespace difane {

namespace {

// Partition redirect rules sit at the lowest priority, with ids from here up.
constexpr Priority kPartitionRulePriority = 0;
constexpr RuleId kPartitionRuleIdBase = 0x20000000u;

}  // namespace

DifaneController::DifaneController(Network& net, const RuleTable& policy,
                                   std::vector<SwitchId> authority_switches,
                                   DifaneControllerParams params)
    : net_(net),
      policy_(policy),
      authority_switches_(std::move(authority_switches)),
      params_(params),
      plan_(Partitioner(params.partitioner)
                .build(policy, static_cast<std::uint32_t>(authority_switches_.size()))) {
  expects(!authority_switches_.empty(), "DifaneController: need authority switches");
  for (const auto sw : authority_switches_) {
    if (sw >= nodes_.size()) nodes_.resize(sw + 1);
    nodes_[sw] = std::make_unique<AuthorityNode>(sw, params_.cache_strategy,
                                                 params_.max_splice_cost);
  }
  params_.replicas = std::max<std::uint32_t>(
      1, std::min<std::uint32_t>(params_.replicas,
                                 static_cast<std::uint32_t>(authority_switches_.size())));
  expects(params_.synth_id_stride > 0, "DifaneController: zero synth_id_stride");
  // Bind each partition to its serving set. Each binding gets a disjoint
  // synthetic-id range.
  synth_id_stride_ = fit_synth_id_stride();
  next_synth_base_ = params_.synth_id_base;
  for (const auto& partition : plan_.partitions()) {
    indexes_.push_back(std::make_unique<PartitionIndex>(partition));
  }
  for (std::size_t index = 0; index < plan_.partitions().size(); ++index) {
    for (const auto authority : serving_set(plan_.partitions()[index])) {
      bind_partition(index, authority);
    }
  }
}

AuthorityIndex DifaneController::index_of(SwitchId sw) const {
  for (AuthorityIndex i = 0; i < authority_switches_.size(); ++i) {
    if (authority_switches_[i] == sw) return i;
  }
  throw contract_violation("index_of: not an authority switch");
}

std::vector<AuthorityIndex> DifaneController::serving_set(
    const Partition& partition) const {
  return serving_set(partition.primary, partition.backup);
}

std::vector<AuthorityIndex> DifaneController::serving_set(
    AuthorityIndex primary, AuthorityIndex backup) const {
  const auto k = static_cast<AuthorityIndex>(authority_switches_.size());
  std::vector<AuthorityIndex> serving;
  for (std::uint32_t r = 0; r < params_.replicas; ++r) {
    serving.push_back((primary + r) % k);
  }
  if (std::find(serving.begin(), serving.end(), backup) == serving.end()) {
    serving.push_back(backup);
  }
  return serving;
}

RuleId DifaneController::fit_synth_id_stride() const {
  // Ids run from synth_id_base up to, not including, kInvalidRuleId.
  const std::uint64_t space = kInvalidRuleId - params_.synth_id_base;
  const std::uint64_t stride = params_.synth_id_stride;
  std::uint64_t bindings = 0;
  std::uint64_t shadows = 0;
  std::uint64_t spans = 0;  // bind_partition's ranges at the configured stride
  for (const auto& partition : plan_.partitions()) {
    const std::uint64_t serving = serving_set(partition).size();
    const std::uint64_t shadow = shadow_id_space(partition, params_.cache_strategy);
    bindings += serving;
    shadows += serving * shadow;
    spans += serving * (shadow / stride + 1) * stride;
  }
  if (spans <= space) return params_.synth_id_stride;
  // A range spans at most its shadows plus one stride.
  const std::uint64_t fitted = shadows < space ? (space - shadows) / (2 * bindings) : 0;
  expects(fitted > 0, "DifaneController: synthetic rule ids exhausted");
  return static_cast<RuleId>(fitted);
}

void DifaneController::bind_partition(std::size_t index, AuthorityIndex authority) {
  const auto& partition = plan_.partitions().at(index);
  AuthorityNode* node = node_at(authority_switch(authority));
  if (node->serves(partition.id)) return;  // idempotent under replays
  // Whole strides past the binding's shadow-id space: a binding whose
  // shadows fit one stride keeps the stride-spaced ids, and every binding
  // keeps some room for its sequential microflow ids.
  const std::uint64_t stride = synth_id_stride_;
  const std::uint64_t span =
      (shadow_id_space(partition, params_.cache_strategy) / stride + 1) * stride;
  expects(span <= kInvalidRuleId - next_synth_base_,
          "bind_partition: synthetic rule ids exhausted");
  const auto end = static_cast<RuleId>(next_synth_base_ + span);
  node->bind(*indexes_.at(index), next_synth_base_, end);
  next_synth_base_ = end;
}

void DifaneController::unbind_partition(std::size_t index, AuthorityIndex authority) {
  const auto& partition = plan_.partitions().at(index);
  node_at(authority_switch(authority))->unbind(partition.id);
}

void DifaneController::commit_re_home(std::size_t index, AuthorityIndex dest) {
  plan_.re_home(index, dest);
}

std::size_t DifaneController::purge_redirects_to(SwitchId target,
                                                 const Ternary& within) {
  std::size_t purged = 0;
  for (SwitchId id = 0; id < net_.switch_count(); ++id) {
    Switch& sw = net_.sw(id);
    if (sw.failed()) continue;
    std::vector<RuleId> stale;
    for (const auto& entry : sw.table().entries(Band::kCache)) {
      if (entry.rule.action.type == ActionType::kEncap &&
          entry.rule.action.arg == target &&
          intersects(entry.rule.match, within)) {
        stale.push_back(entry.rule.id);
      }
    }
    for (const auto rule_id : stale) {
      if (sw.table().remove(rule_id, Band::kCache)) ++purged;
    }
  }
  return purged;
}

Rule DifaneController::partition_redirect_rule(std::size_t index,
                                               SwitchId for_switch) const {
  const auto& partition = plan_.partitions().at(index);
  Rule rule;
  rule.id = kPartitionRuleIdBase + static_cast<RuleId>(index);
  rule.priority = kPartitionRulePriority;
  rule.match = partition.region;
  rule.action = Action::encap(replica_for(partition, for_switch));
  return rule;
}

SwitchId DifaneController::replica_for(const Partition& partition, SwitchId sw) const {
  const auto k = static_cast<AuthorityIndex>(authority_switches_.size());
  // Try the replica set in hash order, skipping failed switches.
  for (std::uint32_t probe = 0; probe < params_.replicas; ++probe) {
    const auto index = (partition.primary + (sw + partition.id + probe) %
                                                params_.replicas) %
                       k;
    const SwitchId candidate = authority_switch(index);
    if (!net_.sw(candidate).failed()) return candidate;
  }
  return authority_switch(partition.backup);
}

AuthorityNode* DifaneController::node_at(SwitchId sw) {
  return sw < nodes_.size() ? nodes_[sw].get() : nullptr;
}

const AuthorityNode* DifaneController::node_at(SwitchId sw) const {
  return sw < nodes_.size() ? nodes_[sw].get() : nullptr;
}

void DifaneController::install_partition_rules() {
  const auto rules =
      plan_.make_partition_rules(kPartitionRulePriority, kPartitionRuleIdBase);
  for (SwitchId id = 0; id < net_.switch_count(); ++id) {
    Switch& sw = net_.sw(id);
    if (sw.failed()) continue;
    for (std::size_t p = 0; p < rules.size(); ++p) {
      // Per-switch replica selection: different ingresses spread their
      // redirects for the same partition across the live replicas.
      Rule rule = rules[p];
      rule.action = Action::encap(replica_for(plan_.partitions()[p], id));
      // Failover and restart repoint: the same ids refresh in place.
      sw.table().install(rule, Band::kPartition, net_.engine().now());
    }
  }
}

void DifaneController::install_all() { install_partition_rules(); }

void DifaneController::handle_authority_restart(SwitchId restarted) {
  expects(!net_.sw(restarted).failed(),
          "handle_authority_restart: switch still marked failed");
  // Refresh partition rules everywhere: replica_for sees the switch live
  // again, and the restarted switch itself gets its partition band back.
  // Its bindings, the authority band, survived the crash.
  install_partition_rules();
  log_info("restart: switch ", restarted, " rejoined");
}

std::size_t DifaneController::handle_authority_failure(SwitchId failed) {
  const AuthorityIndex failed_index = index_of(failed);

  std::size_t repointed = 0;
  for (const auto& partition : plan_.partitions()) {
    if (partition.primary == failed_index) ++repointed;
  }
  plan_.fail_over(failed_index);
  // Partition rules carry the same ids, so reinstalling refreshes the encap
  // target in place at every live switch.
  install_partition_rules();
  // Cached shadow rules (cache-band encap entries) still name the failed
  // switch — the partition-rule refresh cannot reach them, and until they
  // expire every packet they cover black-holes at the dead authority. Purge
  // them; cascade removal takes their dependents along, so those packets
  // fall back to the (re-pointed) partition band and redirect safely.
  const std::size_t purged = purge_redirects_to(failed);
  log_info("failover: re-pointed ", repointed, " partitions away from switch ",
           failed, ", purged ", purged, " stale cached redirects");
  return repointed;
}

}  // namespace difane
