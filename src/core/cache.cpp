#include "core/cache.hpp"

#include <algorithm>

#include "flowspace/header.hpp"
#include "util/contract.hpp"

namespace difane {

const char* cache_strategy_name(CacheStrategy strategy) {
  switch (strategy) {
    case CacheStrategy::kMicroflow: return "microflow";
    case CacheStrategy::kDependentSet: return "dependent-set";
    case CacheStrategy::kCoverSet: return "cover-set";
    case CacheStrategy::kNone: return "none";
  }
  return "?";
}

const char* install_class_name(InstallClass cls) {
  switch (cls) {
    case InstallClass::kNormal: return "normal";
    case InstallClass::kElephant: return "elephant";
    case InstallClass::kBypass: return "bypass";
  }
  return "?";
}

InstallClass classify_install(const ElephantParams& params,
                              std::uint64_t guaranteed_packets) {
  if (!params.enabled) return InstallClass::kNormal;
  if (guaranteed_packets >= params.threshold) return InstallClass::kElephant;
  if (params.mice_bypass && guaranteed_packets < params.mice_min_packets) {
    return InstallClass::kBypass;
  }
  return InstallClass::kNormal;
}

std::vector<FlowMod> install_flow_mods(const CacheInstall& install,
                                       std::size_t cache_capacity,
                                       double idle_timeout) {
  std::vector<FlowMod> mods;
  if (install.rules.empty() || install.rules.size() > cache_capacity) return mods;
  auto ordered = install.rules;
  std::sort(ordered.begin(), ordered.end(), rule_before);
  mods.reserve(ordered.size());
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    FlowMod& mod = mods.emplace_back();
    mod.rule = std::move(ordered[i]);
    mod.idle_timeout = idle_timeout;
    if (mod.rule.action.type != ActionType::kEncap) {
      for (std::size_t g = 0; g < i; ++g) mod.guards.push_back(mods[g].rule.id);
    }
  }
  return mods;
}

std::uint64_t shadow_id_space(const Partition& partition, CacheStrategy strategy) {
  const std::uint64_t n = partition.rules.size();
  return strategy == CacheStrategy::kCoverSet ? n * n : 0;
}

const DTreeClassifier& PartitionIndex::tree() const {
  std::call_once(tree_once_, [this] {
    tree_.emplace(partition_.rules, DTreeParams{.leaf_size = kIndexLeafSize});
  });
  return *tree_;
}

const DependencyGraph& PartitionIndex::graph() const {
  std::call_once(graph_once_,
                 [this] { graph_ = build_dependency_graph(partition_.rules, tree()); });
  return *graph_;
}

CacheRuleGenerator::CacheRuleGenerator(const PartitionIndex& index,
                                       SwitchId authority_switch,
                                       CacheStrategy strategy, RuleId synth_id_base,
                                       RuleId synth_id_end,
                                       std::size_t max_splice_cost)
    : index_(index),
      partition_(index.partition()),
      authority_switch_(authority_switch),
      strategy_(strategy),
      shadow_id_base_(synth_id_base),
      synth_id_end_(synth_id_end),
      max_splice_cost_(max_splice_cost) {
  // Cover-set shadows use deterministic ids synth_id_base + (parent,
  // matched) pair index, a space of size^2; sequential ids (microflow
  // entries, incl. the splice-cost fallback) start above it or a microflow
  // install would silently *replace* a live shadow entry.
  const std::uint64_t shadows = shadow_id_space(partition_, strategy);
  expects(synth_id_base <= synth_id_end && shadows <= synth_id_end - synth_id_base,
          "CacheRuleGenerator: synthetic id range cannot hold the shadow ids");
  next_synth_id_ = synth_id_base + static_cast<RuleId>(shadows);
}

CacheInstall CacheRuleGenerator::generate(const BitVec& packet,
                                          std::size_t matched_idx) {
  expects(matched_idx < partition_.rules.size(), "generate: bad rule index");
  const Rule& matched = partition_.rules.at(matched_idx);
  expects(matched.match.matches(packet), "generate: packet does not match rule");

  CacheInstall install;
  switch (strategy_) {
    case CacheStrategy::kNone:
      return install;  // pure redirection: never install anything
    case CacheStrategy::kMicroflow: {
      install = microflow_install(packet, matched);
      break;
    }
    case CacheStrategy::kDependentSet: {
      // The matched rule plus its whole dependency closure inside the
      // partition, priorities preserved. Ids are the partition's own clipped
      // rule ids, so re-caching refreshes instead of duplicating. Deeply
      // entangled rules degrade to a microflow entry (see max_splice_cost).
      const auto closure =
          ancestor_closure(index_.graph(), static_cast<std::uint32_t>(matched_idx));
      if (closure.size() + 1 > max_splice_cost_) {
        install = microflow_install(packet, matched);
        break;
      }
      install.rules.push_back(matched);
      for (const auto anc : closure) {
        install.rules.push_back(partition_.rules.at(anc));
      }
      break;
    }
    case CacheStrategy::kCoverSet: {
      if (index_.graph().parents[matched_idx].size() + 1 > max_splice_cost_) {
        install = microflow_install(packet, matched);
        break;
      }
      // The matched rule, plus a shadow for each *immediate* parent: the
      // overlap region, at the parent's priority, redirecting back to the
      // authority switch. Any packet a parent would have won is bounced to
      // the authority instead of being mis-handled by the cached rule.
      install.rules.push_back(matched);
      for (const auto parent_idx : index_.graph().parents[matched_idx]) {
        const Rule& parent = partition_.rules.at(parent_idx);
        const auto overlap = intersect(parent.match, matched.match);
        if (!overlap) continue;  // conservative graphs may list spurious parents
        Rule shadow;
        // Deterministic shadow id per (parent, matched) pair so repeated
        // caching refreshes rather than piles up; the pair index is unique
        // within the partition (< size^2).
        shadow.id = shadow_id_base_ + static_cast<RuleId>(
                                          parent_idx * partition_.rules.size() +
                                          matched_idx);
        // Strictly above the parent: when parent and matched rule share a
        // priority, the id tie-break would otherwise let the cached rule
        // steal the parent's packets (shadow ids are large, so they lose
        // ties). Over-shadowing is safe — the contested packet merely takes
        // the redirect and is resolved correctly at the authority switch.
        expects(parent.priority < std::numeric_limits<Priority>::max(),
                "cover-set: parent priority has no headroom");
        shadow.priority = parent.priority + 1;
        shadow.match = *overlap;
        shadow.action = Action::encap(authority_switch_);
        shadow.origin = parent.origin_or_self();
        install.rules.push_back(std::move(shadow));
      }
      break;
    }
  }
  return install;
}

CacheInstall CacheRuleGenerator::microflow_install(const BitVec& packet,
                                                   const Rule& matched) {
  CacheInstall install;
  expects(next_synth_id_ < synth_id_end_,
          "microflow install: binding's synthetic id range exhausted");
  Rule r;
  r.id = next_synth_id_++;
  r.priority = std::numeric_limits<Priority>::max();
  r.match = exact_pattern(packet);
  r.action = matched.action;
  r.origin = matched.origin_or_self();
  install.rules.push_back(std::move(r));
  return install;
}

}  // namespace difane
