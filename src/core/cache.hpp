// Cache-rule generation — how an authority switch reacts to a redirected
// packet. The paper's key point: wildcard rules cannot be cached naively,
// because an overlapping higher-priority rule that is *not* cached would let
// the cached rule steal its packets. Three semantics-preserving strategies:
//
//  * kMicroflow       — cache one exact-match rule per flow (the
//                       Ethane/NOX-era baseline; always safe, never shares).
//  * kDependentSet    — cache the matched (clipped) rule together with every
//                       rule in its dependency closure inside the partition.
//  * kCoverSet        — cache the matched rule plus, for each immediate
//                       dependency parent, a shadow rule at the parent's
//                       priority that *redirects back to the authority
//                       switch* instead of dragging the whole chain in.
//
// All three guarantee: a cache-band hit either yields the true policy
// winner's action or a redirect — never a wrong terminal action.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "classifier/dtree.hpp"
#include "ctrlchan/messages.hpp"
#include "flowspace/dependency.hpp"
#include "partition/plan.hpp"
#include "switchsim/sw.hpp"

namespace difane {

// kNone declares "no ingress caching at all" — every flow keeps taking the
// authority redirect (pure redirection). It exists so an experiment that
// wants the uncached data point says so explicitly instead of smuggling it
// in through a zero cache capacity (ScenarioParams::validate() rejects a
// zero edge_cache_capacity under any installing strategy).
enum class CacheStrategy : std::uint8_t {
  kMicroflow = 0,
  kDependentSet,
  kCoverSet,
  kNone,
};

const char* cache_strategy_name(CacheStrategy strategy);

// A cache install: rules destined for one ingress switch's cache band.
struct CacheInstall {
  std::vector<Rule> rules;
};

// The FlowMods that install `install` at an ingress, in send order:
// protectors first (rule_before order), each non-redirect member guarded by
// every earlier member (redirects are self-safe), all with `idle_timeout`.
// Empty when the group is empty or larger than `cache_capacity`, which it
// would evict its own members to fit; the redirect stays correct.
std::vector<FlowMod> install_flow_mods(const CacheInstall& install,
                                       std::size_t cache_capacity,
                                       double idle_timeout);

// Elephant-aware install policy. The measurement literature (FDRC, the
// elephant-detection study in PAPERS.md) shows cache benefit concentrates in
// a few heavy flows while one-packet mice only churn TCAM entries; these
// knobs let the authority spend its ingress budget accordingly. Detection
// runs per authority switch on a space-saving summary (obs/heavy_hitter.hpp)
// fed by redirected-packet misses, and classification uses the summary's
// *guaranteed* (lower-bound) count so sketch overestimation can never
// promote a mouse.
struct ElephantParams {
  bool enabled = false;
  // Slots in each authority's space-saving summary (k in the N/k bound).
  std::size_t tracker_capacity = 256;
  // Guaranteed miss-packet count at which a flow becomes an elephant; its
  // cache entries then get `idle_timeout` instead of the base cache timeout.
  std::uint64_t threshold = 8;
  double idle_timeout = 60.0;
  // Probation: idle timeout for installs that have NOT (yet) reached the
  // elephant threshold — the short leash that keeps unproven flows from
  // squatting on TCAM slots between visits. 0 means "inherit the base
  // cache_idle_timeout" (probation off).
  double probation_idle_timeout = 0.0;
  // Proactive install: the moment a flow crosses the elephant threshold,
  // push its cache rules to EVERY edge switch (not just the ingress whose
  // packet triggered the promotion). An elephant's flows arrive at many
  // ingresses; pre-seeding converts each ingress's cold-start miss into a
  // hit, and since those entries would have been installed on first contact
  // anyway, steady-state occupancy is unchanged — only the misses go away.
  bool proactive = true;
  // Mice bypass: skip the cache install entirely until a flow has proven it
  // returns (guaranteed count >= mice_min_packets), so one-packet flows
  // never consume a TCAM slot. Costs exactly one extra redirect per
  // multi-packet flow; correctness is untouched (the redirect path is
  // always available).
  bool mice_bypass = false;
  std::uint64_t mice_min_packets = 2;
};

// What the policy decided for one redirected packet's would-be install.
enum class InstallClass : std::uint8_t {
  kNormal = 0,   // install with the base cache idle timeout
  kElephant,     // install with ElephantParams::idle_timeout
  kBypass,       // skip the install (mouse, not yet proven to return)
};

const char* install_class_name(InstallClass cls);

// Classify from the tracker's guaranteed (lower-bound) packet count for the
// flow, sampled *after* offering the current packet. Disabled params always
// yield kNormal.
InstallClass classify_install(const ElephantParams& params,
                              std::uint64_t guaranteed_packets);

// Synthetic ids a generator reserves for cover-set shadows: one per
// (parent, matched) pair, n^2 for an n-rule partition, and none under the
// other strategies. Sequential microflow ids follow them.
std::uint64_t shadow_id_space(const Partition& partition, CacheStrategy strategy);

// One partition's lookup structures, shared by every binding that serves it
// (primary, backup, replicas, live-migration rebinds): a decision tree over
// its clipped rules, which answers the authority match, and the dependency
// graph built from the tree's overlap queries. Each is built on first use,
// at most once under std::call_once, so the const accessors are safe to call
// from several threads.
class PartitionIndex {
 public:
  // `partition` must outlive the index and keep its rules unchanged.
  explicit PartitionIndex(const Partition& partition) : partition_(partition) {}
  PartitionIndex(Partition&&) = delete;

  const Partition& partition() const { return partition_; }
  const DTreeClassifier& tree() const;
  const DependencyGraph& graph() const;

 private:
  const Partition& partition_;
  mutable std::once_flag tree_once_, graph_once_;
  mutable std::optional<DTreeClassifier> tree_;
  mutable std::optional<DependencyGraph> graph_;
};

// Generates cache rules for one partition binding. Borrows the partition's
// index (its dependency graph) and owns the binding's id allocator for
// synthesized shadow/microflow rules.
class CacheRuleGenerator {
 public:
  // `index` must outlive the generator. `authority_switch` is the switch
  // shadow rules redirect to. Synthesized ids come from [synth_id_base,
  // synth_id_end), which must not overlap policy rule ids or another
  // generator's range, and must hold the shadow_id_space; a microflow id
  // past the end fails a contract check rather than alias another rule.
  // `max_splice_cost` bounds the entries a single wildcard-cache decision
  // may install: rules whose dependent closure / shadow set is larger
  // degrade to a microflow entry (one exact-match rule), keeping a
  // hot-but-deeply-entangled rule from flooding the ingress cache with
  // protectors.
  CacheRuleGenerator(const PartitionIndex& index, SwitchId authority_switch,
                     CacheStrategy strategy, RuleId synth_id_base,
                     RuleId synth_id_end, std::size_t max_splice_cost = 32);

  // Cache rules for a packet that matched `matched_idx` (index into the
  // partition's clipped table, priority order).
  CacheInstall generate(const BitVec& packet, std::size_t matched_idx);

 private:
  CacheInstall microflow_install(const BitVec& packet, const Rule& matched);

  const PartitionIndex& index_;
  const Partition& partition_;
  SwitchId authority_switch_;
  CacheStrategy strategy_;
  RuleId next_synth_id_;     // sequential (microflow) ids
  RuleId shadow_id_base_;    // deterministic shadow-id space (cover-set)
  RuleId synth_id_end_;      // one past the last id this generator may use
  std::size_t max_splice_cost_;
};

}  // namespace difane
