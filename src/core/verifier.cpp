#include "core/verifier.hpp"

#include <sstream>

#include "util/rng.hpp"

namespace difane {

const char* verify_outcome_name(VerifyOutcome outcome) {
  switch (outcome) {
    case VerifyOutcome::kOk: return "ok";
    case VerifyOutcome::kBlackHole: return "black_hole";
    case VerifyOutcome::kDanglingRedirect: return "dangling_redirect";
    case VerifyOutcome::kWrongAction: return "wrong_action";
    case VerifyOutcome::kUnreachable: return "unreachable";
  }
  return "?";
}

std::string VerifyReport::summary() const {
  std::ostringstream os;
  os << samples << " samples, " << ok << " ok, " << violations.size()
     << " violations";
  for (const auto& v : violations) {
    os << "\n  [" << verify_outcome_name(v.outcome) << "] ingress " << v.ingress
       << ": " << v.detail;
  }
  return os.str();
}

namespace {

struct Walker {
  Network& net;
  const DifaneController& controller;
  const RuleTable& policy;
  const VerifierParams& params;

  // Statically walk one packet from `ingress`; return the violation outcome
  // (kOk when the terminal action equals the policy winner's). The ingress's
  // first live match decides the packet, or redirects it to an authority
  // that resolves it in one step, so the walk never takes a second hop.
  VerifyOutcome walk(SwitchId ingress, const BitVec& packet, std::string* detail) {
    const Rule* want = policy.match(packet);
    const auto policy_says = [want] {
      return ", policy says " +
             (want ? want->action.to_string() : std::string("<none>"));
    };
    const FlowEntry* entry = net.sw(ingress).table().peek(packet, params.now);
    const Rule* rule = entry == nullptr ? nullptr : &entry->rule;
    // An authority ingress's bindings, its authority band, match after its
    // cache band and before its partition band, as in the data plane.
    if (entry == nullptr || entry->band != Band::kCache) {
      if (const AuthorityNode* local = controller.node_at(ingress)) {
        const auto result = local->resolve(packet);
        if (result.has_value() && result->winner != nullptr) rule = result->winner;
      }
    }
    if (rule == nullptr) {
      *detail = "no rule matched at switch " + std::to_string(ingress);
      return VerifyOutcome::kBlackHole;
    }
    const Action& action = rule->action;
    switch (action.type) {
      case ActionType::kEncap: {
        const SwitchId target = action.arg;
        if (net.sw(target).failed()) {
          *detail = "redirect to failed switch " + std::to_string(target);
          return VerifyOutcome::kDanglingRedirect;
        }
        if (net.next_hop(ingress, target) == kInvalidSwitch && ingress != target) {
          *detail = "no route from " + std::to_string(ingress) + " to authority " +
                    std::to_string(target);
          return VerifyOutcome::kUnreachable;
        }
        // At the authority, resolution happens against its bound
        // partitions, not its TCAM. resolve() is the data plane's lookup
        // without the cache-install side effects handle() has.
        const AuthorityNode* node = controller.node_at(target);
        if (node == nullptr) {
          *detail = "redirect to non-authority switch " + std::to_string(target);
          return VerifyOutcome::kDanglingRedirect;
        }
        const auto result = node->resolve(packet);
        if (!result.has_value()) {
          *detail = "authority " + std::to_string(target) +
                    " owns no partition for the packet";
          return VerifyOutcome::kDanglingRedirect;
        }
        if (result->winner == nullptr) {
          *detail = "partition has no matching rule";
          return VerifyOutcome::kBlackHole;
        }
        if (want == nullptr || !(result->winner->action == want->action)) {
          *detail = "authority resolves to " + result->winner->action.to_string() +
                    policy_says();
          return VerifyOutcome::kWrongAction;
        }
        return VerifyOutcome::kOk;
      }
      case ActionType::kForward:
      case ActionType::kDrop:
        if (want == nullptr || !(action == want->action)) {
          *detail = "terminal " + action.to_string() + " at switch " +
                    std::to_string(ingress) + policy_says();
          return VerifyOutcome::kWrongAction;
        }
        return VerifyOutcome::kOk;
      case ActionType::kToController:
        // Reactive miss path: by construction the controller resolves with
        // the policy itself; treat as consistent.
        return VerifyOutcome::kOk;
    }
    return VerifyOutcome::kOk;
  }
};

}  // namespace

VerifyReport verify_installed_state(Network& net, const DifaneController& controller,
                                    const RuleTable& policy,
                                    const std::vector<SwitchId>& ingresses,
                                    VerifierParams params) {
  VerifyReport report;
  Rng rng(params.seed);
  Walker walker{net, controller, policy, params};
  for (const auto ingress : ingresses) {
    for (std::size_t s = 0; s < params.samples_per_ingress; ++s) {
      BitVec packet;
      if (s % 2 == 0 || policy.empty()) {
        packet = Ternary::wildcard().sample_point(rng);
      } else {
        packet = policy.at(rng.uniform(0, policy.size() - 1)).match.sample_point(rng);
      }
      ++report.samples;
      std::string detail;
      const VerifyOutcome outcome = walker.walk(ingress, packet, &detail);
      if (outcome == VerifyOutcome::kOk) {
        ++report.ok;
      } else if (report.violations.size() < params.max_violations) {
        report.violations.push_back(VerifyViolation{outcome, ingress, packet, detail});
      }
    }
  }
  return report;
}

}  // namespace difane
