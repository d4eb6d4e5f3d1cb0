#include "controller/nox.hpp"

#include "flowspace/header.hpp"

namespace difane {

std::optional<NoxControlPlane::Decision> NoxControlPlane::handle_punt(
    SimTime arrival, const BitVec& packet) {
  ++punts_;
  const auto completion = queue_.admit(arrival);
  if (!completion.has_value()) return std::nullopt;

  Decision decision;
  decision.ready_time = *completion;
  decision.winner = policy_.match(packet);
  if (decision.winner != nullptr) {
    Rule rule;
    rule.id = next_microflow_id_++;
    rule.priority = std::numeric_limits<Priority>::max();
    rule.match = exact_pattern(packet);
    rule.action = decision.winner->action;
    rule.origin = decision.winner->id;
    decision.cache_rule = std::move(rule);
  }
  return decision;
}

}  // namespace difane
