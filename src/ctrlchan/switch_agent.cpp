#include "ctrlchan/switch_agent.hpp"

#include <algorithm>
#include <map>

namespace difane {

namespace {

constexpr SwitchAgentParams kCosts{};

}  // namespace

double SwitchAgent::admit(double cost) {
  const double now = engine_.now();
  const double start = std::max(next_free_, now);
  next_free_ = start + cost;
  return next_free_;
}

void SwitchAgent::deliver(const Request& request, ReplyHandler on_reply) {
  const double cost = std::visit(
      [&](const auto& msg) -> double {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, PartitionInstall>) {
          // A bulk authority install pays per rule, like the equivalent
          // stream of FlowMods would.
          return kCosts.flow_mod_cost *
                 static_cast<double>(std::max<std::size_t>(1, msg.rules));
        }
        if constexpr (std::is_same_v<T, FlowExport>) return 0.0;
        return kCosts.flow_mod_cost;
      },
      request);
  const double done = admit(cost);
  backlog_.push_back(Admitted{request, std::move(on_reply), done, engine_.reserve(1)});
  if (backlog_.size() == 1) schedule_head();
}

void SwitchAgent::schedule_head() {
  const Admitted& head = backlog_.front();
  engine_.at(head.done, head.seq, [this]() { apply_head(); });
}

void SwitchAgent::apply_head() {
  Admitted head = std::move(backlog_.front());
  backlog_.pop_front();
  // The next request sorts after this one (no earlier apply time, larger
  // number), so scheduling it now keeps the delivery-time order.
  if (!backlog_.empty()) schedule_head();
  apply(head.request, head.on_reply);
}

void SwitchAgent::apply(const Request& request, const ReplyHandler& on_reply) {
  ++applied_;
  const double now = engine_.now();
  std::visit(
      [&](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, FlowMod>) {
          bool ok = false;
          if (install_fault_ && install_fault_()) {
            ++install_faults_;
          } else {
            ok = switch_.table().install(msg.rule, Band::kCache, now,
                                         msg.idle_timeout, 0.0, msg.guards);
          }
          if (on_reply) on_reply(FlowModReply{ok});
        } else if constexpr (std::is_same_v<T, PartitionFlip>) {
          bool ok = !switch_.failed();
          if (ok) {
            // Same rule id as the existing partition redirect: the install
            // refreshes the entry in place, atomically swinging the encap
            // target. Re-applying a duplicate flip is a no-op.
            switch_.table().install(msg.rule, Band::kPartition, now);
          }
          if (on_reply) on_reply(FlowModReply{ok});
        } else if constexpr (std::is_same_v<T, PartitionInstall> ||
                             std::is_same_v<T, PartitionRetire>) {
          // The binding moved with the send (core/authority.hpp); the apply
          // is the time it takes. A failed switch acks ok=false, so the
          // migration state machine aborts instead of believing a crashed
          // destination is stocked.
          if (on_reply) on_reply(FlowModReply{!switch_.failed()});
        } else if constexpr (std::is_same_v<T, FlowExport>) {
          // A switch agent is not a collector; export batches terminate at a
          // CollectorEndpoint. Still ack so a misdirected batch cannot wedge
          // a reliable channel behind an unackable message.
          if (on_reply) on_reply(FlowExportAck{msg.batch.seq});
        }
      },
      request);
}

std::vector<FlowStatsEntry> collect_stats(const Switch& sw) {
  std::map<RuleId, FlowStatsEntry> by_origin;
  for (const auto& entry : sw.table().entries(Band::kCache)) {
    // Redirect plumbing (partition band, shadow/encap rules) is excluded:
    // those hits are counted again at the authority switch's policy rule.
    if (entry.rule.action.type == ActionType::kEncap) continue;
    const RuleId origin = entry.rule.origin_or_self();
    auto& row = by_origin[origin];
    row.origin = origin;
    row.packets += entry.packets;
    row.bytes += entry.bytes;
    row.installed_copies += 1;
  }
  // Counters that left the table with evicted/expired/deleted entries.
  for (const auto& [origin, counters] : sw.table().retired()) {
    auto& row = by_origin[origin];
    row.origin = origin;
    row.packets += counters.packets;
    row.bytes += counters.bytes;
  }
  std::vector<FlowStatsEntry> out;
  out.reserve(by_origin.size());
  for (auto& [origin, row] : by_origin) out.push_back(row);
  return out;
}

std::vector<FlowStatsEntry> merge_stats(
    const std::vector<std::vector<FlowStatsEntry>>& per_switch) {
  std::map<RuleId, FlowStatsEntry> by_origin;
  for (const auto& rows : per_switch) {
    for (const auto& row : rows) {
      auto& acc = by_origin[row.origin];
      acc.origin = row.origin;
      acc.packets += row.packets;
      acc.bytes += row.bytes;
      acc.installed_copies += row.installed_copies;
    }
  }
  std::vector<FlowStatsEntry> out;
  out.reserve(by_origin.size());
  for (auto& [origin, row] : by_origin) out.push_back(row);
  return out;
}

}  // namespace difane
