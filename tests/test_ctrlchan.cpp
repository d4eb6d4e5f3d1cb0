#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/system.hpp"
#include "ctrlchan/channel.hpp"
#include "faults/heartbeat.hpp"
#include "faults/injector.hpp"
#include "flowspace/header.hpp"
#include "workload/rulegen.hpp"
#include "workload/trafficgen.hpp"

namespace difane {
namespace {

Rule rule_of(RuleId id, Priority priority, Action action = Action::drop(),
             RuleId origin = kInvalidRuleId) {
  Rule r;
  r.id = id;
  r.priority = priority;
  r.action = action;
  r.origin = origin;
  return r;
}

struct Fixture {
  Engine engine;
  Switch sw{0, /*cache=*/100};
  SwitchAgent agent{engine, sw};
};

TEST(SwitchAgent, FlowModAddAppliesAndReplies) {
  Fixture f;
  std::optional<FlowModReply> reply;
  FlowMod mod;
  mod.rule = rule_of(1, 10);
  f.agent.deliver(mod, [&](const Reply& r) { reply = std::get<FlowModReply>(r); });
  f.engine.run();
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->ok);
  EXPECT_EQ(f.sw.table().size(Band::kCache), 1u);
  EXPECT_EQ(f.agent.applied(), 1u);
}

TEST(SwitchAgent, MessagesApplyInOrderAndBarrierWaits) {
  Fixture f;
  std::vector<int> order;
  for (int k = 1; k <= 3; ++k) {
    FlowMod mod;
    mod.rule = rule_of(static_cast<RuleId>(k), 10 * k);
    f.agent.deliver(mod, [&f, &order, k](const Reply&) {
      order.push_back(k);
      // Each reply is a barrier: every earlier flow-mod is already applied.
      EXPECT_EQ(f.sw.table().size(Band::kCache), static_cast<std::size_t>(k));
    });
  }
  f.engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SwitchAgent, FlowModsTakeTimeToApply) {
  Fixture f;
  FlowMod a;
  a.rule = rule_of(1, 10);
  double applied_at = -1.0;
  f.agent.deliver(a, [&](const Reply&) { applied_at = f.engine.now(); });
  f.engine.run();
  EXPECT_GT(applied_at, 0.0);  // flow_mod_cost elapsed
}

TEST(SwitchAgent, BacklogHoldsOneEngineEvent) {
  // Admitted requests wait in the agent's FIFO; only the head has an engine
  // event, and each apply runs where it would have on its own event.
  Engine engine;
  Switch sw(0, /*cache=*/2000);
  SwitchAgent agent(engine, sw);
  const double cost = SwitchAgentParams{}.flow_mod_cost;
  constexpr std::uint32_t kMods = 1000;
  std::vector<std::pair<std::uint32_t, double>> replies;
  for (std::uint32_t k = 1; k <= kMods; ++k) {
    FlowMod mod;
    mod.rule = rule_of(k, 10);
    agent.deliver(mod, [&, k](const Reply&) { replies.emplace_back(k, engine.now()); });
  }
  EXPECT_EQ(engine.pending(), 1u);
  engine.run();
  ASSERT_EQ(replies.size(), kMods);
  for (std::uint32_t k = 1; k <= kMods; ++k) {
    EXPECT_EQ(replies[k - 1].first, k);
    EXPECT_NEAR(replies[k - 1].second, k * cost, 1e-9) << "reply " << k;
  }
  EXPECT_EQ(agent.applied(), kMods);
  EXPECT_EQ(sw.table().size(Band::kCache), kMods);

  // FlowMods delivered from inside a reply: A while two FlowMods still
  // wait, B from A's reply, with the FIFO empty. Each replies after every
  // request delivered before it.
  std::vector<std::string> order;
  FlowMod a;
  a.rule = rule_of(kMods + 4, 10);
  FlowMod b;
  b.rule = rule_of(kMods + 5, 10);
  const auto reply_b = [&](const Reply&) { order.push_back("B"); };
  const auto reply_a = [&](const Reply&) {
    order.push_back("A");
    agent.deliver(b, reply_b);
  };
  for (std::uint32_t k = 1; k <= 3; ++k) {
    FlowMod mod;
    mod.rule = rule_of(kMods + k, 10);
    agent.deliver(mod, [&, k](const Reply&) {
      order.push_back("F" + std::to_string(k));
      if (k == 1) agent.deliver(a, reply_a);
    });
  }
  EXPECT_EQ(engine.pending(), 1u);
  const double start = engine.now();
  engine.run();
  EXPECT_EQ(order, (std::vector<std::string>{"F1", "F2", "F3", "A", "B"}));
  EXPECT_NEAR(engine.now(), start + 5 * cost, 1e-9);
  EXPECT_EQ(agent.applied(), kMods + 5);
  EXPECT_EQ(sw.table().size(Band::kCache), kMods + 5);
  EXPECT_TRUE(engine.empty());
}

TEST(SwitchAgent, StatsAggregatePerOrigin) {
  Fixture f;
  // Two cached clippings of policy rule 100 plus one unrelated rule.
  Ternary tcp;
  match_exact(tcp, Field::kIpProto, 6);
  Rule copy1 = rule_of(1000, 10, Action::forward(1), /*origin=*/100);
  copy1.match = tcp;
  Rule copy2 = rule_of(1001, 10, Action::forward(1), /*origin=*/100);
  Ternary udp;
  match_exact(udp, Field::kIpProto, 17);
  copy2.match = udp;
  Rule other = rule_of(2000, 5, Action::drop(), /*origin=*/200);
  Ternary icmp;
  match_exact(icmp, Field::kIpProto, 1);
  other.match = icmp;

  f.sw.table().install(copy1, Band::kCache, 0.0);
  f.sw.table().install(copy2, Band::kCache, 0.0);
  f.sw.table().install(other, Band::kCache, 0.0);

  f.sw.table().lookup(PacketBuilder().ip_proto(6).build(), 1.0, 50);
  f.sw.table().lookup(PacketBuilder().ip_proto(17).build(), 1.0, 70);
  f.sw.table().lookup(PacketBuilder().ip_proto(1).build(), 1.0, 10);  // other

  const auto rows = collect_stats(f.sw);
  ASSERT_EQ(rows.size(), 2u);
  const auto& origin100 = rows[0].origin == 100 ? rows[0] : rows[1];
  EXPECT_EQ(origin100.origin, 100u);
  EXPECT_EQ(origin100.packets, 2u);
  EXPECT_EQ(origin100.bytes, 120u);
  EXPECT_EQ(origin100.installed_copies, 2u);
}

TEST(SwitchAgent, StatsFilterByOrigin) {
  // One row per origin, in origin order, so a caller picks one policy
  // rule's counters by its id; another origin's hits never leak into it.
  Fixture f;
  Rule tcp_rule = rule_of(1, 10, Action::drop(), 100);
  match_exact(tcp_rule.match, Field::kIpProto, 6);
  f.sw.table().install(tcp_rule, Band::kCache, 0.0);
  f.sw.table().install(rule_of(2, 5, Action::drop(), 200), Band::kCache, 0.0);
  f.sw.table().lookup(PacketBuilder().ip_proto(17).build(), 1.0, 40);  // rule 2
  const auto rows = collect_stats(f.sw);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].origin, 100u);
  EXPECT_EQ(rows[0].packets, 0u);
  EXPECT_EQ(rows[1].origin, 200u);
  EXPECT_EQ(rows[1].packets, 1u);
  EXPECT_EQ(rows[1].bytes, 40u);
}

TEST(SwitchAgent, StatsExcludeRedirectPlumbing) {
  Fixture f;
  // A shadow (encap) rule and a partition rule must not appear.
  f.sw.table().install(rule_of(1, 10, Action::encap(7), 100), Band::kCache, 0.0);
  f.sw.table().install(rule_of(2, 0, Action::encap(7)), Band::kPartition, 0.0);
  f.sw.table().lookup(BitVec{}, 1.0, 10);
  const auto rows = collect_stats(f.sw);
  EXPECT_TRUE(rows.empty());
}

TEST(SwitchAgent, RetiredCountersSurviveEviction) {
  Engine engine;
  Switch sw(0, /*cache=*/1);  // single-entry cache: every install evicts
  Ternary tcp;
  match_exact(tcp, Field::kIpProto, 6);
  Rule hot = rule_of(1, 10, Action::forward(0), 100);
  hot.match = tcp;
  sw.table().install(hot, Band::kCache, 0.0);
  sw.table().lookup(PacketBuilder().ip_proto(6).build(), 0.5, 30);
  // Evict by installing a different rule.
  sw.table().install(rule_of(2, 5, Action::drop(), 200), Band::kCache, 1.0);
  const auto rows = collect_stats(sw);
  bool found = false;
  for (const auto& row : rows) {
    if (row.origin == 100) {
      found = true;
      EXPECT_EQ(row.packets, 1u);
      EXPECT_EQ(row.bytes, 30u);
      EXPECT_EQ(row.installed_copies, 0u);  // retired, no live copy
    }
  }
  EXPECT_TRUE(found);
}

TEST(MergeStats, FoldsAcrossSwitches) {
  std::vector<std::vector<FlowStatsEntry>> per_switch(2);
  per_switch[0].push_back({100, 5, 500, 1});
  per_switch[0].push_back({200, 1, 100, 1});
  per_switch[1].push_back({100, 7, 700, 2});
  const auto merged = merge_stats(per_switch);
  ASSERT_EQ(merged.size(), 2u);
  const auto& origin100 = merged[0].origin == 100 ? merged[0] : merged[1];
  EXPECT_EQ(origin100.packets, 12u);
  EXPECT_EQ(origin100.bytes, 1200u);
  EXPECT_EQ(origin100.installed_copies, 3u);
}

TEST(ControlChannel, RoundTripPaysLatencyBothWays) {
  Fixture f;
  constexpr double kOneWay = 0.005;
  ControlChannel channel(f.engine, f.agent, kOneWay);
  double replied_at = -1.0;
  FlowMod mod;
  mod.rule = rule_of(1, 10);
  channel.send(mod, [&](const Reply&) { replied_at = f.engine.now(); });
  f.engine.run();
  // Two one-way trips plus the apply cost, over three events: delivery,
  // apply, reply.
  EXPECT_DOUBLE_EQ(replied_at, 2 * kOneWay + SwitchAgentParams{}.flow_mod_cost);
  EXPECT_EQ(f.engine.executed(), 3u);
  EXPECT_EQ(channel.sent(), 1u);
  EXPECT_EQ(channel.transmissions(), 1u);
  EXPECT_EQ(f.sw.table().size(Band::kCache), 1u);
}

TEST(ControlChannel, PreservesSendOrder) {
  Fixture f;
  ControlChannel channel(f.engine, f.agent, 0.001);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    FlowMod mod;
    mod.rule = rule_of(static_cast<RuleId>(i + 1), 10);
    channel.send(mod, [&order, i](const Reply&) { order.push_back(i); });
  }
  f.engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(f.sw.table().size(Band::kCache), 5u);
}

// --- Reliable-delivery state machine -------------------------------------
//
// ScriptedFaults drives the channel's ChannelFaults hook from a fixed script:
// one entry per transmission in draw order (initial sends, retransmissions,
// and acks all draw, in engine-event order). An empty entry loses that copy,
// extra latencies jitter it, and entries past the end deliver cleanly.

struct ScriptedFaults : ChannelFaults {
  std::vector<std::vector<double>> script;
  std::size_t cursor = 0;
  explicit ScriptedFaults(std::vector<std::vector<double>> s)
      : script(std::move(s)) {}
  void transmit(std::vector<double>& deliveries) override {
    if (cursor >= script.size()) return;  // clean from here on
    deliveries = script[cursor++];
  }
};

const std::vector<double> kLose{};
const std::vector<double> kClean{0.0};

ControlChannel::Reliability reliable(double rto_initial = 4e-3,
                                     double rto_max = 0.1) {
  ControlChannel::Reliability r;
  r.enabled = true;
  r.rto_initial = rto_initial;
  r.rto_backoff = 2.0;
  r.rto_max = rto_max;
  return r;
}

TEST(ControlChannel, ReliableCleanWireNoRetransmits) {
  Fixture f;
  ControlChannel channel(f.engine, f.agent, 0.001, reliable());
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    FlowMod mod;
    mod.rule = rule_of(static_cast<RuleId>(i + 1), 10);
    channel.send(mod, [&order, i](const Reply&) { order.push_back(i); });
  }
  f.engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(channel.sent(), 3u);
  EXPECT_EQ(channel.transmissions(), 3u);
  EXPECT_EQ(channel.retransmits(), 0u);
  EXPECT_EQ(channel.acks(), 3u);
  EXPECT_EQ(channel.dup_requests(), 0u);
  EXPECT_EQ(f.sw.table().size(Band::kCache), 3u);
}

TEST(ControlChannel, RequestLossIsRetransmitted) {
  Fixture f;
  ScriptedFaults faults({kLose});  // first copy vanishes; everything after is clean
  ControlChannel channel(f.engine, f.agent, 0.001, reliable(), &faults);
  int replies = 0;
  FlowMod mod;
  mod.rule = rule_of(1, 10);
  channel.send(mod, [&](const Reply&) { ++replies; });
  f.engine.run();
  EXPECT_EQ(replies, 1);
  EXPECT_EQ(channel.retransmits(), 1u);
  EXPECT_EQ(channel.transmissions(), 2u);
  EXPECT_EQ(channel.acks(), 1u);
  EXPECT_EQ(channel.dup_requests(), 0u);
  EXPECT_EQ(f.agent.applied(), 1u);
  EXPECT_EQ(f.sw.table().size(Band::kCache), 1u);
}

TEST(ControlChannel, AckLossReacksFromReplyCacheWithoutReapplying) {
  Fixture f;
  // Request goes through, its ack is lost; the retransmitted request is a
  // duplicate the receiver must suppress and re-ack from the reply cache.
  ScriptedFaults faults({kClean, kLose});
  ControlChannel channel(f.engine, f.agent, 0.001, reliable(), &faults);
  int replies = 0;
  FlowMod mod;
  mod.rule = rule_of(1, 10);
  channel.send(mod, [&](const Reply&) { ++replies; });
  f.engine.run();
  EXPECT_EQ(replies, 1);
  EXPECT_EQ(channel.retransmits(), 1u);
  EXPECT_EQ(channel.dup_requests(), 1u);
  EXPECT_EQ(channel.acks(), 1u);
  EXPECT_EQ(f.agent.applied(), 1u);  // applied once, not twice
}

TEST(ControlChannel, BackoffDelaySaturatesAtRtoMax) {
  Fixture f;
  // Lose the initial send and three retransmissions. With rto_initial = 1 ms,
  // backoff 2x, cap 2 ms and zero latency, retransmits fire at 1, 3, 5, 7 ms;
  // uncapped they would fire at 1, 3, 7, 15 ms.
  ScriptedFaults faults({kLose, kLose, kLose, kLose});
  ControlChannel channel(f.engine, f.agent, 0.0, reliable(1e-3, 2e-3), &faults);
  double replied_at = -1.0;
  FlowMod mod;
  mod.rule = rule_of(1, 10);
  channel.send(mod, [&](const Reply&) { replied_at = f.engine.now(); });
  f.engine.run();
  EXPECT_EQ(channel.retransmits(), 4u);
  EXPECT_GE(replied_at, 7e-3);
  EXPECT_LT(replied_at, 9e-3);  // well before the uncapped 15 ms schedule
  EXPECT_EQ(f.agent.applied(), 1u);
}

TEST(ControlChannel, ReorderedArrivalsApplyInSendOrder) {
  Fixture f;
  // Jitter inverts the wire order: seq 0 lands last, seq 2 lands first. The
  // receiver must buffer and apply 0, 1, 2 regardless.
  ScriptedFaults faults({{6e-3}, {3e-3}, {0.0}});
  ControlChannel channel(f.engine, f.agent, 0.001, reliable(0.05), &faults);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    FlowMod mod;
    mod.rule = rule_of(static_cast<RuleId>(i + 1), 10);
    channel.send(mod, [&order, i](const Reply&) { order.push_back(i); });
  }
  f.engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(channel.reordered(), 2u);
  EXPECT_EQ(channel.retransmits(), 0u);
  EXPECT_EQ(channel.dup_requests(), 0u);
  EXPECT_EQ(f.sw.table().size(Band::kCache), 3u);
}

TEST(ControlChannel, DeleteOvertakingAddStillDeletesLast) {
  Fixture f;
  // The retire is sent after the install but arrives first. In-order apply
  // holds it until the install, which pays one flow-mod per rule, has
  // applied; each reply leaves as its request applies.
  ScriptedFaults faults({{5e-3}, {0.0}});
  ControlChannel channel(f.engine, f.agent, 0.001, reliable(0.05), &faults);
  const double cost = SwitchAgentParams{}.flow_mod_cost;
  std::vector<std::pair<std::string, double>> replies;
  PartitionInstall install;
  install.rules = 3;
  channel.send(install, [&](const Reply&) {
    replies.emplace_back("install", f.engine.now());
  });
  channel.send(PartitionRetire{}, [&](const Reply&) {
    replies.emplace_back("retire", f.engine.now());
  });
  f.engine.run();
  EXPECT_EQ(channel.reordered(), 1u);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].first, "install");
  EXPECT_EQ(replies[1].first, "retire");
  // Arrival 0.006 s, three flow-mods, then the one-way trip back; the
  // retire applies one flow-mod later.
  EXPECT_NEAR(replies[0].second, 0.006 + 3 * cost + 0.001, 1e-12);
  EXPECT_NEAR(replies[1].second, 0.006 + 4 * cost + 0.001, 1e-12);
}

TEST(ControlChannel, DuplicatedRequestAppliesOnce) {
  Fixture f;
  ScriptedFaults faults({{0.0, 0.0}});  // the wire clones the first request
  ControlChannel channel(f.engine, f.agent, 0.001, reliable(), &faults);
  int replies = 0;
  FlowMod mod;
  mod.rule = rule_of(1, 10);
  channel.send(mod, [&](const Reply&) { ++replies; });
  f.engine.run();
  EXPECT_EQ(replies, 1);
  EXPECT_EQ(channel.dup_requests(), 1u);
  EXPECT_EQ(f.agent.applied(), 1u);
  EXPECT_EQ(channel.retransmits(), 0u);
}

TEST(ControlChannel, DuplicatedAckFiresReplyOnce) {
  Fixture f;
  ScriptedFaults faults({kClean, {0.0, 0.0}});  // the ack is the cloned copy
  ControlChannel channel(f.engine, f.agent, 0.001, reliable(), &faults);
  int replies = 0;
  FlowMod mod;
  mod.rule = rule_of(1, 10);
  channel.send(mod, [&](const Reply&) { ++replies; });
  f.engine.run();
  EXPECT_EQ(replies, 1);
  EXPECT_EQ(channel.acks(), 1u);
  EXPECT_EQ(channel.dup_acks(), 1u);
}

TEST(ControlChannel, MisdirectedRequestsStillAck) {
  // An export batch sent to a switch agent, or a flow-mod sent to the
  // collector, applies nothing but must still ack, or the retransmission
  // timer would spin forever (and run() would never drain).
  Fixture f;
  ControlChannel to_agent(f.engine, f.agent, 0.001, reliable());
  CollectorEndpoint collector;
  ControlChannel to_collector(f.engine, collector, 0.001, reliable());
  FlowExport batch;
  batch.batch.seq = 9;
  std::optional<Reply> agent_reply, collector_reply;
  to_agent.send(batch, [&](const Reply& r) { agent_reply = r; });
  FlowMod mod;
  mod.rule = rule_of(1, 10);
  to_collector.send(mod, [&](const Reply& r) { collector_reply = r; });
  f.engine.run();
  ASSERT_TRUE(agent_reply.has_value());
  EXPECT_EQ(std::get<FlowExportAck>(*agent_reply).seq, 9u);
  ASSERT_TRUE(collector_reply.has_value());
  EXPECT_FALSE(std::get<FlowModReply>(*collector_reply).ok);
  EXPECT_EQ(to_agent.retransmits() + to_collector.retransmits(), 0u);
  EXPECT_EQ(f.sw.table().size(Band::kCache), 0u);
  EXPECT_TRUE(collector.take().empty());
}

TEST(ControlChannel, UnreliableWireDropsSilently) {
  Fixture f;
  // Faults without reliability: the loss is permanent, nothing retransmits.
  ScriptedFaults faults({kLose, kClean});
  ControlChannel channel(f.engine, f.agent, 0.001,
                         ControlChannel::Reliability{}, &faults);
  FlowMod a;
  a.rule = rule_of(1, 10);
  FlowMod b;
  b.rule = rule_of(2, 10);
  channel.send(a);
  channel.send(b);
  f.engine.run();
  EXPECT_EQ(channel.sent(), 2u);
  EXPECT_EQ(channel.retransmits(), 0u);
  EXPECT_EQ(f.sw.table().size(Band::kCache), 1u);
  EXPECT_EQ(f.sw.table().find(2, Band::kCache) != nullptr, true);
}

// ---------------------------------------------------------------------------
// HeartbeatMonitor: any-message liveness evidence and spurious-failover
// accounting.

struct HeartbeatFixture {
  Network net;
  SwitchId watched;
  HeartbeatFixture() { watched = net.add_switch(/*cache=*/10); }

  HeartbeatMonitor monitor(HeartbeatParams hp, FaultInjector* injector) {
    return HeartbeatMonitor(net, {watched}, hp, injector);
  }
};

// A plan that loses every heartbeat on the wire. Without other evidence the
// monitor must (wrongly) declare the live switch down — and count it as a
// spurious failover.
FaultPlan lose_all_beats() {
  FaultPlan plan;
  plan.seed = 9;
  plan.msg_loss = 1.0;
  return plan;
}

TEST(HeartbeatMonitor, TotalBeatLossDeclaresSpuriousFailover) {
  HeartbeatFixture f;
  FaultInjector injector(lose_all_beats());
  HeartbeatParams hp;
  hp.interval = 0.01;
  hp.miss_threshold = 3;
  hp.horizon = 0.1;
  auto monitor = f.monitor(hp, &injector);
  int failures = 0;
  monitor.on_failure([&](SwitchId, double) { ++failures; });
  monitor.start();
  f.net.engine().run();
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(monitor.failures_declared(), 1u);
  // The switch never actually failed: this was a detection false positive.
  EXPECT_EQ(monitor.spurious_failovers(), 1u);
}

TEST(HeartbeatMonitor, AnyMessageResetsTheMissCounter) {
  HeartbeatFixture f;
  FaultInjector injector(lose_all_beats());
  HeartbeatParams hp;
  hp.interval = 0.01;
  hp.miss_threshold = 3;
  hp.horizon = 0.1;
  auto monitor = f.monitor(hp, &injector);
  int failures = 0;
  monitor.on_failure([&](SwitchId, double) { ++failures; });
  monitor.start();
  // The switch keeps sending *other* control traffic (cache installs) even
  // though every dedicated beat is lost: note one message per tick interval.
  for (int i = 1; i <= 9; ++i) {
    f.net.engine().at(0.01 * i - 0.002, [&monitor, &f]() {
      monitor.note_message_from(f.watched);
    });
  }
  f.net.engine().run();
  // Liveness evidence arrived before every tick: no failover, no false
  // positive, despite zero beats heard.
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(monitor.failures_declared(), 0u);
  EXPECT_EQ(monitor.spurious_failovers(), 0u);
  EXPECT_EQ(monitor.beats_heard(), 0u);
}

TEST(HeartbeatMonitor, MessageEvidenceTriggersRecoveryOfDeclaredDownSwitch) {
  HeartbeatFixture f;
  FaultInjector injector(lose_all_beats());
  HeartbeatParams hp;
  hp.interval = 0.01;
  hp.miss_threshold = 2;
  hp.horizon = 0.1;
  hp.horizon = 0.07;  // ends after the recovery tick, before re-declaration
  auto monitor = f.monitor(hp, &injector);
  int failures = 0, recoveries = 0;
  monitor.on_failure([&](SwitchId, double) { ++failures; });
  monitor.on_recovery([&](SwitchId, double) { ++recoveries; });
  monitor.start();
  // Silence through t=0.02 declares the switch down (spuriously); a control
  // message heard at t=0.055 must recover it at the next tick, exactly as a
  // reviving beat would.
  f.net.engine().at(0.055, [&monitor, &f]() {
    monitor.note_message_from(f.watched);
  });
  f.net.engine().run();
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(recoveries, 1);
  EXPECT_EQ(monitor.recoveries_declared(), 1u);
  EXPECT_EQ(monitor.spurious_failovers(), 1u);
}

TEST(HeartbeatMonitor, GenuineFailureIsNotCountedSpurious) {
  HeartbeatFixture f;
  HeartbeatParams hp;
  hp.interval = 0.01;
  hp.miss_threshold = 2;
  hp.horizon = 0.06;
  auto monitor = f.monitor(hp, /*injector=*/nullptr);
  monitor.start();
  f.net.engine().at(0.015, [&f]() { f.net.set_failed(f.watched, true); });
  f.net.engine().run();
  EXPECT_EQ(monitor.failures_declared(), 1u);
  EXPECT_EQ(monitor.spurious_failovers(), 0u);
}

// End-to-end: a DIFANE run under heavy beat loss must not spuriously fail
// over authorities that are actively pushing installs (the install traffic
// is the liveness evidence), and the scenario surfaces the counter.
TEST(HeartbeatMonitor, ScenarioCountsSpuriousFailovers) {
  RuleGenParams rp;
  rp.num_rules = 150;
  rp.seed = 3;
  const auto policy = generate_policy(rp);
  TrafficParams tp;
  tp.seed = 31;
  tp.flow_pool = 200;
  tp.arrival_rate = 4000.0;
  tp.duration = 0.2;
  TrafficGenerator gen(policy, tp);
  const auto flows = gen.generate();

  ScenarioParams params;
  params.mode = Mode::kDifane;
  params.edge_switches = 4;
  params.core_switches = 2;
  params.authority_count = 1;
  params.edge_cache_capacity = 300;
  params.partitioner.capacity = 200;
  params.timings.heartbeat_interval = 0.01;
  params.timings.heartbeat_miss = 2;
  params.timings.heartbeat_horizon = 0.25;
  params.faults.seed = 11;
  params.faults.msg_loss = 0.9;  // most beats lost, installs mostly retried
  params.reliable_ctrl = true;

  Scenario scenario(policy, params);
  const auto& stats = scenario.run(flows);
  // The snapshot must expose the counter whatever its value; and with the
  // any-message rule plus steady install traffic, false positives must not
  // exceed the failovers actually declared.
  const auto report = stats.snapshot("hb");
  ASSERT_TRUE(report.metrics.count("spurious_failovers"));
  EXPECT_LE(stats.spurious_failovers, stats.failovers_detected);
  EXPECT_EQ(stats.tracer.in_flight(), 0);
}

}  // namespace
}  // namespace difane
