#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "netsim/link.hpp"
#include "netsim/topology.hpp"
#include "netsim/tracer.hpp"
#include "util/rng.hpp"

namespace difane {
namespace {

TEST(Engine, ExecutesInTimestampOrder) {
  Engine e;
  std::vector<int> order;
  e.at(3.0, [&] { order.push_back(3); });
  e.at(1.0, [&] { order.push_back(1); });
  e.at(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
  EXPECT_EQ(e.executed(), 3u);
}

TEST(Engine, TiesBreakFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.at(1.0, [&order, i] { order.push_back(i); });
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, SchedulingInPastThrows) {
  Engine e;
  e.at(5.0, [] {});
  e.run();
  EXPECT_THROW(e.at(1.0, [] {}), contract_violation);
  EXPECT_THROW(e.at(1.0, e.reserve(1), [] {}), contract_violation);
}

TEST(Engine, ReservedNumbersRunInReservationOrder) {
  // Streamed packet arrivals rely on this: an event on a reserved number
  // sorts where it would have at reservation time, ahead of later events.
  Engine e;
  std::vector<int> order;
  const std::uint64_t base = e.reserve(2);
  e.at(1.0, [&] { order.push_back(2); });
  e.at(1.0, base + 1, [&] { order.push_back(1); });
  e.at(1.0, base, [&] { order.push_back(0); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// One event of the chain property below: a member of chain `group`, and,
// when `child_delay` >= 0, the parent of an event scheduled on a fresh number
// when it fires (another producer's in-flight event).
struct PlannedEvent {
  SimTime when = 0.0;
  std::size_t group = 0;
  std::uint64_t extra = 0;  // numbers reserved behind this one (a flow's packets)
  SimTime child_delay = -1.0;
};

// Runs the plan and records event ids in pop order; the child of event i is
// id events.size() + i. Both ways take the same numbers: `loose` plain
// events, then one reservation per event in `reserve_order`. Up front, every
// event is scheduled on its number before the run. Chained, each group
// schedules only its earliest event by (when, number), and each event
// schedules its group's next one when it fires.
struct ChainRun {
  const std::vector<PlannedEvent>& events;
  bool chained;
  Engine engine;
  std::vector<std::uint64_t> seq;
  std::vector<std::vector<std::size_t>> chains;
  std::vector<std::size_t> next;
  std::vector<std::size_t> fired;

  ChainRun(const std::vector<PlannedEvent>& planned, std::size_t groups,
           const std::vector<std::size_t>& reserve_order,
           const std::vector<SimTime>& loose, bool chain)
      : events(planned), chained(chain), seq(planned.size()), chains(groups),
        next(groups, 0) {
    for (std::size_t k = 0; k < loose.size(); ++k) {
      const std::size_t id = 2 * events.size() + k;
      engine.at(loose[k], [this, id] { fired.push_back(id); });
    }
    for (const std::size_t i : reserve_order) {
      seq[i] = engine.reserve(1 + events[i].extra);
    }
    for (std::size_t i = 0; i < events.size(); ++i) chains[events[i].group].push_back(i);
    for (auto& chain : chains) {
      std::sort(chain.begin(), chain.end(), [&](std::size_t a, std::size_t b) {
        if (events[a].when != events[b].when) return events[a].when < events[b].when;
        return seq[a] < seq[b];
      });
    }
    if (chained) {
      for (std::size_t g = 0; g < groups; ++g) schedule_next(g);
    } else {
      for (std::size_t i = 0; i < events.size(); ++i) schedule(i);
    }
  }
  ChainRun(const ChainRun&) = delete;  // handlers hold `this`
  ChainRun& operator=(const ChainRun&) = delete;
  void schedule(std::size_t i) {
    engine.at(events[i].when, seq[i], [this, i] { fire(i); });
  }
  void schedule_next(std::size_t g) {
    if (next[g] < chains[g].size()) schedule(chains[g][next[g]++]);
  }
  void fire(std::size_t i) {
    if (chained) schedule_next(events[i].group);
    fired.push_back(i);
    if (events[i].child_delay >= 0.0) {
      const std::size_t child = events.size() + i;
      engine.after(events[i].child_delay, [this, child] { fired.push_back(child); });
    }
  }
};

TEST(Engine, ChainsOnReservedNumbersPopAsIfScheduledUpFront) {
  // Flow starts per ingress and a switch agent's backlog both stream this
  // way. Random groups of events on a grid of four times, so most events tie;
  // numbers reserved in a random interleaving across groups, some with
  // trailing numbers; plain events and children on fresh numbers around them.
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed);
    const std::size_t groups = rng.uniform(1, 5);
    std::vector<PlannedEvent> events(rng.uniform(1, 40));
    for (auto& ev : events) {
      ev.when = 0.5 * static_cast<double>(rng.uniform(0, 3));
      ev.group = rng.uniform(0, groups - 1);
      ev.extra = rng.bernoulli(0.3) ? rng.uniform(1, 3) : 0;
      if (rng.bernoulli(0.3)) ev.child_delay = 0.5 * static_cast<double>(rng.uniform(0, 1));
    }
    std::vector<std::size_t> reserve_order(events.size());
    std::iota(reserve_order.begin(), reserve_order.end(), std::size_t{0});
    for (std::size_t i = reserve_order.size(); i > 1; --i) {
      std::swap(reserve_order[i - 1], reserve_order[rng.uniform(0, i - 1)]);
    }
    std::vector<SimTime> loose(rng.uniform(0, 3));
    for (auto& when : loose) when = 0.5 * static_cast<double>(rng.uniform(0, 3));

    ChainRun up_front(events, groups, reserve_order, loose, false);
    ChainRun chained(events, groups, reserve_order, loose, true);
    std::size_t used_groups = 0;
    for (const auto& chain : chained.chains) used_groups += chain.empty() ? 0 : 1;
    EXPECT_EQ(up_front.engine.pending(), events.size() + loose.size());
    EXPECT_EQ(chained.engine.pending(), used_groups + loose.size());
    up_front.engine.run();
    chained.engine.run();
    EXPECT_EQ(chained.fired, up_front.fired) << "seed " << seed;
    EXPECT_EQ(chained.engine.executed(), up_front.engine.executed()) << "seed " << seed;
  }
}

TEST(Engine, UnreservedSequenceNumberIsAContractViolation) {
  Engine e;
  const std::uint64_t base = e.reserve(2);
  EXPECT_THROW(e.at(1.0, base + 2, [] {}), contract_violation);
  EXPECT_TRUE(e.empty());
  e.at(1.0, base + 1, [] {});
  EXPECT_EQ(e.pending(), 1u);
}

TEST(Engine, ReentrantSchedulingWorks) {
  Engine e;
  int fired = 0;
  e.at(1.0, [&] {
    ++fired;
    e.after(1.0, [&] { ++fired; });
  });
  e.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
}

TEST(Engine, RunUntilStopsEarly) {
  Engine e;
  int fired = 0;
  e.at(1.0, [&] { ++fired; });
  e.at(10.0, [&] { ++fired; });
  e.run(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, MaxEventsBoundsRunawayLoops) {
  Engine e;
  std::function<void()> self = [&] { e.after(0.001, self); };
  e.at(0.0, self);
  const auto executed = e.run(1e18, 100);
  EXPECT_EQ(executed, 100u);
  e.clear();
  EXPECT_TRUE(e.empty());
}

TEST(Engine, ZeroDelaySelfReschedulingMakesProgress) {
  // Events that reschedule themselves with zero delay must not starve other
  // events at the same timestamp (FIFO tie-break) and must keep now() fixed.
  Engine e;
  int self_fires = 0;
  int other_fires = 0;
  std::function<void()> self = [&] {
    if (++self_fires < 10) e.after(0.0, self);
  };
  e.at(1.0, self);
  e.at(1.0, [&] { ++other_fires; });
  e.run();
  EXPECT_EQ(self_fires, 10);
  EXPECT_EQ(other_fires, 1);
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
}

TEST(Engine, FifoTieBreakIsStableAcrossInterleavedScheduling) {
  // Two identical runs where same-timestamp events are scheduled from
  // different call sites (including reentrantly) must execute identically.
  const auto trace = [] {
    Engine e;
    std::vector<int> order;
    e.at(1.0, [&] {
      order.push_back(0);
      e.at(1.0, [&] { order.push_back(3); });  // reentrant, same timestamp
    });
    e.at(1.0, [&] { order.push_back(1); });
    e.at(1.0, [&] { order.push_back(2); });
    e.run();
    return order;
  };
  const auto first = trace();
  EXPECT_EQ(first, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(trace(), first);
}

TEST(Engine, ClearMidRunDropsPendingButKeepsClock) {
  Engine e;
  int fired = 0;
  e.at(1.0, [&] {
    ++fired;
    e.clear();  // cancels everything below, from inside a handler
  });
  e.at(2.0, [&] { ++fired; });
  e.at(3.0, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.empty());
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
  // The engine stays usable: scheduling resumes from the current clock.
  e.at(5.0, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
}

TEST(Link, PropagationPlusSerialization) {
  Link link(1e-3, 1e9);  // 1ms, 1Gbps
  const double t1 = link.send(0.0, 1250);  // 10us serialization
  EXPECT_NEAR(t1, 1e-3 + 1e-5, 1e-12);
  // Second packet queues behind the first.
  const double t2 = link.send(0.0, 1250);
  EXPECT_NEAR(t2, 1e-3 + 2e-5, 1e-12);
  EXPECT_EQ(link.packets(), 2u);
  EXPECT_EQ(link.bytes(), 2500u);
  EXPECT_GT(link.backlog(0.0), 0.0);
  EXPECT_DOUBLE_EQ(link.backlog(1.0), 0.0);
}

TEST(Link, FifoDeliveryOrder) {
  Link link(1e-4, 1e8);
  double prev = 0.0;
  for (int i = 0; i < 20; ++i) {
    const double t = link.send(0.0, 100 + i);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(Topology, TwoTierWiring) {
  Network net;
  const auto topo = build_two_tier(net, 4, 2, 100, 100);
  EXPECT_EQ(net.switch_count(), 6u);
  for (const auto edge : topo.edge) {
    for (const auto core : topo.core) {
      EXPECT_TRUE(net.adjacent(edge, core));
      EXPECT_NE(net.link(edge, core), nullptr);
    }
  }
  // Edge switches are not directly connected.
  EXPECT_FALSE(net.adjacent(topo.edge[0], topo.edge[1]));
  EXPECT_EQ(net.distance(topo.edge[0], topo.edge[1]), 2u);
  EXPECT_EQ(net.distance(topo.edge[0], topo.core[0]), 1u);
  EXPECT_EQ(net.distance(topo.edge[0], topo.edge[0]), 0u);
}

TEST(Topology, NextHopWalksShortestPath) {
  Network net;
  const auto line = build_line(net, 5, 10);
  EXPECT_EQ(net.next_hop(line[0], line[4]), line[1]);
  EXPECT_EQ(net.next_hop(line[3], line[4]), line[4]);
  EXPECT_EQ(net.distance(line[0], line[4]), 4u);
}

TEST(Topology, FailedSwitchIsRoutedAround) {
  Network net;
  const auto topo = build_two_tier(net, 2, 2, 10, 10);
  // Fail one core; edge-to-edge routes must use the other.
  net.set_failed(topo.core[0], true);
  const auto nh = net.next_hop(topo.edge[0], topo.edge[1]);
  EXPECT_EQ(nh, topo.core[1]);
  // Unreachable destination: fail both cores.
  net.set_failed(topo.core[1], true);
  EXPECT_EQ(net.next_hop(topo.edge[0], topo.edge[1]), kInvalidSwitch);
  // Recovery restores routing.
  net.set_failed(topo.core[0], false);
  EXPECT_EQ(net.next_hop(topo.edge[0], topo.edge[1]), topo.core[0]);
}

TEST(Tracer, ConservationAccounting) {
  Tracer tracer;
  Packet a, b, c;
  a.is_first_of_flow = true;
  a.created = 0.0;
  tracer.on_injected(a);
  tracer.on_injected(b);
  tracer.on_injected(c);
  EXPECT_EQ(tracer.in_flight(), 3);
  tracer.on_delivered(a, 0.5);
  tracer.on_dropped(b, DropReason::kPolicyDrop);
  EXPECT_EQ(tracer.in_flight(), 1);
  tracer.on_dropped(c, DropReason::kTtlExceeded);
  EXPECT_EQ(tracer.in_flight(), 0);
  EXPECT_EQ(tracer.dropped(DropReason::kPolicyDrop), 1u);
  EXPECT_EQ(tracer.dropped(DropReason::kTtlExceeded), 1u);
  EXPECT_EQ(tracer.first_packet_delay().count(), 1u);
  EXPECT_DOUBLE_EQ(tracer.first_packet_delay().percentile(0.5), 0.5);
  EXPECT_NE(tracer.summary().find("injected=3"), std::string::npos);
}

TEST(Tracer, SeparatesFirstAndLaterPacketDelays) {
  Tracer tracer;
  Packet first, later;
  first.is_first_of_flow = true;
  first.created = 0.0;
  later.is_first_of_flow = false;
  later.created = 0.0;
  tracer.on_injected(first);
  tracer.on_injected(later);
  tracer.on_delivered(first, 0.010);
  tracer.on_delivered(later, 0.001);
  EXPECT_DOUBLE_EQ(tracer.first_packet_delay().percentile(0.5), 0.010);
  EXPECT_DOUBLE_EQ(tracer.later_packet_delay().percentile(0.5), 0.001);
}

TEST(Tracer, RedirectedPacketsCounted) {
  Tracer tracer;
  Packet p;
  p.was_redirected = true;
  tracer.on_injected(p);
  tracer.on_delivered(p, 1.0);
  EXPECT_EQ(tracer.redirected(), 1u);
}

}  // namespace
}  // namespace difane
