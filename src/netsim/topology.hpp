// Network: switches + directed links + shortest-path routing. Topology
// builders approximate the environments the paper targets: an
// enterprise-style two-tier network (edge switches under a core layer,
// authority switches placed at/near the core) and small line/star topologies
// for focused tests.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "netsim/engine.hpp"
#include "netsim/link.hpp"
#include "switchsim/sw.hpp"

namespace difane {

// Every link runs at kLinkRateBps (topology.cpp).
struct LinkParams {
  SimTime latency = 100e-6;  // 100 us per hop, LAN-scale
};

class Network {
 public:
  Engine& engine() { return engine_; }

  SwitchId add_switch(std::size_t cache_capacity);

  // Bidirectional: creates one Link object per direction.
  void add_link(SwitchId a, SwitchId b, LinkParams params = {});

  Switch& sw(SwitchId id);
  const Switch& sw(SwitchId id) const;
  std::size_t switch_count() const { return switches_.size(); }

  Link* link(SwitchId from, SwitchId to);
  bool adjacent(SwitchId a, SwitchId b) const;

  // Next hop on a shortest path (hop count) from `from` toward `to`, skipping
  // failed switches; kInvalidSwitch if unreachable. Routes are recomputed
  // lazily after topology or failure changes.
  SwitchId next_hop(SwitchId from, SwitchId to);
  // Hop distance, or SIZE_MAX if unreachable.
  std::size_t distance(SwitchId from, SwitchId to);

  void set_failed(SwitchId id, bool failed);

  // Take the (a, b) link down or bring it back up — both directions, as a
  // cable cut would. Routes recompute lazily around it.
  void set_link_failed(SwitchId a, SwitchId b, bool down);

 private:
  void recompute_routes();

  Engine engine_;
  std::vector<std::unique_ptr<Switch>> switches_;
  std::map<std::pair<SwitchId, SwitchId>, std::unique_ptr<Link>> links_;
  // next_[to][from] = next hop from `from` toward `to`.
  std::vector<std::vector<SwitchId>> next_;
  std::vector<std::vector<std::size_t>> dist_;
  bool routes_valid_ = false;
};

// ---- topology builders --------------------------------------------------

struct TwoTierTopology {
  std::vector<SwitchId> edge;  // ingress/egress switches (hosts hang here)
  std::vector<SwitchId> core;  // core layer; authority switches live here
};

// `edges` edge switches each linked to every core switch (folded Clos).
TwoTierTopology build_two_tier(Network& net, std::size_t edges, std::size_t cores,
                               std::size_t edge_cache_capacity,
                               std::size_t core_cache_capacity,
                               LinkParams params = {});

// A chain s0 - s1 - ... - s(n-1).
std::vector<SwitchId> build_line(Network& net, std::size_t n,
                                 std::size_t cache_capacity, LinkParams params = {});

}  // namespace difane
