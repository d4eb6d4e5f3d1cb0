#include "netsim/topology.hpp"

#include <deque>
#include <limits>

#include "util/contract.hpp"

namespace difane {

namespace {

constexpr double kLinkRateBps = 10e9;  // 10 Gbps

}  // namespace

SwitchId Network::add_switch(std::size_t cache_capacity) {
  const auto id = static_cast<SwitchId>(switches_.size());
  switches_.push_back(std::make_unique<Switch>(id, cache_capacity));
  routes_valid_ = false;
  return id;
}

void Network::add_link(SwitchId a, SwitchId b, LinkParams params) {
  expects(a < switches_.size() && b < switches_.size() && a != b,
          "add_link: bad endpoints");
  links_[{a, b}] = std::make_unique<Link>(params.latency, kLinkRateBps);
  links_[{b, a}] = std::make_unique<Link>(params.latency, kLinkRateBps);
  // Port numbering: use the neighbor id as the port id (unique per neighbor).
  switches_[a]->connect(b, b);
  switches_[b]->connect(a, a);
  routes_valid_ = false;
}

Switch& Network::sw(SwitchId id) {
  expects(id < switches_.size(), "sw: bad switch id");
  return *switches_[id];
}

const Switch& Network::sw(SwitchId id) const {
  expects(id < switches_.size(), "sw: bad switch id");
  return *switches_[id];
}

Link* Network::link(SwitchId from, SwitchId to) {
  const auto it = links_.find({from, to});
  return it == links_.end() ? nullptr : it->second.get();
}

bool Network::adjacent(SwitchId a, SwitchId b) const {
  return links_.count({a, b}) > 0;
}

void Network::set_failed(SwitchId id, bool failed) {
  sw(id).set_failed(failed);
  routes_valid_ = false;
}

void Network::set_link_failed(SwitchId a, SwitchId b, bool down) {
  const auto forward = links_.find({a, b});
  const auto backward = links_.find({b, a});
  expects(forward != links_.end() && backward != links_.end(),
          "set_link_failed: no such link");
  forward->second->set_up(!down);
  backward->second->set_up(!down);
  routes_valid_ = false;
}

void Network::recompute_routes() {
  const std::size_t n = switches_.size();
  const auto unreachable = std::numeric_limits<std::size_t>::max();
  next_.assign(n, std::vector<SwitchId>(n, kInvalidSwitch));
  dist_.assign(n, std::vector<std::size_t>(n, unreachable));
  // BFS from each destination over reverse edges (links are symmetric here),
  // recording the next hop toward the destination.
  for (SwitchId to = 0; to < n; ++to) {
    if (switches_[to]->failed()) continue;
    auto& nxt = next_[to];
    auto& dst = dist_[to];
    dst[to] = 0;
    nxt[to] = to;
    std::deque<SwitchId> queue{to};
    while (!queue.empty()) {
      const SwitchId at = queue.front();
      queue.pop_front();
      for (const auto& [port, neighbor] : switches_[at]->ports()) {
        (void)port;
        if (neighbor >= n) continue;
        // Intermediate hops must be alive; `at` was checked on entry.
        if (switches_[neighbor]->failed()) continue;
        // The step recorded below uses the (neighbor, at) link; a downed
        // link carries nothing in either direction.
        const auto link_it = links_.find({neighbor, at});
        if (link_it == links_.end() || !link_it->second->up()) continue;
        if (dst[neighbor] != unreachable) continue;
        dst[neighbor] = dst[at] + 1;
        nxt[neighbor] = at;  // from `neighbor`, step to `at` toward `to`
        queue.push_back(neighbor);
      }
    }
  }
  routes_valid_ = true;
}

SwitchId Network::next_hop(SwitchId from, SwitchId to) {
  expects(from < switches_.size() && to < switches_.size(), "next_hop: bad ids");
  if (!routes_valid_) recompute_routes();
  return next_[to][from];
}

std::size_t Network::distance(SwitchId from, SwitchId to) {
  expects(from < switches_.size() && to < switches_.size(), "distance: bad ids");
  if (!routes_valid_) recompute_routes();
  return dist_[to][from];
}

TwoTierTopology build_two_tier(Network& net, std::size_t edges, std::size_t cores,
                               std::size_t edge_cache_capacity,
                               std::size_t core_cache_capacity, LinkParams params) {
  expects(edges >= 1 && cores >= 1, "build_two_tier: need >= 1 of each tier");
  TwoTierTopology topo;
  for (std::size_t i = 0; i < cores; ++i) {
    topo.core.push_back(net.add_switch(core_cache_capacity));
  }
  for (std::size_t i = 0; i < edges; ++i) {
    const auto edge = net.add_switch(edge_cache_capacity);
    topo.edge.push_back(edge);
    for (const auto core : topo.core) net.add_link(edge, core, params);
  }
  // Core full mesh so authority switches can reach each other directly.
  for (std::size_t i = 0; i < topo.core.size(); ++i) {
    for (std::size_t j = i + 1; j < topo.core.size(); ++j) {
      net.add_link(topo.core[i], topo.core[j], params);
    }
  }
  return topo;
}

std::vector<SwitchId> build_line(Network& net, std::size_t n, std::size_t cache_capacity,
                                 LinkParams params) {
  expects(n >= 1, "build_line: need >= 1 switch");
  std::vector<SwitchId> ids;
  for (std::size_t i = 0; i < n; ++i) ids.push_back(net.add_switch(cache_capacity));
  for (std::size_t i = 0; i + 1 < n; ++i) net.add_link(ids[i], ids[i + 1], params);
  return ids;
}

}  // namespace difane
