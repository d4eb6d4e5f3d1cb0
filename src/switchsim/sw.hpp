// Switch model: an identified node holding a banded flow table plus the
// port map the data plane forwards over. Behavior (what to do on a hit or a
// miss) lives in the control-plane layers (core/, controller/) — the switch
// itself is a faithful, passive data-plane element, like the Click/OpenFlow
// switch the paper's prototype modified.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "switchsim/flow_table.hpp"

namespace difane {

using SwitchId = std::uint32_t;
using PortId = std::uint32_t;

inline constexpr SwitchId kInvalidSwitch = 0xffffffffu;

class Switch {
 public:
  Switch(SwitchId id, std::size_t cache_capacity)
      : id_(id), table_(cache_capacity) {}

  SwitchId id() const { return id_; }
  FlowTable& table() { return table_; }
  const FlowTable& table() const { return table_; }

  // Port wiring: port -> neighbor switch (or host) id. The topology layer
  // fills this in; kEgressPortBase+... ports lead out of the network.
  void connect(PortId port, SwitchId neighbor) { ports_[port] = neighbor; }
  std::optional<SwitchId> neighbor(PortId port) const {
    const auto it = ports_.find(port);
    if (it == ports_.end()) return std::nullopt;
    return it->second;
  }
  const std::unordered_map<PortId, SwitchId>& ports() const { return ports_; }

  bool failed() const { return failed_; }
  void set_failed(bool failed) { failed_ = failed; }

  std::string describe() const;

 private:
  SwitchId id_;
  FlowTable table_;
  std::unordered_map<PortId, SwitchId> ports_;
  bool failed_ = false;
};

}  // namespace difane
