// FaultPlan: a declarative, seeded description of everything that may go
// wrong in one simulation run. The plan is pure data — probabilities for the
// stochastic faults (control-message loss/duplication/latency jitter, failed
// cache installs) plus explicit schedules for the deterministic ones (link
// flaps, authority-switch crashes and restarts). A (seed, plan) pair fully
// determines every fault decision: the FaultInjector draws from one Rng in
// event-execution order, which the engine makes deterministic, so chaos runs
// replay bit-for-bit exactly like the proptest suites.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "switchsim/sw.hpp"

namespace difane {

// One link goes down at `down_at` and (optionally) comes back at `up_at`.
// Both directions of the (a, b) pair flap together, as a cable cut would.
struct LinkFlap {
  SwitchId a = kInvalidSwitch;
  SwitchId b = kInvalidSwitch;
  double down_at = 0.0;
  double up_at = -1.0;  // < 0: stays down for the rest of the run
};

// An authority switch crashes at `at`, losing its cache and partition bands
// (a real switch reboot comes back empty); its bindings, the authority band,
// stay with the controller. If `restart_at` >= 0 the switch rejoins then;
// the controller reinstalls its partition rules once the restart is
// detected. Indexed into the scenario's authority list, not by SwitchId, so
// plans stay valid across topology sizes.
struct AuthorityCrash {
  std::uint32_t authority_index = 0;
  double at = 0.0;
  double restart_at = -1.0;  // < 0: stays down for the rest of the run
};

struct FaultPlan {
  std::uint64_t seed = 1;

  // Per-transmission probabilities for control messages (cache installs,
  // acks, heartbeats). Reordering is not a separate knob: it emerges from
  // jitter, since two messages with different jitter draws overtake each
  // other on the wire.
  double msg_loss = 0.0;         // P[a transmission is dropped]
  double msg_dup = 0.0;          // P[a transmission is delivered twice]
  double msg_jitter_prob = 0.0;  // P[a delivery picks up extra latency]
  double msg_jitter_max = 0.0;   // extra latency ~ U[0, msg_jitter_max]

  // P[an applied FlowMod fails at the switch] — the partial / failed
  // cache-install fault. The reply still flows (ok = false).
  double install_fail = 0.0;

  std::vector<LinkFlap> link_flaps;
  std::vector<AuthorityCrash> crashes;

  // True when any fault can actually occur. Inactive plans leave every code
  // path byte-identical to a build without the faults layer.
  bool active() const;

  // Reject malformed plans with a field-naming difane::ConfigError
  // ("faults.<field>"), mirroring ScenarioParams::validate().
  void validate() const;

  std::string to_string() const;
};

}  // namespace difane
