// Emulated Ethernet switch.
//
// Models the pieces of switch behaviour the paper's red-team story
// turns on: MAC learning (attackable) versus static MAC↔port bindings
// (the §III-B defense), frame flooding, port mirroring for packet
// capture, and bounded egress queues so traffic bursts can actually
// cause loss (the red team's DoS attempts).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/pcap.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"

namespace spire::net {

using PortId = std::size_t;

struct SwitchConfig {
  std::string name = "switch";
  /// Propagation delay applied to every forwarded frame.
  sim::Time propagation_delay = 50;  // 50 us
  /// Serialization rate in bytes per microsecond (125 ≈ 1 Gb/s).
  double bytes_per_us = 125.0;
  /// Max frames queued per egress port; beyond this, frames drop.
  std::size_t egress_queue_frames = 256;
  /// When true, a frame is only accepted from a port if its source MAC
  /// matches the static binding, and forwarding uses only the static
  /// table (no learning, no unknown-unicast flooding of bound MACs).
  bool static_port_binding = false;
};

/// Per-switch counters exposed to tests and benches.
struct SwitchStats {
  std::uint64_t frames_forwarded = 0;
  std::uint64_t frames_flooded = 0;
  std::uint64_t frames_dropped_queue = 0;
  std::uint64_t frames_dropped_binding = 0;
  std::uint64_t frames_dropped_chaos = 0;  ///< chaos-injected loss
};

class Switch {
 public:
  Switch(sim::Simulator& sim, SwitchConfig config);

  /// Adds a port; `deliver` is invoked (after forwarding delay) for each
  /// frame the switch emits on this port. Returns the port id.
  PortId add_port(std::function<void(const EthernetFrame&)> deliver);

  /// Statically binds a MAC to a port (defense from §III-B). Only
  /// enforced when config.static_port_binding is true.
  void bind_mac(const MacAddress& mac, PortId port);

  /// Frame arriving from the device attached to `ingress`. Taken by
  /// value: the unicast forwarding path moves the frame into the
  /// scheduled delivery instead of copying the payload.
  void receive(PortId ingress, EthernetFrame frame);

  /// Registers an out-of-band capture tap mirroring all traffic
  /// (legacy full-copy path; the label is interned once, here).
  void add_tap(std::string network_label, PcapSink sink);

  /// Registers a line-rate capture tap: every mirrored frame is
  /// summarized straight into the tap's ring with no allocation. The
  /// tap must outlive the switch (benches own both).
  void add_capture_tap(CaptureTap* tap);

  /// Chaos injection (fault-injection harness): independently drops
  /// each forwarded frame with probability `loss` and delays survivors
  /// by an extra uniform amount in [0, max_jitter]. (0, 0) heals.
  void set_chaos(double loss, sim::Time max_jitter);

  [[nodiscard]] const SwitchStats& stats() const { return stats_; }
  [[nodiscard]] const SwitchConfig& config() const { return config_; }
  [[nodiscard]] std::size_t port_count() const { return ports_.size(); }

 private:
  struct Port {
    std::function<void(const EthernetFrame&)> deliver;
    sim::Time busy_until = 0;
    std::size_t queued = 0;
  };

  void emit(PortId port, EthernetFrame frame);

  sim::Simulator& sim_;
  SwitchConfig config_;
  util::Logger log_;
  std::vector<Port> ports_;
  std::map<MacAddress, PortId> static_table_;
  std::map<MacAddress, PortId> learned_table_;
  struct Tap {
    NetworkId label = 0;  // interned at add_tap time
    PcapSink sink;
  };
  std::vector<Tap> taps_;
  std::vector<CaptureTap*> capture_taps_;
  double chaos_loss_ = 0;
  sim::Time chaos_jitter_ = 0;
  sim::Rng chaos_rng_{0xC7A0'5BAD'F00D'2019ULL};
  SwitchStats stats_;
};

}  // namespace spire::net
