// Emulated host network stack.
//
// A Host owns one or more NICs, an ARP layer (dynamic and poisonable,
// or statically pinned per §III-B), a stateless firewall, a UDP-style
// socket table, and optional datagram forwarding with ACLs (used for
// the enterprise/operations firewall appliance in the Fig. 3 testbed).
// The OsProfile captures the hardening facts the excursion narrative
// turns on (latest minimal CentOS vs a default desktop install).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"

namespace spire::net {

enum class Direction { kInbound, kOutbound };

/// One allow rule; empty optionals are wildcards.
struct FirewallRule {
  Direction direction = Direction::kInbound;
  std::optional<IpAddress> remote_ip;
  std::optional<std::uint16_t> local_port;
  std::optional<std::uint16_t> remote_port;
};

/// Host firewall: the §III-B posture is default-deny with explicit
/// allows; the commercial baseline runs default-allow.
struct FirewallConfig {
  bool default_deny = false;
  std::vector<FirewallRule> allow;

  [[nodiscard]] bool permits(Direction dir, IpAddress remote,
                             std::uint16_t local_port,
                             std::uint16_t remote_port) const;
};

/// Operating-system facts consulted by privilege-escalation attacks.
struct OsProfile {
  std::string distro = "ubuntu-desktop";
  bool patched_kernel = false;   ///< dirtycow-class bugs fixed?
  bool patched_sshd = false;     ///< sshd CVEs fixed?
  bool minimal_install = false;  ///< no extra preinstalled services?

  static OsProfile hardened_centos() {
    return {"centos-minimal", true, true, true};
  }
  static OsProfile default_ubuntu() { return {"ubuntu-desktop", false, false, false}; }
};

/// ACL entry for forwarded (routed) traffic.
struct ForwardRule {
  std::optional<IpAddress> src_ip;
  std::optional<IpAddress> dst_ip;
  std::optional<std::uint16_t> dst_port;
};

struct Route {
  IpAddress prefix;
  int prefix_len = 24;
  std::size_t out_interface = 0;
  std::optional<IpAddress> next_hop;  ///< empty: directly attached.
};

struct HostStats {
  std::uint64_t frames_rx = 0;
  std::uint64_t datagrams_delivered = 0;
  std::uint64_t datagrams_sent = 0;
  std::uint64_t dropped_firewall_in = 0;
  std::uint64_t dropped_firewall_out = 0;
  std::uint64_t dropped_no_handler = 0;
  std::uint64_t dropped_forward_acl = 0;
  std::uint64_t arp_replies_accepted = 0;
  std::uint64_t arp_replies_ignored_static = 0;
  std::uint64_t forwarded = 0;
};

using UdpHandler = std::function<void(const Datagram&)>;
/// Raw frame observer for promiscuous sniffing (attacker tooling).
using FrameSniffer = std::function<void(std::size_t iface, const EthernetFrame&)>;

class Host {
 public:
  Host(sim::Simulator& sim, std::string name);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  // ---- interfaces -------------------------------------------------------
  /// Adds a NIC. The transmit hook is wired by Network::connect/cable.
  std::size_t add_interface(MacAddress mac, IpAddress ip, int prefix_len);
  [[nodiscard]] std::size_t interface_count() const { return ifaces_.size(); }
  [[nodiscard]] MacAddress mac(std::size_t iface = 0) const;
  [[nodiscard]] IpAddress ip(std::size_t iface = 0) const;
  /// The transmit hook takes the frame by value so the send path can
  /// move it down the wire instead of copying the payload at each layer
  /// (callbacks taking `const EthernetFrame&` still convert).
  void set_transmit(std::size_t iface, std::function<void(EthernetFrame)> tx);
  void set_promiscuous(std::size_t iface, bool on);

  /// Entry point for frames arriving from the wire.
  void handle_frame(std::size_t iface, const EthernetFrame& frame);

  // ---- configuration ----------------------------------------------------
  FirewallConfig& firewall() { return firewall_; }
  OsProfile& os() { return os_; }
  [[nodiscard]] const OsProfile& os() const { return os_; }

  /// §III-B: static MAC↔IP mapping; ARP replies are ignored.
  void use_static_arp(bool on) { static_arp_ = on; }
  void add_arp_entry(IpAddress ip, MacAddress mac) { arp_table_[ip] = mac; }
  /// §III-B: when false, a NIC only answers ARP for its own IP (the
  /// hardened setting); when true (OS default), any local IP is answered.
  void set_answer_arp_for_any_local_ip(bool on) { arp_any_local_ = on; }
  void set_gateway(IpAddress gw) { gateway_ = gw; }
  [[nodiscard]] std::optional<MacAddress> arp_lookup(IpAddress ip) const;

  // ---- sockets ----------------------------------------------------------
  void bind_udp(std::uint16_t port, UdpHandler handler);
  void unbind_udp(std::uint16_t port);
  [[nodiscard]] bool has_binding(std::uint16_t port) const;

  /// Sends a datagram; returns false if the egress firewall blocks it or
  /// no route exists. Source IP is taken from the chosen interface.
  bool send_udp(IpAddress dst_ip, std::uint16_t dst_port,
                std::uint16_t src_port, util::Bytes payload);
  /// Borrowed-buffer variant for hot paths that serialize into a reusable
  /// scratch writer: the payload is copied exactly once, into the
  /// datagram, instead of the caller materializing a fresh vector per
  /// send. Pass the span explicitly — an owned util::Bytes argument
  /// resolves to the overload above.
  bool send_udp(IpAddress dst_ip, std::uint16_t dst_port,
                std::uint16_t src_port, std::span<const std::uint8_t> payload);

  // ---- forwarding (firewall appliance / router) --------------------------
  void enable_forwarding(bool default_deny);
  void add_route(Route route) { routes_.push_back(route); }
  void add_forward_allow(ForwardRule rule) { forward_allow_.push_back(rule); }

  // ---- attacker-facing hooks ---------------------------------------------
  /// Injects an arbitrary frame (spoofing, gratuitous ARP, DoS floods).
  void send_frame_raw(std::size_t iface, const EthernetFrame& frame);
  void set_sniffer(FrameSniffer sniffer) { sniffer_ = std::move(sniffer); }
  /// Interceptor for datagrams that land on this host's NIC but are
  /// addressed to another IP (the position an ARP-poisoning MITM puts
  /// itself in). Returning true consumes the packet (tamper/forward/drop
  /// is the interceptor's business); false falls through to normal
  /// forwarding.
  using PacketInterceptor =
      std::function<bool(std::size_t iface, const Datagram&)>;
  void set_packet_interceptor(PacketInterceptor interceptor) {
    interceptor_ = std::move(interceptor);
  }
  /// Marks the host as attacker-controlled; the attack framework gates
  /// its capabilities on this.
  void set_compromised(bool on) { compromised_ = on; }
  [[nodiscard]] bool compromised() const { return compromised_; }

  [[nodiscard]] const HostStats& stats() const { return stats_; }

 private:
  struct Interface {
    MacAddress mac;
    IpAddress ip;
    int prefix_len = 24;
    bool promiscuous = false;
    std::function<void(EthernetFrame)> tx;
  };

  struct Egress {
    std::size_t iface;
    IpAddress next_hop;
  };
  [[nodiscard]] std::optional<Egress> resolve_egress(IpAddress dst_ip) const;

  void handle_arp(std::size_t iface, const ArpPacket& arp);
  void handle_datagram(std::size_t iface, const Datagram& dgram);
  void forward_datagram(Datagram dgram);
  /// Sends `dgram` out of `iface` toward `next_hop` (ARP-resolving it).
  void transmit_datagram(std::size_t iface, IpAddress next_hop,
                         const Datagram& dgram);
  [[nodiscard]] bool is_local_ip(IpAddress ip) const;
  [[nodiscard]] std::optional<std::size_t> interface_for(IpAddress dst) const;

  sim::Simulator& sim_;
  std::string name_;
  util::Logger log_;
  std::vector<Interface> ifaces_;

  bool static_arp_ = false;
  bool arp_any_local_ = true;  // OS default; hardened hosts turn this off.
  std::map<IpAddress, MacAddress> arp_table_;
  std::map<IpAddress, std::vector<std::pair<std::size_t, Datagram>>> arp_pending_;

  FirewallConfig firewall_;
  OsProfile os_;
  std::optional<IpAddress> gateway_;

  std::map<std::uint16_t, UdpHandler> udp_handlers_;

  bool forwarding_ = false;
  bool forward_default_deny_ = true;
  std::vector<ForwardRule> forward_allow_;
  std::vector<Route> routes_;

  FrameSniffer sniffer_;
  PacketInterceptor interceptor_;
  bool compromised_ = false;
  HostStats stats_;
};

}  // namespace spire::net
