#include "net/host.hpp"

#include <algorithm>

namespace spire::net {

bool FirewallConfig::permits(Direction dir, IpAddress remote,
                             std::uint16_t local_port,
                             std::uint16_t remote_port) const {
  for (const auto& rule : allow) {
    if (rule.direction != dir) continue;
    if (rule.remote_ip && *rule.remote_ip != remote) continue;
    if (rule.local_port && *rule.local_port != local_port) continue;
    if (rule.remote_port && *rule.remote_port != remote_port) continue;
    return true;
  }
  return !default_deny;
}

Host::Host(sim::Simulator& sim, std::string name)
    : sim_(sim),
      name_(std::move(name)),
      log_("net.host." + name_) {}

std::size_t Host::add_interface(MacAddress mac, IpAddress ip, int prefix_len) {
  ifaces_.push_back(Interface{mac, ip, prefix_len, false, nullptr});
  return ifaces_.size() - 1;
}

MacAddress Host::mac(std::size_t iface) const { return ifaces_.at(iface).mac; }
IpAddress Host::ip(std::size_t iface) const { return ifaces_.at(iface).ip; }

void Host::set_transmit(std::size_t iface,
                        std::function<void(EthernetFrame)> tx) {
  ifaces_.at(iface).tx = std::move(tx);
}

void Host::set_promiscuous(std::size_t iface, bool on) {
  ifaces_.at(iface).promiscuous = on;
}

std::optional<MacAddress> Host::arp_lookup(IpAddress ip) const {
  const auto it = arp_table_.find(ip);
  if (it == arp_table_.end()) return std::nullopt;
  return it->second;
}

void Host::bind_udp(std::uint16_t port, UdpHandler handler) {
  udp_handlers_[port] = std::move(handler);
}

void Host::unbind_udp(std::uint16_t port) { udp_handlers_.erase(port); }

bool Host::has_binding(std::uint16_t port) const {
  return udp_handlers_.count(port) > 0;
}

bool Host::is_local_ip(IpAddress ip) const {
  return std::any_of(ifaces_.begin(), ifaces_.end(),
                     [&](const Interface& i) { return i.ip == ip; });
}

std::optional<std::size_t> Host::interface_for(IpAddress dst) const {
  for (std::size_t i = 0; i < ifaces_.size(); ++i) {
    if (dst.same_subnet(ifaces_[i].ip, ifaces_[i].prefix_len)) return i;
  }
  return std::nullopt;
}

std::optional<Host::Egress> Host::resolve_egress(IpAddress dst_ip) const {
  if (auto direct = interface_for(dst_ip)) {
    return Egress{*direct, dst_ip};
  }
  if (gateway_) {
    const auto gw_iface = interface_for(*gateway_);
    if (!gw_iface) return std::nullopt;
    return Egress{*gw_iface, *gateway_};
  }
  log_.debug("no route to ", dst_ip.str());
  return std::nullopt;
}

bool Host::send_udp(IpAddress dst_ip, std::uint16_t dst_port,
                    std::uint16_t src_port, util::Bytes payload) {
  if (!firewall_.permits(Direction::kOutbound, dst_ip, src_port, dst_port)) {
    ++stats_.dropped_firewall_out;
    return false;
  }
  const auto egress = resolve_egress(dst_ip);
  if (!egress) return false;

  Datagram dgram;
  dgram.src_ip = ifaces_[egress->iface].ip;
  dgram.dst_ip = dst_ip;
  dgram.src_port = src_port;
  dgram.dst_port = dst_port;
  dgram.payload = std::move(payload);
  ++stats_.datagrams_sent;
  transmit_datagram(egress->iface, egress->next_hop, dgram);
  return true;
}

bool Host::send_udp(IpAddress dst_ip, std::uint16_t dst_port,
                    std::uint16_t src_port,
                    std::span<const std::uint8_t> payload) {
  if (!firewall_.permits(Direction::kOutbound, dst_ip, src_port, dst_port)) {
    ++stats_.dropped_firewall_out;
    return false;
  }
  const auto egress = resolve_egress(dst_ip);
  if (!egress) return false;

  const Interface& nic = ifaces_[egress->iface];
  const auto mac_it = arp_table_.find(egress->next_hop);
  if (mac_it == arp_table_.end()) {
    // ARP not resolved: the datagram must be queued in owned form, so
    // take the ordinary path.
    return send_udp(dst_ip, dst_port, src_port,
                    util::Bytes(payload.begin(), payload.end()));
  }

  // Fast path: serialize the datagram directly around the borrowed
  // payload — one allocation, one copy — and move the frame down the
  // transmit chain.
  ++stats_.datagrams_sent;
  if (!nic.tx) return true;
  util::ByteWriter w(4 + 4 + 2 + 2 + 1 + 4 + payload.size());
  w.u32(nic.ip.value);
  w.u32(dst_ip.value);
  w.u16(src_port);
  w.u16(dst_port);
  w.u8(Datagram{}.ttl);
  w.blob(payload);
  nic.tx(EthernetFrame{nic.mac, mac_it->second, EtherType::kIpv4, w.take()});
  return true;
}

void Host::transmit_datagram(std::size_t iface, IpAddress next_hop,
                             const Datagram& dgram) {
  Interface& nic = ifaces_[iface];
  if (!nic.tx) return;

  const auto mac_it = arp_table_.find(next_hop);
  if (mac_it == arp_table_.end()) {
    if (static_arp_) {
      // Static mapping is authoritative: unknown next hop is a
      // misconfiguration, not something to resolve dynamically.
      log_.debug("static ARP has no entry for ", next_hop.str(), "; dropping");
      return;
    }
    const bool already_resolving = arp_pending_.count(next_hop) > 0;
    arp_pending_[next_hop].emplace_back(iface, dgram);
    if (!already_resolving) {
      ArpPacket req;
      req.op = ArpOp::kRequest;
      req.sender_mac = nic.mac;
      req.sender_ip = nic.ip;
      req.target_ip = next_hop;
      nic.tx(EthernetFrame{nic.mac, MacAddress::broadcast(), EtherType::kArp,
                           req.encode()});
    }
    return;
  }

  nic.tx(EthernetFrame{nic.mac, mac_it->second, EtherType::kIpv4,
                       dgram.encode()});
}

void Host::send_frame_raw(std::size_t iface, const EthernetFrame& frame) {
  Interface& nic = ifaces_.at(iface);
  if (nic.tx) nic.tx(frame);
}

void Host::enable_forwarding(bool default_deny) {
  forwarding_ = true;
  forward_default_deny_ = default_deny;
}

void Host::handle_frame(std::size_t iface, const EthernetFrame& frame) {
  ++stats_.frames_rx;
  Interface& nic = ifaces_.at(iface);

  if (sniffer_ && (nic.promiscuous || frame.dst == nic.mac ||
                   frame.dst.is_broadcast())) {
    sniffer_(iface, frame);
  }

  const bool for_us = frame.dst == nic.mac || frame.dst.is_broadcast();
  if (!for_us && !nic.promiscuous) return;

  switch (frame.ethertype) {
    case EtherType::kArp: {
      if (const auto arp = ArpPacket::decode(frame.payload)) {
        handle_arp(iface, *arp);
      }
      break;
    }
    case EtherType::kIpv4: {
      if (!for_us) break;  // promiscuous sniffing never delivers upward
      if (const auto dgram = Datagram::decode(frame.payload)) {
        handle_datagram(iface, *dgram);
      }
      break;
    }
  }
}

void Host::handle_arp(std::size_t iface, const ArpPacket& arp) {
  Interface& nic = ifaces_[iface];
  if (arp.op == ArpOp::kRequest) {
    const bool mine = arp.target_ip == nic.ip;
    const bool other_local = !mine && is_local_ip(arp.target_ip);
    if (mine || (other_local && arp_any_local_)) {
      ArpPacket reply;
      reply.op = ArpOp::kReply;
      reply.sender_mac = nic.mac;
      reply.sender_ip = arp.target_ip;
      reply.target_mac = arp.sender_mac;
      reply.target_ip = arp.sender_ip;
      if (nic.tx) {
        nic.tx(EthernetFrame{nic.mac, arp.sender_mac, EtherType::kArp,
                             reply.encode()});
      }
    }
    // Opportunistically learn the requester (standard OS behaviour;
    // also a poisoning vector, which is the point).
    if (!static_arp_) arp_table_[arp.sender_ip] = arp.sender_mac;
    return;
  }

  // ARP reply (possibly gratuitous / forged).
  if (static_arp_) {
    ++stats_.arp_replies_ignored_static;
    return;
  }
  ++stats_.arp_replies_accepted;
  arp_table_[arp.sender_ip] = arp.sender_mac;

  const auto pending = arp_pending_.find(arp.sender_ip);
  if (pending != arp_pending_.end()) {
    auto queued = std::move(pending->second);
    arp_pending_.erase(pending);
    for (auto& [out_iface, dgram] : queued) {
      transmit_datagram(out_iface, arp.sender_ip, dgram);
    }
  }
}

void Host::handle_datagram(std::size_t iface, const Datagram& dgram) {
  if (!is_local_ip(dgram.dst_ip)) {
    if (interceptor_ && interceptor_(iface, dgram)) return;
    if (forwarding_) forward_datagram(dgram);
    return;
  }

  if (!firewall_.permits(Direction::kInbound, dgram.src_ip, dgram.dst_port,
                         dgram.src_port)) {
    ++stats_.dropped_firewall_in;
    return;
  }

  const auto handler = udp_handlers_.find(dgram.dst_port);
  if (handler == udp_handlers_.end()) {
    ++stats_.dropped_no_handler;
    return;
  }
  ++stats_.datagrams_delivered;
  handler->second(dgram);
}

void Host::forward_datagram(Datagram dgram) {
  if (dgram.ttl <= 1) return;
  dgram.ttl--;

  bool allowed = !forward_default_deny_;
  for (const auto& rule : forward_allow_) {
    if (rule.src_ip && *rule.src_ip != dgram.src_ip) continue;
    if (rule.dst_ip && *rule.dst_ip != dgram.dst_ip) continue;
    if (rule.dst_port && *rule.dst_port != dgram.dst_port) continue;
    allowed = true;
    break;
  }
  if (!allowed) {
    ++stats_.dropped_forward_acl;
    return;
  }

  // Longest-prefix match over static routes, then directly attached nets.
  std::optional<Route> best;
  for (const auto& route : routes_) {
    if (!dgram.dst_ip.same_subnet(route.prefix, route.prefix_len)) continue;
    if (!best || route.prefix_len > best->prefix_len) best = route;
  }
  std::size_t iface;
  IpAddress next_hop = dgram.dst_ip;
  if (best) {
    iface = best->out_interface;
    if (best->next_hop) next_hop = *best->next_hop;
  } else if (auto direct = interface_for(dgram.dst_ip)) {
    iface = *direct;
  } else {
    return;
  }
  ++stats_.forwarded;
  transmit_datagram(iface, next_hop, dgram);
}

}  // namespace spire::net
