#include "net/network.hpp"

#include <stdexcept>

namespace spire::net {

Host& Network::add_host(std::string name) {
  hosts_.push_back(std::make_unique<Host>(sim_, std::move(name)));
  return *hosts_.back();
}

Switch& Network::add_switch(SwitchConfig config) {
  switches_.push_back(std::make_unique<Switch>(sim_, std::move(config)));
  return *switches_.back();
}

PortId Network::connect(Host& host, std::size_t iface, Switch& sw) {
  const PortId port = sw.add_port(
      [&host, iface](const EthernetFrame& frame) { host.handle_frame(iface, frame); });
  host.set_transmit(iface, [&sw, port](EthernetFrame frame) {
    sw.receive(port, std::move(frame));
  });
  if (sw.config().static_port_binding) {
    sw.bind_mac(host.mac(iface), port);
  }
  return port;
}

void Network::cable(Host& a, std::size_t iface_a, Host& b, std::size_t iface_b,
                    sim::Time latency) {
  sim::Simulator& sim = sim_;
  a.set_transmit(iface_a, [&sim, &b, iface_b, latency](EthernetFrame f) {
    sim.schedule_after(latency, [&b, iface_b, f = std::move(f)] {
      b.handle_frame(iface_b, f);
    });
  });
  b.set_transmit(iface_b, [&sim, &a, iface_a, latency](EthernetFrame f) {
    sim.schedule_after(latency, [&a, iface_a, f = std::move(f)] {
      a.handle_frame(iface_a, f);
    });
  });
}

Host& Network::host(std::string_view name) {
  for (const auto& h : hosts_) {
    if (h->name() == name) return *h;
  }
  throw std::out_of_range("no such host: " + std::string(name));
}

}  // namespace spire::net
