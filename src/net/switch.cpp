#include "net/switch.hpp"

#include <cmath>

namespace spire::net {

Switch::Switch(sim::Simulator& sim, SwitchConfig config)
    : sim_(sim),
      config_(std::move(config)),
      log_("net.switch." + config_.name) {}

PortId Switch::add_port(std::function<void(const EthernetFrame&)> deliver) {
  ports_.push_back(Port{std::move(deliver), 0, 0});
  return ports_.size() - 1;
}

void Switch::bind_mac(const MacAddress& mac, PortId port) {
  static_table_[mac] = port;
}

void Switch::add_tap(std::string network_label, PcapSink sink) {
  taps_.push_back(
      Tap{NetworkLabels::instance().intern(network_label), std::move(sink)});
}

void Switch::add_capture_tap(CaptureTap* tap) {
  capture_taps_.push_back(tap);
}

void Switch::set_chaos(double loss, sim::Time max_jitter) {
  chaos_loss_ = loss;
  chaos_jitter_ = max_jitter;
}

void Switch::receive(PortId ingress, EthernetFrame frame) {
  // Mirror to taps first: a capture port sees traffic even if the
  // switch later drops it (that is what makes DoS visible to MANA).
  for (CaptureTap* tap : capture_taps_) tap->capture(sim_.now(), frame);
  for (const auto& tap : taps_) {
    tap.sink(PcapRecord{sim_.now(), tap.label, frame});
  }

  if (config_.static_port_binding) {
    const auto it = static_table_.find(frame.src);
    if (it == static_table_.end() || it->second != ingress) {
      ++stats_.frames_dropped_binding;
      log_.debug("dropped frame from ", frame.src.str(), " on port ", ingress,
                 " (static binding violation)");
      return;
    }
  } else {
    learned_table_[frame.src] = ingress;
  }

  const auto& table =
      config_.static_port_binding ? static_table_ : learned_table_;

  if (!frame.dst.is_broadcast()) {
    const auto it = table.find(frame.dst);
    if (it != table.end()) {
      if (it->second != ingress) emit(it->second, std::move(frame));
      return;
    }
    if (config_.static_port_binding) {
      // Unknown unicast is not flooded when bindings are static: the
      // operator enumerated every legitimate device.
      ++stats_.frames_dropped_binding;
      return;
    }
  }

  // Broadcast or unknown unicast: flood.
  ++stats_.frames_flooded;
  for (PortId p = 0; p < ports_.size(); ++p) {
    if (p != ingress) emit(p, frame);
  }
}

void Switch::emit(PortId port, EthernetFrame frame) {
  Port& p = ports_[port];
  if (chaos_loss_ > 0 && chaos_rng_.chance(chaos_loss_)) {
    ++stats_.frames_dropped_chaos;
    return;
  }
  if (p.queued >= config_.egress_queue_frames) {
    ++stats_.frames_dropped_queue;
    return;
  }
  ++stats_.frames_forwarded;
  ++p.queued;

  const sim::Time start = std::max(sim_.now(), p.busy_until);
  const auto serialization = static_cast<sim::Time>(
      std::ceil(static_cast<double>(frame.wire_size()) / config_.bytes_per_us));
  const sim::Time done = start + serialization;
  p.busy_until = done;

  sim_.schedule_at(done + config_.propagation_delay,
                   [this, port, frame = std::move(frame)] {
                     Port& out = ports_[port];
                     if (out.queued > 0) --out.queued;
                     if (out.deliver) out.deliver(frame);
                   });
}

}  // namespace spire::net
