// PLC proxy (paper §II): the only component that speaks Modbus to the
// field device, over a direct cable; everything else reaches the device
// through the proxy's authenticated SCADA-level interface.
//
// Duties:
//  * polls the PLC's discrete inputs and input registers every cycle
//    and submits a signed StatusReport to the replicated masters;
//  * collects replica-signed CommandOrders and forwards a supervisory
//    command to the PLC only after f+1 distinct replicas sent an
//    identical order (output voting).
// Each successful poll leaves as exactly one kStatusReport update; the
// admission front door and delta batching serve only the FleetProxy,
// which fronts many devices behind one client identity.
#pragma once

#include <memory>
#include <string>

#include "crypto/keyring.hpp"
#include "obs/metrics.hpp"
#include "scada/client.hpp"
#include "scada/field_client.hpp"
#include "scada/order_vote.hpp"
#include "scada/wire.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"

namespace spire::scada {

struct ProxyConfig {
  std::string identity;      ///< client identity, e.g. "client/proxy-phys"
  std::string device;        ///< device name it owns
  std::size_t breaker_count = 0;
  std::uint32_t f = 1;       ///< orders need f+1 matching replicas
  sim::Time poll_interval = 200 * sim::kMillisecond;
};

struct ProxyStats {
  std::uint64_t polls = 0;
  std::uint64_t poll_failures = 0;
  std::uint64_t reports_sent = 0;
  std::uint64_t orders_received = 0;
  std::uint64_t orders_rejected_sig = 0;
  std::uint64_t commands_forwarded = 0;
};

class PlcProxy {
 public:
  /// `field` is the protocol adapter over the direct cable to this
  /// proxy's device (Modbus PLC or DNP3 RTU); bytes received from the
  /// device must be fed to field().on_data.
  PlcProxy(sim::Simulator& sim, ProxyConfig config,
           const crypto::Keyring& keyring, crypto::Verifier replica_verifier,
           ScadaClient::SubmitFn submit, std::unique_ptr<FieldClient> field);

  void start();
  void stop() { running_ = false; }

  /// Feed for replica->proxy traffic from the external network.
  void on_master_output(std::span<const std::uint8_t> data);

  [[nodiscard]] FieldClient& field() { return *field_; }
  [[nodiscard]] const ProxyStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& device() const { return config_.device; }

 private:
  void poll_tick();
  void handle_order(const CommandOrder& order);

  sim::Simulator& sim_;
  ProxyConfig config_;
  util::Logger log_;
  crypto::Verifier replica_verifier_;
  ScadaClient client_;
  std::unique_ptr<FieldClient> field_;
  bool running_ = false;
  std::uint64_t next_report_seq_ = 1;
  OrderVote orders_;
  ProxyStats stats_;
  obs::Binder metrics_;  ///< exposes stats_ in the metrics registry
};

}  // namespace spire::scada
