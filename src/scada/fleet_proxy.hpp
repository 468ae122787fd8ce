// Fleet proxy: one front door for thousands of field devices.
//
// The classic PlcProxy owns exactly one PLC over a direct cable — the
// right trust boundary for a substation, but one Prime client identity
// and one ordering round per device report does not scale to a
// fleet-wide deployment. The FleetProxy fronts many emulated
// PLCs/RTUs behind a single client identity: device deltas are pushed
// in (rather than polled), pass the same admission front door
// (token-bucket rate limit, shed watermark, hard queue bound with
// priority-aware shedding), and coalesce in the delta batcher so one
// signed ClientUpdate carries every device change that arrived inside
// the batch window. Supervisory commands still flow per device: the
// proxy collects replica-signed CommandOrders, votes f+1, and hands
// the command to the device's registered callback.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/keyring.hpp"
#include "obs/metrics.hpp"
#include "scada/client.hpp"
#include "scada/front_door.hpp"
#include "scada/order_vote.hpp"
#include "scada/wire.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"

namespace spire::scada {

struct FleetProxyConfig {
  std::string identity;  ///< client identity, e.g. "client/proxy-fleet0"
  std::uint32_t f = 1;   ///< orders need f+1 matching replicas
  FrontDoorConfig front_door;
  BatcherConfig batch;
};

struct FleetProxyStats {
  std::uint64_t deltas_offered = 0;  ///< ingest() calls (pre-admission)
  std::uint64_t reports_sent = 0;    ///< device reports that left the proxy
  std::uint64_t batches_sent = 0;    ///< kBatchReport updates submitted
  std::uint64_t orders_received = 0;
  std::uint64_t orders_rejected_sig = 0;
  std::uint64_t commands_forwarded = 0;
};

class FleetProxy {
 public:
  /// Called when f+1 replicas agree on a supervisory command for a
  /// registered device.
  using CommandFn = std::function<void(std::uint16_t breaker, bool close)>;

  FleetProxy(sim::Simulator& sim, FleetProxyConfig config,
             const crypto::Keyring& keyring, crypto::Verifier replica_verifier,
             ScadaClient::SubmitFn submit);

  /// Registers a fronted device; its per-device report sequence starts
  /// at 1. `on_command` may be empty for report-only devices.
  void register_device(const std::string& device, CommandFn on_command = {});

  /// Offers one device delta to the front door. Returns true if it was
  /// admitted into the batcher, false if it was shed.
  bool ingest(const std::string& device, std::vector<bool> breakers,
              std::vector<std::uint16_t> readings,
              DeltaPriority priority = DeltaPriority::kTelemetry);

  /// Flushes anything still coalescing; nothing admitted is dropped.
  void stop() { batcher_.stop(); }

  /// Feed for replica->proxy traffic from the external network.
  void on_master_output(std::span<const std::uint8_t> data);

  [[nodiscard]] const FleetProxyStats& stats() const { return stats_; }
  [[nodiscard]] const FrontDoorStats& front_door_stats() const {
    return door_.stats();
  }
  [[nodiscard]] const std::string& identity() const {
    return client_.identity();
  }
  [[nodiscard]] std::size_t device_count() const { return devices_.size(); }

 private:
  struct DeviceEntry {
    std::uint64_t next_seq = 1;
    CommandFn on_command;
  };

  void send_batch(std::vector<StatusReport>&& reports);
  void handle_order(const CommandOrder& order);

  sim::Simulator& sim_;
  FleetProxyConfig config_;
  util::Logger log_;
  crypto::Verifier replica_verifier_;
  ScadaClient client_;
  FrontDoor door_;
  DeltaBatcher batcher_;
  std::unordered_map<std::string, DeviceEntry> devices_;
  OrderVote orders_;
  FleetProxyStats stats_;
  obs::Binder metrics_;
  obs::Histogram* batch_fill_;  ///< reports per flushed batch
};

}  // namespace spire::scada
