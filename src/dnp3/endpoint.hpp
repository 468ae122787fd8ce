// DNP3 outstation (RTU side) and master (proxy side) endpoints,
// transport-agnostic like their Modbus counterparts: callers provide a
// send function and feed received bytes in.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dnp3/app.hpp"
#include "dnp3/framing.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"

namespace spire::dnp3 {

/// Conventional DNP3 port.
constexpr std::uint16_t kDnp3Port = 20000;

/// The outstation's live point database (owned by the RTU device).
struct PointDatabase {
  std::vector<BinaryPoint> binary_inputs;
  std::vector<BinaryPoint> binary_output_status;
  std::vector<AnalogPoint> analog_inputs;
};

class Outstation {
 public:
  /// `on_operate` executes a CROB against the field hardware; it
  /// returns the DNP3 status code (0 = success, 4 = not supported).
  using OperateFn = std::function<std::uint8_t(std::uint16_t index, bool close)>;

  Outstation(std::uint16_t address, PointDatabase& points, OperateFn on_operate)
      : address_(address), points_(points), on_operate_(std::move(on_operate)) {}

  /// Handles one wire datagram; returns the response datagram, or
  /// nullopt for frames that are corrupt or not addressed to us.
  [[nodiscard]] std::optional<util::Bytes> handle(
      std::span<const std::uint8_t> data);

  [[nodiscard]] std::uint64_t requests_served() const { return served_; }

 private:
  std::uint16_t address_;
  PointDatabase& points_;
  OperateFn on_operate_;
  bool restarted_ = true;
  std::uint64_t served_ = 0;
};

class Master {
 public:
  using SendFn = std::function<void(const util::Bytes&)>;
  using ResponseHandler = std::function<void(std::optional<AppResponse>)>;

  Master(sim::Simulator& sim, std::string name, std::uint16_t master_address,
         std::uint16_t outstation_address, SendFn send);

  /// Class-0 integrity poll: returns the whole point database.
  void integrity_poll(ResponseHandler handler,
                      sim::Time timeout = 200 * sim::kMillisecond);

  /// CROB latch on/off against one output point.
  void direct_operate(std::uint16_t index, bool close, ResponseHandler handler,
                      sim::Time timeout = 200 * sim::kMillisecond);

  void on_data(std::span<const std::uint8_t> data);

  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }

 private:
  void send_request(AppRequest request, ResponseHandler handler,
                    sim::Time timeout);

  sim::Simulator& sim_;
  util::Logger log_;
  std::uint16_t master_address_;
  std::uint16_t outstation_address_;
  SendFn send_;
  std::uint8_t next_app_seq_ = 0;
  std::uint8_t next_transport_seq_ = 0;
  struct Pending {
    ResponseHandler handler;
    sim::EventId timeout_event = 0;
  };
  std::map<std::uint8_t, Pending> pending_;  ///< by app sequence
  std::uint64_t timeouts_ = 0;
};

}  // namespace spire::dnp3
