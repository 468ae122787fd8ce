// Modbus data model: the four standard register banks of a field
// device. The PLC's process image (breaker positions, measurements)
// lives here; the Modbus server executes requests against it.
#pragma once

#include <cstdint>
#include <vector>

#include "modbus/pdu.hpp"

namespace spire::modbus {

class DataModel {
 public:
  DataModel(std::size_t coils, std::size_t discrete_inputs,
            std::size_t holding_registers, std::size_t input_registers);

  // Direct accessors used by the PLC scan logic (bounds-checked).
  [[nodiscard]] bool coil(std::size_t addr) const { return coils_.at(addr); }
  void set_coil(std::size_t addr, bool v) { coils_.at(addr) = v; }
  void set_discrete_input(std::size_t addr, bool v) {
    discrete_inputs_.at(addr) = v;
  }
  [[nodiscard]] std::uint16_t holding_register(std::size_t addr) const {
    return holding_.at(addr);
  }
  [[nodiscard]] std::uint16_t input_register(std::size_t addr) const {
    return input_.at(addr);
  }
  void set_input_register(std::size_t addr, std::uint16_t v) {
    input_.at(addr) = v;
  }

  /// Executes a decoded request against the model, honouring Modbus
  /// addressing/exception semantics.
  [[nodiscard]] Response execute(const Request& request);

 private:
  std::vector<bool> coils_;
  std::vector<bool> discrete_inputs_;
  std::vector<std::uint16_t> holding_;
  std::vector<std::uint16_t> input_;
};

}  // namespace spire::modbus
