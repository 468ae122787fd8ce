// Output voting for supervisory commands (paper §II), shared by
// PlcProxy and FleetProxy: a proxy forwards a command only after f+1
// distinct replicas sent an identical CommandOrder for the same
// (issuer, command_id), and forwards each such command at most once.
#pragma once

#include <map>
#include <set>
#include <string>

#include "scada/wire.hpp"

namespace spire::scada {

class OrderVote {
 public:
  explicit OrderVote(std::uint32_t f) : f_(f) {}

  /// Records one signature-checked order. Returns true exactly once
  /// per (issuer, command_id): for the order that brings the replicas
  /// agreeing on its content to f+1.
  bool add(const CommandOrder& order) {
    const auto key = std::make_pair(order.issuer, order.command.command_id);
    if (executed_.count(key)) return false;

    auto& votes = votes_[key];
    const util::Bytes& content = votes[order.replica] = order.command.encode();

    // Count replicas that sent exactly this command content.
    std::uint32_t matching = 0;
    for (const auto& [replica, other] : votes) {
      if (other == content) ++matching;
    }
    if (matching < f_ + 1) return false;

    executed_.insert(key);
    votes_.erase(key);
    return true;
  }

 private:
  using Key = std::pair<std::string, std::uint64_t>;  ///< (issuer, command_id)

  std::uint32_t f_;
  /// Pending commands: replica -> the encoded command it ordered.
  std::map<Key, std::map<std::uint32_t, util::Bytes>> votes_;
  std::set<Key> executed_;
};

}  // namespace spire::scada
