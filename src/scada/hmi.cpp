#include "scada/hmi.hpp"

#include "prime/messages.hpp"

namespace spire::scada {

namespace {
/// Minimum spacing between ResyncRequests (masters answer each one with
/// a full snapshot — keep a confused HMI from flooding them).
constexpr sim::Time kResyncMinInterval = sim::kSecond;
}  // namespace

Hmi::Hmi(sim::Simulator& sim, HmiConfig config, const crypto::Keyring& keyring,
         crypto::Verifier replica_verifier, ScadaClient::SubmitFn submit)
    : sim_(sim),
      config_(std::move(config)),
      log_("scada.hmi." + config_.identity),
      replica_verifier_(std::move(replica_verifier)),
      client_(config_.identity, keyring, std::move(submit)),
      metrics_("scada.hmi." + config_.identity) {
  metrics_.counter("updates_received", &stats_.updates_received);
  metrics_.counter("updates_rejected_sig", &stats_.updates_rejected_sig);
  metrics_.counter("versions_displayed", &stats_.versions_displayed);
  metrics_.counter("deltas_applied", &stats_.deltas_applied);
  metrics_.counter("resyncs_requested", &stats_.resyncs_requested);
  metrics_.counter("commands_issued", &stats_.commands_issued);
}

void Hmi::on_master_output(std::span<const std::uint8_t> data) {
  const auto output = MasterOutput::decode(data);
  if (!output || output->type != ScadaMsgType::kStateUpdate) return;
  const auto update = StateUpdate::decode(output->body);
  if (!update) return;

  ++stats_.updates_received;
  const std::string identity = prime::replica_identity(update->replica);
  if (!update->verify(replica_verifier_, identity)) {
    ++stats_.updates_rejected_sig;
    return;
  }
  if (auto* tracer = obs::Tracer::current()) {
    tracer->hmi_recv(update->version);
  }
  if (update->version <= version_) return;

  // The vote digest covers kind and base_version along with the state
  // bytes, so f+1 agreement is agreement on the whole update content.
  util::ByteWriter key;
  key.u8(update->kind);
  key.u64(update->base_version);
  key.blob(update->state);
  const crypto::Digest digest = crypto::sha256(key.take());

  Vote& vote = votes_[update->version][digest];
  if (vote.replicas.empty()) {
    vote.kind = update->kind;
    vote.base_version = update->base_version;
    vote.state = update->state;
  }
  vote.replicas.insert(update->replica);

  if (votes_.size() > kMaxPendingVotes) {
    // Far behind the stream; stop buffering and ask for a snapshot.
    votes_.erase(votes_.begin());
    request_resync();
  }
  try_adopt();
}

void Hmi::try_adopt() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = votes_.begin(); it != votes_.end();) {
      if (it->first <= version_) {
        it = votes_.erase(it);
        continue;
      }
      bool adopted = false;
      for (const auto& [digest, vote] : it->second) {
        if (vote.replicas.size() < config_.f + 1) continue;
        if (vote.kind == StateUpdate::kFull) {
          try {
            adopt_full(it->first, TopologyState::deserialize(vote.state));
            adopted = true;
          } catch (const util::SerializationError&) {
          }
        } else if (vote.base_version <= version_ && version_ > 0) {
          adopted = adopt_delta(it->first, vote.state);
          if (!adopted) request_resync();
        } else {
          // Missed the delta's base publication; keep the vote — it
          // may become applicable once a resync snapshot lands.
          request_resync();
        }
        if (adopted) break;
      }
      if (adopted) {
        // version_ advanced: restart the scan, earlier buckets prune
        // and later deltas may have become applicable.
        progress = true;
        break;
      }
      ++it;
    }
  }
}

void Hmi::adopt_full(std::uint64_t version, const TopologyState& state) {
  // Detect per-breaker display changes (screen redraw events).
  state.for_each([&](const std::string& device, const DeviceState& new_state) {
    const DeviceState* old_state = display_.device(device);
    for (std::size_t i = 0; i < new_state.breakers.size(); ++i) {
      const bool was =
          old_state && i < old_state->breakers.size() && old_state->breakers[i];
      const bool now = new_state.breakers[i];
      if (was != now) {
        last_change_ = sim_.now();
        for (const auto& observer : observers_) {
          observer(device, i, now, sim_.now());
        }
      }
    }
  });
  display_ = state;
  finish_adopt(version);
}

bool Hmi::adopt_delta(std::uint64_t version, const util::Bytes& payload) {
  try {
    display_.apply_delta(
        payload,
        [&](std::uint32_t handle, std::size_t breaker, bool closed) {
          last_change_ = sim_.now();
          const std::string& device = display_.name(handle);
          for (const auto& observer : observers_) {
            observer(device, breaker, closed, sim_.now());
          }
        });
  } catch (const util::SerializationError&) {
    // Delta references a device our image does not have — the base
    // snapshot is stale or missing. The caller requests a resync.
    return false;
  }
  ++stats_.deltas_applied;
  finish_adopt(version);
  return true;
}

void Hmi::finish_adopt(std::uint64_t version) {
  version_ = version;
  ++stats_.versions_displayed;
  if (auto* tracer = obs::Tracer::current()) {
    tracer->hmi_display(version);
  }
}

void Hmi::request_resync() {
  const sim::Time now = sim_.now();
  if (resync_requested_ && now < last_resync_ + kResyncMinInterval) {
    return;
  }
  resync_requested_ = true;
  last_resync_ = now;
  ++stats_.resyncs_requested;
  ResyncRequest request;
  request.displayed_version = version_;
  client_.send(ScadaMsgType::kResyncRequest, request.encode());
}

void Hmi::reset_display() {
  display_ = TopologyState{};
  version_ = 0;
  votes_.clear();
  resync_requested_ = false;
  last_resync_ = 0;
}

std::uint64_t Hmi::command_breaker(const std::string& device,
                                   std::uint16_t breaker, bool close) {
  SupervisoryCommand command;
  command.device = device;
  command.breaker = breaker;
  command.close = close;
  command.command_id = next_command_id_++;
  ++stats_.commands_issued;
  client_.send(ScadaMsgType::kSupervisoryCommand, command.encode());
  return command.command_id;
}

}  // namespace spire::scada
