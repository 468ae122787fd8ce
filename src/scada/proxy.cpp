#include "scada/proxy.hpp"

#include "prime/messages.hpp"

namespace spire::scada {

namespace {
/// How long a poll waits for the field device's reply.
constexpr sim::Time kModbusTimeout = 100 * sim::kMillisecond;
}  // namespace

PlcProxy::PlcProxy(sim::Simulator& sim, ProxyConfig config,
                   const crypto::Keyring& keyring,
                   crypto::Verifier replica_verifier,
                   ScadaClient::SubmitFn submit,
                   std::unique_ptr<FieldClient> field)
    : sim_(sim),
      config_(std::move(config)),
      log_("scada.proxy." + config_.device),
      replica_verifier_(std::move(replica_verifier)),
      client_(config_.identity, keyring, std::move(submit)),
      field_(std::move(field)),
      orders_(config_.f),
      metrics_("scada.proxy." + config_.device) {
  metrics_.counter("polls", &stats_.polls);
  metrics_.counter("poll_failures", &stats_.poll_failures);
  metrics_.counter("reports_sent", &stats_.reports_sent);
  metrics_.counter("orders_received", &stats_.orders_received);
  metrics_.counter("orders_rejected_sig", &stats_.orders_rejected_sig);
  metrics_.counter("commands_forwarded", &stats_.commands_forwarded);
}

void PlcProxy::start() {
  if (running_) return;
  running_ = true;
  // Stagger polls across devices (deterministically, by device name) so
  // seventeen proxies do not all hit the network in the same instant.
  const auto jitter = static_cast<sim::Time>(
      crypto::digest_prefix64(crypto::sha256(config_.device)) %
      config_.poll_interval);
  sim_.schedule_after(jitter, [this] { poll_tick(); });
}

void PlcProxy::poll_tick() {
  if (!running_) return;
  ++stats_.polls;

  field_->poll(
      [this](std::optional<FieldClient::FieldState> state) {
        if (!running_) return;
        if (!state) {
          ++stats_.poll_failures;
          return;
        }
        StatusReport report;
        report.device = config_.device;
        report.report_seq = next_report_seq_++;
        report.breakers = std::move(state->breakers);
        report.readings = std::move(state->readings);
        ++stats_.reports_sent;
        const std::uint64_t seq =
            client_.send(ScadaMsgType::kStatusReport, report.encode());
        if (auto* tracer = obs::Tracer::current()) {
          // Links any pending field-side breaker changes to this
          // report's span (the PLC→HMI end-to-end leg).
          tracer->proxy_report(config_.device, client_.identity(), seq,
                               report.breakers);
        }
      },
      kModbusTimeout);

  sim_.schedule_after(config_.poll_interval, [this] { poll_tick(); });
}

void PlcProxy::on_master_output(std::span<const std::uint8_t> data) {
  const auto output = MasterOutput::decode(data);
  if (!output || output->type != ScadaMsgType::kCommandOrder) return;
  const auto order = CommandOrder::decode(output->body);
  if (!order) return;
  handle_order(*order);
}

void PlcProxy::handle_order(const CommandOrder& order) {
  ++stats_.orders_received;
  const std::string identity = prime::replica_identity(order.replica);
  if (!order.verify(replica_verifier_, identity)) {
    ++stats_.orders_rejected_sig;
    return;
  }
  if (order.command.device != config_.device) return;

  if (!orders_.add(order)) return;

  ++stats_.commands_forwarded;
  log_.debug("forwarding command to field device: breaker ",
             order.command.breaker, " <- ",
             order.command.close ? "CLOSE" : "OPEN");
  field_->command(order.command.breaker, order.command.close);
}

}  // namespace spire::scada
