// Workloads of the end-to-end benchmark: one SpireDeployment per
// process, driven only through its public API, with an open-loop
// request schedule generated from the benchmark seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "scada/deployment.hpp"
#include "spans.hpp"

namespace perfbench {

using spire::sim::Time;

/// Order-sensitive 64-bit hash step for schedule and run digests.
inline std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h * 0xBF58476D1CE4E5B9ull;
}

/// Display deadline of the paper's bounded-delay requirement.
constexpr Time kDisplayLimit = spire::sim::kSecond;

/// One open-loop request: flip (or command) one breaker at `due`.
struct Request {
  Time due = 0;
  std::uint32_t device = 0;  ///< index into the scenario's devices
  std::uint16_t breaker = 0;
  bool close = false;
};

/// One scheduled fault episode of the wan_faults workload. Targets are
/// resolved when the episode begins, from the deployment's public
/// state, so a leader partition always hits the acting leader.
struct Fault {
  enum class Kind { kLeaderPartition, kFollowerPartition, kLinkDegrade,
                    kSitePartition };
  Kind kind = Kind::kFollowerPartition;
  Time at = 0;
  Time duration = 0;
  std::uint32_t pick = 0;  ///< seeded choice among eligible targets
  double loss = 0;         ///< link degradation only
  Time jitter = 0;         ///< link degradation only
};

struct WorkloadSpec {
  spire::scada::DeploymentConfig config;
  bool operator_commands = false;  ///< requests via Hmi::command_breaker
  bool mana = false;               ///< MANA on the external switch tap
  bool recovery = false;           ///< proactive recovery every 15 s
  /// Fault episodes, repeated in this order one per 10 s slot; empty
  /// for a fault-free workload.
  std::vector<Fault::Kind> fault_cycle;
  /// Open-loop spacing of requests (one per gap, at a seeded offset).
  Time request_gap = 100 * spire::sim::kMillisecond;
  /// Simulated seconds measured per wall second of --seconds; fixes the
  /// measured window so a given seed always replays the same run.
  double sim_per_run_second = 1.0;
};

/// The benchmark workloads; throws std::invalid_argument on an unknown
/// name.
WorkloadSpec workload_spec(const std::string& name);

struct Schedule {
  std::vector<Request> requests;
  std::vector<Fault> faults;
  /// Order-sensitive hash of every generated input.
  [[nodiscard]] std::uint64_t digest() const;
};

/// Generates the open-loop inputs for a measured window [start, end).
/// One request falls due at a seeded offset inside each request gap;
/// no breaker is requested again within 3 s.
Schedule make_schedule(const WorkloadSpec& spec, std::uint64_t seed,
                       Time start, Time end);

/// Wall seconds of the set-up phases.
struct SetupTimes {
  double construct_s = 0;
  double warmup_s = 0;
  double mana_training_s = 0;
  [[nodiscard]] double total() const {
    return construct_s + warmup_s + mana_training_s;
  }
};

/// Everything one run measures. Simulated quantities are exact and
/// repeat bit-for-bit for a seed; host quantities do not.
struct RunResult {
  // --- simulated ---------------------------------------------------------
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< some HMI never reached the requested state
  std::uint64_t missed = 0;  ///< not displayed on every HMI within 1 s
  /// (request, HMI) pairs never answered by a display change, because a
  /// later request on the breaker replaced the state first or the HMI
  /// already showed it; each makes its request missed.
  std::uint64_t overtaken = 0;
  std::vector<Time> display_us;  ///< one per (request, HMI) display
  std::vector<Time> actuate_us;  ///< one per command that moved a breaker
  Time outage_us = 0;
  Time window_us = 0;
  std::uint64_t schedule_digest = 0;
  std::uint64_t setup_events = 0;  ///< kernel events before the window
  std::uint64_t events = 0;  ///< kernel events in the measured window
  std::uint64_t recoveries = 0;  ///< proactive recoveries completed
  /// Fault episodes skipped because they would have left more than
  /// f + k replicas disturbed.
  std::uint64_t faults_skipped = 0;
  /// Replicas down, recovering or out of the common view at the end of
  /// the window.
  std::uint64_t disturbed_at_end = 0;
  Time recovery_time_us = 0;     ///< summed takedown -> caught-up time
  // --- host --------------------------------------------------------------
  SetupTimes setup;
  double window_cpu_s = 0;
  double window_wall_s = 0;
  /// Host CPU and wall seconds of each run_until slice of the window,
  /// in order.
  std::vector<double> slice_cpu_s;
  std::vector<double> slice_wall_s;
  double peak_rss_mb = 0;
  // --- correctness gate --------------------------------------------------
  std::vector<std::string> violations;
};

/// Hooks into one run; all optional. The plain run only snapshots the
/// registry after the window; the traced run records spans and taps.
struct RunHooks {
  SpanRecorder* spans = nullptr;
  /// Called with the live deployment right before and right after the
  /// measured window.
  std::function<void(spire::scada::SpireDeployment&)> on_ready;
  std::function<void(spire::scada::SpireDeployment&)> on_window_end;
};

/// Builds, sets up, measures and checks one deployment. With
/// `setup_only` it returns right after set-up, with the set-up times and
/// the kernel events set-up executed.
RunResult run_workload(const WorkloadSpec& spec, std::uint64_t seed,
                       double run_seconds, const RunHooks& hooks = {},
                       bool setup_only = false);

}  // namespace perfbench
