// Experiment E6 — §V (power-plant continuous test deployment).
//
// "Spire and MANA were continuously deployed without interruption or
// adverse effects on the plant systems for six days", with six diverse
// replicas, proactive recovery, the real 3-breaker topology plus 16
// emulated PLCs, and HMIs in three plant locations.
//
// Time substitution (DESIGN.md §3): the six wall-clock days scale to
// five simulated minutes with proportionally scaled recovery periods —
// the system still crosses every recovery boundary many times, which is
// what the soak actually exercises. Measured invariants:
//   * zero missed breaker transitions on every HMI,
//   * the HMI version advances throughout (no blackout window),
//   * proactive recovery cycles through all replicas repeatedly,
//   * replica application states stay byte-identical.
//
// Options (fleet ones: DESIGN.md §8):
//   * --chaos, --chaos-seed=S  randomized partitions and link degrades.
//   * --fleet=F        stand up F independent plant deployments, each
//                      on its own simulator with its own metrics
//                      registry and tracer. Plant i's metrics and trace
//                      depend only on the seed and i: plant 0 matches
//                      the single-plant run byte for byte.
//   * --workers=N      run the fleet's plants on N threads (plant i on
//                      thread i % N). Output is identical at any N. A
//                      list (--workers=1,2,4) runs the soak once per
//                      worker count and records the scaling curve.
//   * --soak-minutes=M scale the soak length (shape gates scale too).
//   * --metrics-json=PATH, --trace-out=PATH  per-plant registry
//                      snapshot and JSONL spans (a fleet suffixes .i).
//   * --json=PATH      the bench report.
// The bench exits 1 when a shape gate fails or an output cannot be
// written.
#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scada/deployment.hpp"

using namespace spire;

namespace {

struct SoakOptions {
  bool chaos = false;
  std::uint64_t chaos_seed = 0xC7A05;
  unsigned workers = 1;
  std::size_t fleet = 1;
  sim::Time soak = 5 * sim::kMinute;
  std::string metrics_path;  ///< empty: no metrics snapshot
  std::string trace_path;    ///< empty: no trace
  bool banner = false;  // printed when scanning multiple worker counts
};

struct SoakResult {
  bool shape = true;
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t recoveries = 0;
  /// Output files the plants wrote, and whether each write succeeded.
  std::vector<std::pair<std::string, bool>> outputs;
};

// Per-HMI transition tracking against field ground truth.
using TransitionCounts = std::map<std::pair<std::string, std::size_t>, int>;

// Builds, soaks, reports (into `out`) and tears down plant `index` on
// its own simulator. Locals are declared in dependency order: reverse
// destruction tears the deployment down while the registry its Binders
// tombstone into — and the simulator under both — are still alive.
SoakResult run_plant(const SoakOptions& opt, std::size_t index,
                     std::FILE* out) {
  sim::Simulator sim;
  auto sim_time = [&sim] { return static_cast<std::uint64_t>(sim.now()); };

  scada::DeploymentConfig config;
  config.f = 1;
  config.k = 1;
  config.scenario = scada::ScenarioSpec::power_plant();
  config.cycler_interval = 1 * sim::kSecond;
  config.hmi_count = 3;  // three locations throughout the plant

  // Observability is always on for the soak: every component binds its
  // stats into this plant's registry and every update is traced
  // PLC→HMI. The scopes must open before the deployment is built
  // (registration happens in constructors).
  obs::ScopedRegistry registry_scope(sim_time);
  obs::ScopedTracer tracer_scope(sim_time);
  obs::Tracer& tracer = tracer_scope.tracer();
  scada::SpireDeployment spire_sys(sim, config);

  TransitionCounts field_transitions;
  std::vector<TransitionCounts> hmi_transitions(config.hmi_count);
  for (const auto& device : config.scenario.devices) {
    const std::string name = device.name;
    spire_sys.plc(name).breakers().add_observer(
        [&field_transitions, name](std::size_t i, bool, sim::Time) {
          field_transitions[{name, i}]++;
        });
  }
  for (std::size_t j = 0; j < config.hmi_count; ++j) {
    spire_sys.hmi(j).set_display_observer(
        [&hmi_transitions, j](const std::string& device, std::size_t i, bool,
                              sim::Time) { hmi_transitions[j][{device, i}]++; });
  }

  spire_sys.start();
  auto recovery_ptr = spire_sys.make_recovery(
      prime::RecoveryConfig{15 * sim::kSecond, 1 * sim::kSecond});
  prime::ProactiveRecovery& recovery = *recovery_ptr;

  sim.run_until(3 * sim::kSecond);
  recovery.start();

  // The soak: 5 simulated minutes standing in for 6 days (scaled by
  // --soak-minutes), sampled every 10 s to find the largest HMI
  // staleness window.
  const sim::Time soak = opt.soak;
  const sim::Time soak_end = sim.now() + soak;

  // Optional chaos: randomized partitions and link degradation layered
  // on top of the recovery cycle. Crash-restarts stay off so chaos plus
  // one in-flight rejuvenation stays within the f=1,k=1 envelope; the
  // schedule ends 30 s before the soak does, leaving the settle window
  // fault-free. Fleet instances perturb their seed by index so the
  // plants see distinct (still deterministic) fault schedules.
  std::unique_ptr<sim::ChaosInjector> chaos;
  if (opt.chaos) {
    chaos = spire_sys.make_chaos();
    chaos->add_random_schedule(
        sim::Rng(opt.chaos_seed + index), sim.now() + 10 * sim::kSecond,
        soak_end - 30 * sim::kSecond,
        /*mean_gap=*/20 * sim::kSecond,
        /*min_duration=*/2 * sim::kSecond,
        /*max_duration=*/6 * sim::kSecond, spire_sys.n(),
        /*include_crashes=*/false);
    chaos->arm();
    if (opt.fleet > 1) std::fprintf(out, "plant %zu ", index);
    std::fprintf(out, "chaos mode: %zu scheduled fault episodes (seed %llu)\n",
                 chaos->scheduled(),
                 static_cast<unsigned long long>(opt.chaos_seed + index));
  }

  sim::Time max_stale_window = 0;
  sim::Time stale_since = sim.now();
  std::uint64_t last_version = spire_sys.hmi(0).displayed_version();
  while (sim.now() < soak_end) {
    sim.run_until(sim.now() + 10 * sim::kSecond);
    const std::uint64_t v = spire_sys.hmi(0).displayed_version();
    if (v != last_version) {
      last_version = v;
      stale_since = sim.now();
    } else {
      max_stale_window = std::max(max_stale_window, sim.now() - stale_since);
    }
  }

  // Settle, then tally.
  spire_sys.cycler()->stop();
  if (chaos) chaos->stop();
  recovery.stop();
  sim.run_until(sim.now() + 8 * sim::kSecond);

  // Shape gates scale with the soak length; the constants reproduce the
  // legacy thresholds (recoveries >= 2n, field transitions > 200) at
  // the default 5-minute soak with n=6 and a 1 Hz cycler.
  const std::uint64_t soak_seconds = soak / sim::kSecond;
  const std::uint64_t min_recoveries =
      std::max<std::uint64_t>(2, soak_seconds / 15 * 3 / 5);
  const int min_field = static_cast<int>(soak_seconds * 2 / 3);

  if (opt.fleet > 1) std::fprintf(out, "\n--- plant instance %zu ---\n", index);

  int total_field = 0;
  std::vector<int> missed(config.hmi_count, 0);
  for (const auto& [key, count] : field_transitions) {
    total_field += count;
    for (std::size_t j = 0; j < config.hmi_count; ++j) {
      missed[j] += std::max(0, count - hmi_transitions[j][key]);
    }
  }

  // Replica state agreement at the end.
  std::map<crypto::Digest, int> digests;
  int live = 0;
  for (std::uint32_t r = 0; r < spire_sys.n(); ++r) {
    if (!spire_sys.replica(r).running() || spire_sys.replica(r).recovering()) {
      continue;
    }
    ++live;
    ++digests[spire_sys.master(r).state().digest()];
  }
  int max_agree = 0;
  for (const auto& [digest, count] : digests) {
    max_agree = std::max(max_agree, count);
  }

  bench::Table table({"metric", "measured", "paper expectation"});
  table.row({"soak length (simulated)",
             std::to_string(soak / sim::kMinute) + " min (scaled 6 days)",
             "6 days continuous"});
  table.row({"breaker transitions in the field", std::to_string(total_field),
             "continuous cycling workload"});
  for (std::size_t j = 0; j < config.hmi_count; ++j) {
    table.row({"HMI " + std::to_string(j) + " missed transitions",
               std::to_string(missed[j]), "0 (no interruption)"});
  }
  table.row({"largest HMI staleness window",
             std::to_string(max_stale_window / sim::kSecond) + " s",
             "none beyond normal update cadence"});
  table.row({"proactive recoveries completed",
             std::to_string(recovery.recoveries_completed()),
             "periodic rejuvenation of all replicas"});
  table.row({"in-flight recoveries high-water",
             std::to_string(recovery.stats().in_flight_high_water) + " (k=" +
                 std::to_string(config.k) + ")",
             "never exceeds k simultaneous"});
  table.row({"live replicas with byte-identical state",
             std::to_string(max_agree) + "/" + std::to_string(live),
             "all (consistent replication)"});
  // Trace completeness: every executed update must carry the full
  // ordered chain (submit → replica recv → PO-Request → Pre-Prepare →
  // Commit → execute, non-decreasing in time).
  const obs::Tracer::Completeness completeness = tracer.completeness();
  table.row({"updates executed (traced)",
             std::to_string(completeness.executed), "continuous ordering"});
  table.row({"… with complete ordered span chain",
             std::to_string(completeness.executed_complete) + "/" +
                 std::to_string(completeness.executed),
             "all (every stage observed, in order)"});
  table.row({"updates displayed on an HMI (traced)",
             std::to_string(completeness.displayed_complete) + "/" +
                 std::to_string(completeness.displayed) + " complete chains",
             "full PLC→HMI spans"});
  // Count by constituent device delta, not by ordered update: a
  // batched update that lost one of its member deltas would still
  // pass the per-update gates above.
  table.row({"device deltas with complete chains",
             std::to_string(completeness.deltas_complete) + "/" +
                 std::to_string(completeness.deltas_expected),
             "all (zero missed deltas)"});
  table.print(out);

  // Per-stage latency breakdown over every traced update (the paper's
  // Fig. 2 path, plus the two summary legs).
  std::fprintf(out, "\nPer-stage latency breakdown (%zu spans):\n",
               tracer.spans().size());
  bench::LatencyReporter stage_report;
  for (auto& leg : tracer.breakdown()) {
    if (!leg.samples_ms.empty()) {
      stage_report.add(leg.name, std::move(leg.samples_ms));
    }
  }
  stage_report.print("pipeline stage", out);

  SoakResult result;
  // A fleet suffixes each plant's output files with its index.
  const std::string suffix =
      opt.fleet == 1 ? std::string() : "." + std::to_string(index);
  if (!opt.metrics_path.empty()) {
    const std::string path = opt.metrics_path + suffix;
    result.outputs.emplace_back(
        path,
        bench::write_file(path, registry_scope.registry().snapshot_json()));
  }
  if (!opt.trace_path.empty()) {
    const std::string path = opt.trace_path + suffix;
    result.outputs.emplace_back(path, tracer.write_jsonl(path));
  }

  result.shape = recovery.recoveries_completed() >= min_recoveries &&
                 completeness.executed > 0 &&
                 completeness.executed_complete == completeness.executed &&
                 completeness.deltas_expected > 0 &&
                 completeness.deltas_complete == completeness.deltas_expected &&
                 completeness.displayed > 0 &&
                 recovery.stats().in_flight_high_water <= config.k &&
                 max_agree == live && live >= 5 && total_field > min_field &&
                 max_stale_window <= 20 * sim::kSecond;
  for (std::size_t j = 0; j < config.hmi_count; ++j) {
    result.shape = result.shape && missed[j] == 0;
  }
  std::fprintf(out, "\n");
  bench::print_overlay_stats("internal", spire_sys.internal_overlay(), out);
  bench::print_overlay_stats("external", spire_sys.external_overlay(), out);
  bench::print_recovery_stats("soak", recovery.stats(), out);
  if (chaos) {
    bench::print_chaos_stats(chaos->stats(), out);
    result.shape = result.shape && chaos->stats().injected > 0 &&
                   chaos->stats().healed >= chaos->stats().injected &&
                   !chaos->fault_active();
  }
  result.events = sim.events_executed();
  result.recoveries = recovery.recoveries_completed();
  return result;
}

SoakResult run_soak(const SoakOptions& opt) {
  if (opt.banner) {
    std::printf("\n=== soak run: workers=%u fleet=%zu ===\n", opt.workers,
                opt.fleet);
  }
  const auto wall_start = std::chrono::steady_clock::now();
  const std::vector<SoakResult> plants = bench::run_fleet(
      opt.fleet, opt.workers, [&opt](std::size_t i, std::FILE* out) {
        return run_plant(opt, i, out);
      });
  const auto wall_end = std::chrono::steady_clock::now();

  SoakResult result;
  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  for (const SoakResult& plant : plants) {
    result.shape = result.shape && plant.shape;
    result.events += plant.events;
    result.recoveries += plant.recoveries;
    result.outputs.insert(result.outputs.end(), plant.outputs.begin(),
                          plant.outputs.end());
  }
  std::printf("\nShape check vs paper: uninterrupted operation across the "
              "scaled soak, through %llu proactive recoveries, with all "
              "three HMIs tracking perfectly: %s\n",
              static_cast<unsigned long long>(result.recoveries),
              result.shape ? "HOLDS" : "VIOLATED");
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(
      argc, argv,
      {"--chaos", "--chaos-seed=SEED", "--workers=N[,N...]", "--fleet=N",
       "--soak-minutes=M", "--metrics-json=PATH", "--trace-out=PATH",
       "--json=PATH"});
  SoakOptions opt;
  opt.chaos = args.has("--chaos") || args.has("--chaos-seed");
  opt.chaos_seed = args.num("--chaos-seed", opt.chaos_seed);
  opt.fleet = std::max<std::uint64_t>(1, args.num("--fleet", 1));
  opt.soak = std::max<sim::Time>(
      sim::kMinute,
      static_cast<sim::Time>(args.num("--soak-minutes", 5)) * sim::kMinute);
  opt.metrics_path = args.str("--metrics-json", "");
  opt.trace_path = args.str("--trace-out", "");
  const std::vector<std::uint64_t> worker_counts = args.nums("--workers", 1);

  bench::print_header(
      "E6", "§V (six-day deployment)",
      "Spire runs continuously under workload with proactive recovery and "
      "three HMIs, with no interruption of SCADA service");
  bench::Report report(args, "bench_plant_soak");
  report.config("fleet", static_cast<double>(opt.fleet));
  report.config("soak_minutes", static_cast<double>(opt.soak / sim::kMinute));
  report.config("chaos", opt.chaos ? 1 : 0);

  double first_wall = 0;
  for (const std::uint64_t w : worker_counts) {
    SoakOptions run_opt = opt;
    run_opt.workers = static_cast<unsigned>(std::max<std::uint64_t>(1, w));
    run_opt.banner = worker_counts.size() > 1;
    const SoakResult r = run_soak(run_opt);
    for (const auto& [path, written] : r.outputs) report.output(path, written);
    if (first_wall == 0) first_wall = r.wall_seconds;
    report.run("workers_" + std::to_string(run_opt.workers));
    report.measured("wall_seconds", r.wall_seconds);
    report.measured("events", static_cast<double>(r.events));
    report.measured("events_per_sec",
                    r.wall_seconds > 0
                        ? static_cast<double>(r.events) / r.wall_seconds
                        : 0.0);
    report.measured("speedup_vs_first",
                    r.wall_seconds > 0 ? first_wall / r.wall_seconds : 0.0);
    report.measured("recoveries", static_cast<double>(r.recoveries));
    report.check("shape", r.shape);
  }
  report.run("");
  return report.finish();
}
