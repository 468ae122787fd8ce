// Fleet-scale field layer bench (ISSUE: 10k devices, 1k HMIs).
//
// Custom pipeline — deliberately NOT SpireDeployment, which builds one
// emulated network host per PLC (right for a seventeen-device
// substation, hopeless at 10k devices):
//
//   EmulatedFleet → FleetProxy (front door + delta batcher, one Prime
//   client) → 4 Prime replicas on a LoopbackFabric, each hosting a
//   ScadaMaster over the sharded device image → N HMIs voting f+1 on
//   delta-first StateUpdates.
//
// The zero-missed-deltas gate is a conservation chain, not sampling:
//   fleet reports emitted == proxy deltas offered
//   == front-door admits (when no rate limit / shedding)
//   == device reports submitted (batcher stop() flushes the tail)
//   == constituent reports applied by every master
//   == tracer per-delta chains complete (deltas_complete == expected)
// plus every HMI's final displayed breaker image must equal the
// fleet's ground truth, device by device.
//
// Batching efficiency gate: constituent device deltas per ordered
// Prime update (master reports_applied / version) must be at least 3
// in every run, and every run's submit->display p99 at most 100 ms.
//
// --devices=1000,5000,10000 runs the scaling curve in one process and
// gates p99(last)/p99(first) ≤ 2 (flat within 2x).
//
// Chaos (--chaos): deterministic episodes that either mute one
// non-leader replica's client-facing output (HMIs must keep voting
// f+1 from the rest) or black out every delivery to one HMI (it must
// catch up via rate-limited resync once healed). Episodes end before
// the settle tail so the conservation gates are checked fault-free.
//
// --instances=F splits the devices and HMIs across F independent
// pipelines, each on its own simulator; --workers=N runs them on N
// threads (instance i on thread i % N) with identical output at any N.
// The bench exits 1 when any gate fails.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plc/fleet.hpp"
#include "prime/replica.hpp"
#include "prime/transport.hpp"
#include "scada/fleet_proxy.hpp"
#include "scada/hmi.hpp"
#include "scada/master.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace spire;

constexpr sim::Time kClientLatency = sim::kMillisecond;  ///< client<->replica
constexpr sim::Time kBatchWindow = 20 * sim::kMillisecond;

struct Options {
  std::size_t devices = 1000;   ///< total, split across instances
  std::size_t hmis = 50;        ///< total, split across instances
  std::size_t instances = 1;    ///< independent pipelines (one simulator each)
  unsigned workers = 1;
  sim::Time duration = 15 * sim::kSecond;
  sim::Time tail = 5 * sim::kSecond;  ///< fault-free settle after stop()
  bool chaos = false;
  std::uint64_t chaos_seed = 0x464c4545'54424348ULL;
  bool banner = false;
};

// One full pipeline on its own simulator, with its own observability
// scope. The simulator comes first and the scopes before the
// components, so reverse member destruction tears the pipeline down
// while the registry its Binders tombstone into is still alive.
struct Instance {
  sim::Simulator sim;
  std::unique_ptr<obs::ScopedRegistry> registry_scope;
  std::unique_ptr<obs::ScopedTracer> tracer_scope;
  std::unique_ptr<crypto::Keyring> keyring;
  std::unique_ptr<prime::LoopbackFabric> fabric;
  std::vector<std::unique_ptr<scada::ScadaMaster>> masters;
  std::vector<std::unique_ptr<prime::Replica>> replicas;
  std::unique_ptr<scada::FleetProxy> proxy;
  std::vector<std::unique_ptr<scada::Hmi>> hmis;
  std::unique_ptr<plc::EmulatedFleet> fleet;

  // Master broadcast loops hand the same util::Bytes to output_() once
  // per recipient; sharing one heap copy across the in-flight delivery
  // closures keeps a 1k-HMI publication from doing 1k payload copies.
  struct ShareCache {
    const util::Bytes* last_addr = nullptr;
    std::shared_ptr<const util::Bytes> cached;
    std::shared_ptr<const util::Bytes> share(const util::Bytes& data) {
      if (&data != last_addr || cached == nullptr || *cached != data) {
        cached = std::make_shared<const util::Bytes>(data);
        last_addr = &data;
      }
      return cached;
    }
  };
  std::vector<ShareCache> share;  ///< one per replica

  // Chaos state (read by the delivery router).
  int mute_replica = -1;  ///< outputs from this replica are dropped
  int mute_hmi = -1;      ///< deliveries to this HMI are dropped
  std::uint64_t chaos_episodes = 0;
  std::uint64_t outputs_dropped = 0;
};

// What one instance hands back to the main thread once it has been
// torn down: its gate rows, counters and latency samples.
struct InstanceReport {
  std::vector<std::vector<std::string>> rows;  ///< gate table rows
  bool shape = true;
  std::uint64_t reports_emitted = 0, reports_sent = 0, reports_shed = 0;
  std::uint64_t reports_applied = 0, versions = 0;  ///< master 0
  std::uint64_t deltas_complete = 0;
  std::uint64_t resyncs = 0, chaos_episodes = 0, outputs_dropped = 0;
  std::uint64_t batches_sent = 0;
  std::uint64_t events = 0;
  std::vector<double> e2e_ms;    ///< client submit -> f+1 HMI display
  std::vector<double> field_ms;  ///< field change -> f+1 HMI display
};

std::string hmi_identity(std::size_t j) {
  return "client/hmi-" + std::to_string(j);
}

constexpr std::uint32_t kF = 1;
constexpr std::uint32_t kN = 4;  // 3f+1, red-team style cluster

// Builds instance `i` (its share of the devices and HMIs) on its own
// simulator.
void build_instance(Instance& inst, const Options& opt, std::size_t i) {
  sim::Simulator& sim = inst.sim;
  auto sim_time = [&sim] { return static_cast<std::uint64_t>(sim.now()); };
  const std::size_t per_devices =
      std::max<std::size_t>(1, opt.devices / opt.instances);
  const std::size_t per_hmis = std::max<std::size_t>(1, opt.hmis / opt.instances);

  inst.registry_scope = std::make_unique<obs::ScopedRegistry>(sim_time);
  inst.tracer_scope = std::make_unique<obs::ScopedTracer>(sim_time);
  inst.keyring =
      std::make_unique<crypto::Keyring>("fleet-bench-" + std::to_string(i));

  prime::PrimeConfig pc;
  pc.f = kF;
  pc.k = 0;
  pc.client_identities.push_back("client/proxy-fleet");
  for (std::size_t j = 0; j < per_hmis; ++j) {
    pc.client_identities.push_back(hmi_identity(j));
  }

  crypto::Verifier replica_verifier;
  for (std::uint32_t r = 0; r < kN; ++r) {
    replica_verifier.add_identity(
        prime::replica_identity(r),
        inst.keyring->identity_key(prime::replica_identity(r)));
  }

  // client identity -> delivery target (-1 = fleet proxy, else HMI j).
  auto target_of = [](const std::string& client) -> int {
    if (client.rfind("client/hmi-", 0) == 0) {
      return std::atoi(client.c_str() + 11);
    }
    return -1;
  };

  inst.fabric = std::make_unique<prime::LoopbackFabric>(sim, kN);
  inst.share.resize(kN);
  sim::Rng rng(0x50524d'0 + i);
  for (std::uint32_t r = 0; r < kN; ++r) {
    scada::MasterConfig mc;
    mc.replica_id = r;
    mc.scenario = scada::ScenarioSpec::fleet(per_devices);
    for (std::size_t j = 0; j < per_hmis; ++j) {
      mc.hmis.push_back(hmi_identity(j));
    }
    auto output = [&inst, &sim, r, target_of](const std::string& client,
                                              const util::Bytes& data) {
      if (inst.mute_replica == static_cast<int>(r)) {
        ++inst.outputs_dropped;
        return;
      }
      const int target = target_of(client);
      if (target >= 0 && inst.mute_hmi == target) {
        ++inst.outputs_dropped;
        return;
      }
      auto shared = inst.share[r].share(data);
      sim.schedule_after(kClientLatency, [&inst, shared, target] {
        if (target < 0) {
          inst.proxy->on_master_output(*shared);
        } else if (static_cast<std::size_t>(target) < inst.hmis.size()) {
          inst.hmis[target]->on_master_output(*shared);
        }
      });
    };
    inst.masters.push_back(std::make_unique<scada::ScadaMaster>(
        std::move(mc), *inst.keyring, output));
    inst.replicas.push_back(std::make_unique<prime::Replica>(
        sim, r, pc, *inst.keyring, *inst.masters.back(),
        inst.fabric->transport_for(r), rng.fork()));
    prime::Replica* replica = inst.replicas.back().get();
    inst.fabric->attach(r, [replica](const util::Bytes& bytes) {
      replica->on_message(bytes);
    });
  }
  for (auto& r : inst.replicas) r->start();

  // Clients submit to every replica with one shared payload copy.
  auto submit = [&inst, &sim](const util::Bytes& envelope) {
    auto shared = std::make_shared<const util::Bytes>(envelope);
    for (std::size_t r = 0; r < inst.replicas.size(); ++r) {
      sim.schedule_after(kClientLatency, [&inst, shared, r] {
        inst.replicas[r]->on_message(*shared);
      });
    }
  };

  scada::FleetProxyConfig fpc;
  fpc.identity = "client/proxy-fleet";
  fpc.f = kF;
  fpc.batch.window = kBatchWindow;
  inst.proxy = std::make_unique<scada::FleetProxy>(
      sim, std::move(fpc), *inst.keyring, replica_verifier, submit);

  for (std::size_t j = 0; j < per_hmis; ++j) {
    scada::HmiConfig hc;
    hc.identity = hmi_identity(j);
    hc.f = kF;
    inst.hmis.push_back(std::make_unique<scada::Hmi>(
        sim, std::move(hc), *inst.keyring, replica_verifier, submit));
  }

  plc::FleetConfig fc;
  fc.devices = per_devices;
  fc.seed ^= i;  // distinct (still deterministic) workload per instance
  inst.fleet = std::make_unique<plc::EmulatedFleet>(
      sim, fc,
      [&inst](const std::string& device, std::vector<bool> breakers,
              std::vector<std::uint16_t> readings, bool critical) {
        inst.proxy->ingest(device, std::move(breakers), std::move(readings),
                           critical ? scada::DeltaPriority::kCritical
                                    : scada::DeltaPriority::kTelemetry);
      });
  for (std::size_t d = 0; d < inst.fleet->device_count(); ++d) {
    inst.proxy->register_device(inst.fleet->device_name(d));
  }
  inst.fleet->start();
}

// Chaos schedule: deterministic episodes, all healed before the settle
// tail so the conservation gates run fault-free.
void schedule_chaos(Instance& inst, const Options& opt, std::size_t i) {
  sim::Rng chaos_rng(opt.chaos_seed + i);
  sim::Time t = 2 * sim::kSecond;
  const sim::Time chaos_end =
      opt.duration > 6 * sim::kSecond ? opt.duration - 2 * sim::kSecond : 0;
  while (true) {
    t += chaos_rng.uniform(2, 4) * sim::kSecond;
    const sim::Time dur = chaos_rng.uniform(1, 2) * sim::kSecond;
    if (t + dur >= chaos_end) break;
    const bool mute_replica = chaos_rng.chance(0.5);
    // Non-leader replicas only: ordering liveness stays untouched,
    // output voting must absorb the silent replica.
    const int victim =
        mute_replica
            ? static_cast<int>(chaos_rng.uniform(1, kN - 1))
            : static_cast<int>(chaos_rng.uniform(0, inst.hmis.size() - 1));
    inst.sim.schedule_at(t, [&inst, mute_replica, victim] {
      ++inst.chaos_episodes;
      (mute_replica ? inst.mute_replica : inst.mute_hmi) = victim;
    });
    inst.sim.schedule_at(t + dur, [&inst, mute_replica] {
      (mute_replica ? inst.mute_replica : inst.mute_hmi) = -1;
    });
    t += dur;
  }
}

// Builds, runs and checks instance `i`, then tears it down.
InstanceReport run_instance(const Options& opt, std::size_t i) {
  Instance inst;
  build_instance(inst, opt, i);
  if (opt.chaos) schedule_chaos(inst, opt, i);

  sim::Simulator& sim = inst.sim;
  sim.run_until(opt.duration);
  // Stop the field layer and flush the batchers: nothing admitted may
  // be dropped (fleet_test covers the unit property; this is the
  // at-scale version of the same gate).
  inst.fleet->stop();
  inst.proxy->stop();
  sim.run_until(opt.duration + opt.tail);

  InstanceReport rep;
  rep.events = sim.events_executed();
  const auto& ps = inst.proxy->stats();
  const auto& door = inst.proxy->front_door_stats();
  const auto& fleet_stats = inst.fleet->stats();

  // --- conservation chain ---------------------------------------------
  const std::uint64_t admitted = door.admitted;  // includes criticals
  const std::uint64_t shed =
      door.shed_rate + door.shed_overload + door.shed_critical;
  const bool offered_ok = ps.deltas_offered == fleet_stats.reports_emitted;
  // The front door runs without a rate limit, so nothing may be shed.
  const bool door_ok = admitted + shed == ps.deltas_offered && shed == 0;
  const bool sent_ok = ps.reports_sent == admitted;
  bool applied_ok = true;
  for (const auto& master : inst.masters) {
    applied_ok = applied_ok && master->reports_applied() == ps.reports_sent;
  }
  const bool critical_ok = door.shed_critical == 0;

  rep.reports_emitted = fleet_stats.reports_emitted;
  rep.reports_sent = ps.reports_sent;
  rep.reports_shed = shed;
  rep.reports_applied = inst.masters[0]->reports_applied();
  rep.versions = inst.masters[0]->version();
  rep.chaos_episodes = inst.chaos_episodes;
  rep.outputs_dropped = inst.outputs_dropped;
  rep.batches_sent = ps.batches_sent;
  for (const auto& hmi : inst.hmis) {
    rep.resyncs += hmi->stats().resyncs_requested;
  }

  // --- per-delta trace completeness -----------------------------------
  const obs::Tracer& tracer = inst.tracer_scope->tracer();
  const auto completeness = tracer.completeness();
  rep.deltas_complete = completeness.deltas_complete;
  const bool chains_ok =
      completeness.deltas_expected > 0 &&
      completeness.deltas_complete == completeness.deltas_expected &&
      completeness.executed_complete == completeness.executed;

  // --- every HMI displays the fleet's ground truth --------------------
  bool display_ok = true;
  for (const auto& hmi : inst.hmis) {
    std::size_t idx = 0;
    bool ok = true;
    hmi->display().for_each(
        [&](const std::string&, const scada::DeviceState& st) {
          // Registration order is fd0..fdN-1, same as fleet indices.
          ok = ok && idx < inst.fleet->device_count() &&
               st.breakers == inst.fleet->breakers(idx);
          ++idx;
        });
    display_ok = display_ok && ok && idx == inst.fleet->device_count();
  }

  if (opt.instances > 1) {
    rep.rows.push_back({"instance " + std::to_string(i), "", "", ""});
  }
  auto gate = [&rep](const char* name, const std::string& value,
                     const char* expect, bool ok) {
    rep.rows.push_back({name, value, expect, ok ? "yes" : "NO"});
    rep.shape = rep.shape && ok;
  };
  gate("fleet reports offered",
       std::to_string(ps.deltas_offered) + "/" +
           std::to_string(fleet_stats.reports_emitted),
       "all emitted reach the door", offered_ok);
  gate("front door accounting",
       std::to_string(admitted) + "+" + std::to_string(shed),
       "admitted+shed == offered", door_ok);
  gate("critical never shed", std::to_string(door.shed_critical), "0",
       critical_ok);
  gate("batcher conservation", std::to_string(ps.reports_sent),
       "sent == admitted after stop()", sent_ok);
  gate("masters applied", std::to_string(inst.masters[0]->reports_applied()),
       "every master applies every report", applied_ok);
  gate("per-delta chains",
       std::to_string(completeness.deltas_complete) + "/" +
           std::to_string(completeness.deltas_expected),
       "all complete", chains_ok);
  gate("HMI displays == ground truth",
       std::to_string(inst.hmis.size()) + " HMIs", "byte-equal breakers",
       display_ok);

  // --- latency samples ------------------------------------------------
  for (const auto& span : tracer.spans()) {
    if (span.parent != obs::Span::kNoParent) {
      // Member = one device delta inside a batch: field latency.
      if (span.has(obs::Stage::kPlcChange) &&
          span.has(obs::Stage::kHmiDisplay)) {
        rep.field_ms.push_back(static_cast<double>(
                                   span.time(obs::Stage::kHmiDisplay) -
                                   span.time(obs::Stage::kPlcChange)) /
                               1000.0);
      }
      continue;
    }
    if (span.has(obs::Stage::kSubmit) && span.has(obs::Stage::kHmiDisplay)) {
      rep.e2e_ms.push_back(static_cast<double>(
                               span.time(obs::Stage::kHmiDisplay) -
                               span.time(obs::Stage::kSubmit)) /
                           1000.0);
    }
  }
  return rep;
}

// Runs one fleet size and gates it in `report` under the label
// devices_<N>; returns its submit->display p99.
double run_fleet(const Options& opt, bench::Report& report) {
  if (opt.banner) {
    std::printf("\n=== fleet run: devices=%zu hmis=%zu instances=%zu "
                "workers=%u window=%llums chaos=%d ===\n",
                opt.devices, opt.hmis, opt.instances, opt.workers,
                static_cast<unsigned long long>(kBatchWindow /
                                                sim::kMillisecond),
                opt.chaos ? 1 : 0);
  }
  const auto wall_start = std::chrono::steady_clock::now();
  const std::vector<InstanceReport> reports = bench::run_fleet(
      opt.instances, opt.workers,
      [&opt](std::size_t i, std::FILE*) { return run_instance(opt, i); });
  const auto wall_end = std::chrono::steady_clock::now();
  const double wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();

  bench::Table table({"gate", "value", "expectation", "ok"});
  bool shape = true;
  std::vector<double> e2e_ms;
  std::vector<double> field_ms;
  std::uint64_t reports_emitted = 0, reports_sent = 0, reports_shed = 0;
  std::uint64_t deltas_complete = 0, resyncs = 0, chaos_episodes = 0;
  std::uint64_t events = 0, reports_applied_total = 0, versions_total = 0;
  std::uint64_t batches = 0, outputs_dropped = 0;
  for (const InstanceReport& rep : reports) {
    for (const auto& row : rep.rows) table.row(row);
    shape = shape && rep.shape;
    reports_emitted += rep.reports_emitted;
    reports_sent += rep.reports_sent;
    reports_shed += rep.reports_shed;
    deltas_complete += rep.deltas_complete;
    resyncs += rep.resyncs;
    chaos_episodes += rep.chaos_episodes;
    events += rep.events;
    reports_applied_total += rep.reports_applied;
    versions_total += rep.versions;
    batches += rep.batches_sent;
    outputs_dropped += rep.outputs_dropped;
    e2e_ms.insert(e2e_ms.end(), rep.e2e_ms.begin(), rep.e2e_ms.end());
    field_ms.insert(field_ms.end(), rep.field_ms.begin(), rep.field_ms.end());
  }
  table.print();

  bench::LatencyReporter latency;
  const bench::LatencyStats e2e =
      latency.add("update submit->f+1 display", e2e_ms);
  latency.add("field delta->f+1 display", field_ms);
  latency.print("fleet latency");

  std::printf("fleet: %llu reports emitted, %llu shed, %llu batches, "
              "%llu chaos episodes (%llu outputs muted), %llu resyncs\n",
              static_cast<unsigned long long>(reports_emitted),
              static_cast<unsigned long long>(reports_shed),
              static_cast<unsigned long long>(batches),
              static_cast<unsigned long long>(chaos_episodes),
              static_cast<unsigned long long>(outputs_dropped),
              static_cast<unsigned long long>(resyncs));

  report.run("devices_" + std::to_string(opt.devices));
  report.measured("p50_ms", e2e.median_ms);
  report.measured("samples", static_cast<double>(e2e.samples));
  report.measured("reports", static_cast<double>(reports_sent));
  report.measured("shed", static_cast<double>(reports_shed));
  report.measured("deltas_complete", static_cast<double>(deltas_complete));
  report.measured("resyncs", static_cast<double>(resyncs));
  report.measured("chaos_episodes", static_cast<double>(chaos_episodes));
  report.measured("events_per_sec",
                  wall_seconds > 0 ? static_cast<double>(events) / wall_seconds
                                   : 0.0);
  report.measured("wall_seconds", wall_seconds);
  report.check("conservation", shape);
  // Batching efficiency: device deltas per ordered Prime update.
  report.at_least("batch_ratio",
                  versions_total > 0
                      ? static_cast<double>(reports_applied_total) /
                            static_cast<double>(versions_total)
                      : 0.0,
                  3.0);
  report.at_most("p99_ms", e2e.p99_ms, 100.0);
  report.run("");
  return e2e.p99_ms;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(
      argc, argv,
      {"--devices=N[,N...]", "--hmis=N", "--instances=N", "--workers=N",
       "--duration-seconds=S", "--chaos", "--chaos-seed=SEED", "--json=PATH"});
  Options opt;
  opt.hmis = args.num("--hmis", 50);
  opt.instances = std::max<std::uint64_t>(1, args.num("--instances", 1));
  opt.workers =
      static_cast<unsigned>(std::max<std::uint64_t>(1, args.num("--workers", 1)));
  opt.duration =
      static_cast<sim::Time>(args.num("--duration-seconds", 15)) * sim::kSecond;
  opt.chaos = args.has("--chaos") || args.has("--chaos-seed");
  opt.chaos_seed = args.num("--chaos-seed", opt.chaos_seed);
  // Several device counts (e.g. 1000,5000,10000) sweep the scaling
  // curve with the same HMI count and duration, and gate p99 flatness.
  const std::vector<std::uint64_t> curve = args.nums("--devices", 1000);

  bench::print_header(
      "F1", "fleet-scale field layer (DESIGN.md §9)",
      "Sharded device image + delta batching + proxy front door sustain "
      "10k devices and 1k HMIs with zero missed deltas and flat p99");
  bench::Report report(args, "bench_fleet_field");
  report.config("hmis", static_cast<double>(opt.hmis));
  report.config("instances", static_cast<double>(opt.instances));
  report.config("duration_seconds",
                static_cast<double>(opt.duration / sim::kSecond));
  report.config("chaos", opt.chaos ? 1 : 0);

  std::vector<double> p99s;
  for (const std::uint64_t devices : curve) {
    Options run_opt = opt;
    run_opt.devices = devices;
    run_opt.banner = curve.size() > 1;
    p99s.push_back(run_fleet(run_opt, report));
  }

  if (p99s.size() > 1 && p99s.front() > 0) {
    std::printf("\np99 scaling %llu->%llu devices: %.1f ms -> %.1f ms\n",
                static_cast<unsigned long long>(curve.front()),
                static_cast<unsigned long long>(curve.back()), p99s.front(),
                p99s.back());
    report.at_most("p99_ratio", p99s.back() / p99s.front(), 2.0);
  }

  std::printf("\nShape check: fleet-scale field layer with zero missed "
              "deltas: %s\n", report.pass() ? "HOLDS" : "VIOLATED");
  return report.finish();
}
