#include "workload.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "mana/mana.hpp"
#include "prime/recovery.hpp"
#include "sim/chaos.hpp"
#include "sim/rng.hpp"

namespace perfbench {

namespace sim = spire::sim;
namespace scada = spire::scada;

namespace {

constexpr Time kBreakerCooldown = 5 * sim::kSecond;
constexpr Time kOvertaken = sim::kNever - 1;  // answer slot: never shown
constexpr Time kWarmup = 3 * sim::kSecond;
constexpr Time kManaTraining = 10 * sim::kSecond;
constexpr Time kSlice = 100 * sim::kMillisecond;  // run_until / poll step
constexpr Time kQuiesce = 6 * sim::kSecond;
constexpr Time kRecoveryPeriod = 15 * sim::kSecond;
constexpr Time kRecoveryDowntime = 1 * sim::kSecond;
constexpr Time kFaultLead = 5 * sim::kSecond;   // clean start of the window
constexpr Time kFaultTail = 8 * sim::kSecond;   // clean end of the window
constexpr Time kFaultSlot = 10 * sim::kSecond;  // one episode per slot
constexpr Time kFaultDuration = 4 * sim::kSecond;

/// Replicas that are down, recovering, or in another view than the one
/// most running replicas share (ties go to the newer view).
std::vector<bool> disturbed_replicas(scada::SpireDeployment& sys) {
  std::map<std::uint64_t, std::uint32_t> members;
  for (std::uint32_t r = 0; r < sys.n(); ++r) {
    if (sys.replica(r).running()) ++members[sys.replica(r).view()];
  }
  std::uint64_t view = 0;
  std::uint32_t most = 0;
  for (const auto& [v, count] : members) {
    if (count >= most) {
      view = v;
      most = count;
    }
  }
  std::vector<bool> out(sys.n());
  for (std::uint32_t r = 0; r < sys.n(); ++r) {
    const auto& replica = sys.replica(r);
    out[r] = !replica.running() || replica.recovering() || replica.view() != view;
  }
  return out;
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(wall_ns() - start_ns) / 1e9;
}

}  // namespace

WorkloadSpec workload_spec(const std::string& name) {
  WorkloadSpec spec;
  scada::DeploymentConfig& c = spec.config;
  c.f = 1;
  c.cycler_interval = 0;
  if (name == "plant") {
    c.k = 1;
    c.scenario = scada::ScenarioSpec::power_plant();
    c.hmi_count = 3;
    spec.mana = true;
    spec.recovery = true;
    spec.sim_per_run_second = 3.0;
  } else if (name == "fleet_commands") {
    c.k = 0;
    c.scenario = scada::ScenarioSpec::fleet(100, 2);
    c.hmi_count = 1;
    spec.operator_commands = true;
    // 30 commands/s: enough (request, HMI) samples for a p99 with ten
    // samples beyond it in a window the host can run in seconds.
    spec.request_gap = sim::kSecond / 30;
    spec.sim_per_run_second = 2.2;
  } else if (name == "wan_faults" || name == "wan_partitions") {
    c.k = 1;
    c.sites = scada::SiteTopology::two_cc_two_dc(20 * sim::kMillisecond);
    c.scenario = scada::ScenarioSpec::power_plant();
    c.hmi_count = 3;
    spec.recovery = true;
    spec.sim_per_run_second = 3.75;
    using K = Fault::Kind;
    if (name == "wan_faults") {
      // Link degradation and whole-site cuts and heals.
      spec.fault_cycle = {K::kLinkDegrade, K::kSitePartition};
    } else {
      // Adds replica partitions, the acting leader's among them. Not a
      // benchmark workload: on some seeds the deployment loses field
      // updates for good under it (see perfbench/README.md).
      spec.fault_cycle = {K::kLinkDegrade,       K::kFollowerPartition,
                          K::kLeaderPartition,   K::kLinkDegrade,
                          K::kFollowerPartition, K::kSitePartition};
    }
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return spec;
}

std::uint64_t Schedule::digest() const {
  std::uint64_t h = 0x5350495245ull;
  for (const Request& r : requests) {
    h = mix64(h, r.due);
    h = mix64(h, (std::uint64_t{r.device} << 17) | (std::uint64_t{r.breaker} << 1) |
                   (r.close ? 1 : 0));
  }
  for (const Fault& f : faults) {
    h = mix64(h, static_cast<std::uint64_t>(f.kind));
    h = mix64(h, f.at);
    h = mix64(h, f.duration);
    h = mix64(h, f.pick);
    h = mix64(h, static_cast<std::uint64_t>(f.loss * 1e6));
    h = mix64(h, f.jitter);
  }
  return h;
}

Schedule make_schedule(const WorkloadSpec& spec, std::uint64_t seed, Time start,
                       Time end) {
  Schedule out;
  sim::Rng rng(mix64(seed, 0x52455155455354ull));  // "REQUEST"

  // Every breaker starts open and only requests move it, so the
  // generator tracks each breaker's state and last due time itself.
  struct Slot {
    std::uint32_t device;
    std::uint16_t breaker;
    bool closed = false;
    Time last_due = 0;
    bool used = false;
  };
  std::vector<Slot> slots;
  const auto& devices = spec.config.scenario.devices;
  for (std::uint32_t d = 0; d < devices.size(); ++d) {
    for (std::size_t b = 0; b < devices[d].breaker_names.size(); ++b) {
      slots.push_back(Slot{d, static_cast<std::uint16_t>(b)});
    }
  }
  const Time gap = spec.request_gap;
  for (Time slot_start = start; slot_start + gap <= end; slot_start += gap) {
    const Time due = slot_start + rng.uniform(0, gap - 1);
    Slot* pick = nullptr;
    while (pick == nullptr) {
      Slot& s = slots[rng.uniform(0, slots.size() - 1)];
      if (!s.used || s.last_due + kBreakerCooldown <= due) pick = &s;
    }
    pick->closed = !pick->closed;
    pick->last_due = due;
    pick->used = true;
    out.requests.push_back(Request{due, pick->device, pick->breaker, pick->closed});
  }

  if (!spec.fault_cycle.empty()) {
    // Episodes never overlap. The seed places each in its 10 s slot and
    // picks its target and loss; the cycle's fixed order keeps every
    // run's view changes, and so its leader placement, alike.
    sim::Rng frng(mix64(seed, 0x4641554C54ull));  // "FAULT"
    Time slot = start + kFaultLead;
    for (std::size_t i = 0; slot + kFaultSlot + kFaultTail <= end; ++i) {
      const Fault::Kind kind = spec.fault_cycle[i % spec.fault_cycle.size()];
      Fault f;
      f.kind = kind;
      f.at = slot + frng.uniform(0, 3 * sim::kSecond);
      f.duration = kFaultDuration;
      f.pick = static_cast<std::uint32_t>(frng.uniform(0, 5));
      if (kind == Fault::Kind::kLinkDegrade) {
        f.loss = 0.01 + 0.04 * frng.uniform01();
        f.jitter = frng.uniform(0, 2 * sim::kMillisecond);
      }
      out.faults.push_back(f);
      slot += kFaultSlot;
    }
  }
  return out;
}

RunResult run_workload(const WorkloadSpec& spec, std::uint64_t seed,
                       double run_seconds, const RunHooks& hooks,
                       bool setup_only) {
  RunResult result;
  SpanRecorder* spans = hooks.spans;
  const scada::DeploymentConfig& config = spec.config;
  const auto& devices = config.scenario.devices;

  sim::Simulator simulator;
  simulator.set_workers(1);
  // Also the time source of a tracer the traced run installs.
  const sim::LogClockScope clock(simulator);

  // ---- set-up ----------------------------------------------------------
  // The capture tap must outlive the switch that mirrors into it.
  std::unique_ptr<spire::mana::Mana> ids;
  std::uint64_t t = wall_ns();
  std::unique_ptr<scada::SpireDeployment> sys;
  {
    ScopedSpan span(spans, "deployment.construct");
    sys = std::make_unique<scada::SpireDeployment>(simulator, config);
  }
  result.setup.construct_s = seconds_since(t);

  t = wall_ns();
  {
    ScopedSpan span(spans, "deployment.start");
    sys->start();
  }
  {
    ScopedSpan span(spans, "sim.run_until.warmup");
    simulator.run_until(kWarmup);
  }
  result.setup.warmup_s = seconds_since(t);

  auto poll_mana = [&](const char* span_name) {
    ScopedSpan span(spans, span_name);
    ids->poll(simulator.now());
  };
  if (spec.mana) {
    t = wall_ns();
    spire::mana::ManaConfig mc;
    mc.network = "operations-spire";
    ids = std::make_unique<spire::mana::Mana>(mc);
    sys->external_switch().add_capture_tap(&ids->tap());
    const Time until = simulator.now() + kManaTraining;
    while (simulator.now() < until) {
      {
        ScopedSpan span(spans, "sim.run_until.training");
        simulator.run_until(simulator.now() + kSlice);
      }
      poll_mana("mana.poll.training");
    }
    ScopedSpan span(spans, "mana.finish_training");
    ids->flush_until(simulator.now());
    ids->finish_training();
    result.setup.mana_training_s = seconds_since(t);
  }

  t = wall_ns();
  std::unique_ptr<spire::prime::ProactiveRecovery> recovery;
  if (spec.recovery) {
    ScopedSpan span(spans, "deployment.make_recovery");
    recovery = sys->make_recovery(
        spire::prime::RecoveryConfig{kRecoveryPeriod, kRecoveryDowntime});
    recovery->start();
  }

  const Time start = simulator.now();
  const Time window = static_cast<Time>(run_seconds * spec.sim_per_run_second *
                                        static_cast<double>(sim::kSecond));
  const Time end = start + window;
  const Schedule schedule = make_schedule(spec, seed, start, end);
  result.schedule_digest = schedule.digest();
  result.window_us = window;

  // Fault episodes: each begins with an event that resolves its
  // target from the deployment's public state and arms a one-episode
  // injector from make_chaos(). An episode that would leave more than
  // f + k replicas disturbed is skipped and counted. A replica counts as
  // disturbed while it is down, recovering, or in another view than the
  // others: the system has not yet re-integrated it.
  std::vector<std::unique_ptr<sim::ChaosInjector>> injectors;
  std::vector<bool> site_cut(sys->site_count(), false);
  auto begin_fault = [&](const Fault& f) {
    ScopedSpan span(spans, "deployment.make_chaos");
    const std::vector<bool> disturbed = disturbed_replicas(*sys);
    constexpr std::uint32_t kNone = ~std::uint32_t{0};
    std::uint32_t leader = kNone;
    std::vector<std::uint32_t> followers;
    for (std::uint32_t r = 0; r < sys->n(); ++r) {
      if (disturbed[r]) continue;
      if (sys->replica(r).is_leader()) {
        leader = r;
      } else {
        followers.push_back(r);
      }
    }
    std::uint32_t target = kNone;
    std::uint32_t site = kNone;
    switch (f.kind) {
      case Fault::Kind::kLeaderPartition:
        target = leader;
        break;
      case Fault::Kind::kFollowerPartition:
        if (!followers.empty()) target = followers[f.pick % followers.size()];
        break;
      case Fault::Kind::kSitePartition: {
        // A data center whose only replica is an undisturbed follower.
        std::vector<std::uint32_t> sites;
        for (std::uint32_t s = 1; s < sys->site_count(); ++s) {
          std::vector<std::uint32_t> held;
          for (std::uint32_t r = 0; r < sys->n(); ++r) {
            if (sys->site_of_replica(r) == s) held.push_back(r);
          }
          if (held.size() == 1 && !disturbed[held[0]] && held[0] != leader) {
            sites.push_back(s);
          }
        }
        if (!sites.empty()) {
          site = sites[f.pick % sites.size()];
          for (std::uint32_t r = 0; r < sys->n(); ++r) {
            if (sys->site_of_replica(r) == site) target = r;
          }
        }
        break;
      }
      case Fault::Kind::kLinkDegrade:
        break;
    }
    const bool needs_target = f.kind != Fault::Kind::kLinkDegrade;
    const auto already = static_cast<std::uint32_t>(
        std::count(disturbed.begin(), disturbed.end(), true));
    if ((needs_target && target == kNone) ||
        already + (needs_target ? 1 : 0) > config.f + config.k) {
      ++result.faults_skipped;
      return;
    }
    if (site != kNone) {
      sys->partition_site(site, true);
      site_cut[site] = true;
      simulator.schedule_at(simulator.now() + f.duration, [&, site] {
        sys->partition_site(site, false);
        site_cut[site] = false;
      });
      return;
    }
    sim::ChaosEvent e;
    e.at = simulator.now();
    e.duration = f.duration;
    e.loss = f.loss;
    e.jitter = f.jitter;
    e.kind = needs_target ? sim::ChaosEvent::Kind::kPartition
                          : sim::ChaosEvent::Kind::kLinkDegrade;
    e.node = needs_target ? target : 0;
    injectors.push_back(sys->make_chaos());
    injectors.back()->add(e);
    injectors.back()->arm();
  };
  for (const Fault& f : schedule.faults) {
    simulator.schedule_at(f.at, [&, f] { begin_fault(f); });
  }
  result.setup.warmup_s += seconds_since(t);
  result.setup_events = simulator.events_executed();
  if (setup_only) return result;
  if (hooks.on_ready) hooks.on_ready(*sys);

  // ---- open-loop requests and their observation -------------------------
  const std::size_t hmis = config.hmi_count;
  const std::size_t total = schedule.requests.size();
  std::vector<Time> injected(total, sim::kNever);
  std::vector<Time> actuated(total, sim::kNever);
  std::vector<Time> displayed(total * hmis, sim::kNever);
  // Requests per breaker in due order. A display (or actuation) of a
  // breaker state answers the newest injected request on that breaker
  // that asked for it.
  std::map<std::pair<std::uint32_t, std::uint16_t>, std::vector<std::size_t>>
      by_breaker;
  std::map<std::string, std::uint32_t> device_index;
  for (std::uint32_t d = 0; d < devices.size(); ++d) {
    device_index[devices[d].name] = d;
  }
  auto answer = [&](std::uint32_t device, std::size_t breaker, bool closed,
                    Time at, std::vector<Time>& slots, std::size_t stride,
                    std::size_t column) {
    const auto it =
        by_breaker.find({device, static_cast<std::uint16_t>(breaker)});
    if (it == by_breaker.end()) return;
    const std::vector<std::size_t>& list = it->second;
    std::size_t k = list.size();
    while (k > 0 && (injected[list[k - 1]] == sim::kNever ||
                     schedule.requests[list[k - 1]].close != closed)) {
      --k;
    }
    if (k == 0) return;
    Time& slot = slots[list[k - 1] * stride + column];
    if (slot == sim::kNever) slot = at;
  };

  for (std::size_t j = 0; j < hmis; ++j) {
    sys->hmi(j).set_display_observer([&, j](const std::string& device,
                                            std::size_t index, bool closed,
                                            Time at) {
      const auto d = device_index.find(device);
      if (d != device_index.end()) {
        answer(d->second, index, closed, at, displayed, hmis, j);
      }
    });
  }
  if (spec.operator_commands) {
    for (std::uint32_t d = 0; d < devices.size(); ++d) {
      sys->plc(devices[d].name)
          .breakers()
          .add_observer([&, d](std::size_t index, bool closed, Time at) {
            answer(d, index, closed, at, actuated, 1, 0);
          });
    }
  }
  for (std::size_t r = 0; r < total; ++r) {
    const Request& req = schedule.requests[r];
    by_breaker[{req.device, req.breaker}].push_back(r);
    simulator.schedule_at(req.due, [&, r] {
      const Request& q = schedule.requests[r];
      injected[r] = simulator.now();
      const std::string& device = devices[q.device].name;
      ScopedSpan span(spans, "request.inject", r);
      if (spec.operator_commands) {
        sys->hmi(0).command_breaker(device, q.breaker, q.close);
      } else {
        sys->flip_breaker_at_plc(device, q.breaker, q.close);
      }
    });
  }

  // ---- measured window ---------------------------------------------------
  const std::uint64_t events_start = simulator.events_executed();
  const std::uint64_t cpu0 = cpu_ns();
  const std::uint64_t wall0 = wall_ns();
  {
    ScopedSpan window_span(spans, "window");
    std::uint64_t slice_cpu = cpu0;
    std::uint64_t slice_wall = wall0;
    const auto slices = static_cast<std::size_t>((window + kSlice - 1) / kSlice);
    result.slice_cpu_s.reserve(slices);
    result.slice_wall_s.reserve(slices);
    while (simulator.now() < end) {
      {
        ScopedSpan span(spans, "sim.run_until");
        simulator.run_until(std::min(end, simulator.now() + kSlice));
      }
      if (ids) poll_mana("mana.poll");
      const std::uint64_t c = cpu_ns();
      const std::uint64_t w = wall_ns();
      result.slice_cpu_s.push_back(static_cast<double>(c - slice_cpu) / 1e9);
      result.slice_wall_s.push_back(static_cast<double>(w - slice_wall) / 1e9);
      slice_cpu = c;
      slice_wall = w;
    }
  }
  result.window_cpu_s = static_cast<double>(cpu_ns() - cpu0) / 1e9;
  result.window_wall_s = static_cast<double>(wall_ns() - wall0) / 1e9;
  {
    const std::vector<bool> disturbed = disturbed_replicas(*sys);
    result.disturbed_at_end = static_cast<std::uint64_t>(
        std::count(disturbed.begin(), disturbed.end(), true));
  }
  if (hooks.on_window_end) hooks.on_window_end(*sys);
  result.events = simulator.events_executed() - events_start;

  // ---- quiescence and correctness gate -----------------------------------
  auto& bad = result.violations;
  std::uint64_t episodes = 0;
  for (const auto& chaos : injectors) {
    if (chaos->fault_active() || chaos->stats().healed != chaos->stats().injected) {
      bad.push_back("chaos episode still unhealed at the end of the window");
    }
    episodes += chaos->stats().injected;
    chaos->stop();
  }
  if (!schedule.faults.empty() && episodes == 0) bad.push_back("no chaos episode ran");
  for (std::size_t s = 0; s < site_cut.size(); ++s) {
    if (site_cut[s]) bad.push_back("site " + std::to_string(s) + " still cut");
  }
  if (recovery) recovery->stop();
  {
    ScopedSpan span(spans, "sim.run_until.quiesce");
    simulator.run_until(simulator.now() + kQuiesce);
  }
  if (recovery) {
    result.recoveries = recovery->stats().completed;
    result.recovery_time_us = recovery->stats().total_recovery_wall;
  }

  // Field traffic never stops, so replicas may end a few updates apart:
  // replicas that executed the same prefix must hold identical state.
  std::map<std::uint64_t, std::set<spire::crypto::Digest>> by_seq;
  std::uint32_t live = 0;
  for (std::uint32_t r = 0; r < sys->n(); ++r) {
    if (!sys->replica(r).running() || sys->replica(r).recovering()) continue;
    ++live;
    by_seq[sys->replica(r).applied_seq()].insert(sys->master(r).state().digest());
  }
  for (const auto& [seq, digests] : by_seq) {
    if (digests.size() > 1) {
      bad.push_back("replicas disagree on state at sequence " + std::to_string(seq));
    }
  }
  if (live + 1 < sys->n()) {
    bad.push_back("only " + std::to_string(live) + " replicas live after quiescence");
  }
  for (std::size_t j = 0; j < hmis; ++j) {
    for (const auto& device : devices) {
      const auto& bank = sys->plc(device.name).breakers();
      for (std::size_t b = 0; b < device.breaker_names.size(); ++b) {
        if (sys->hmi(j).display().breaker(device.name, b) != bank.closed(b)) {
          bad.push_back("hmi " + std::to_string(j) + " shows " + device.name +
                        "/" + std::to_string(b) + " unlike the field");
        }
      }
    }
  }

  // ---- request outcomes ---------------------------------------------------
  // A request no display (or actuation) answered was still served when
  // a later request on its breaker replaced it, or when the breaker ends
  // in its state: the operator never saw a change that the field undid
  // or re-did before the HMI caught up. Only the rest are lost.
  for (const auto& [key, list] : by_breaker) {
    const std::string& device = devices[key.first].name;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const std::size_t r = list[i];
      const bool close = schedule.requests[r].close;
      const bool replaced = i + 1 < list.size();
      for (std::size_t j = 0; j < hmis; ++j) {
        Time& slot = displayed[r * hmis + j];
        if (slot == sim::kNever &&
            (replaced || sys->hmi(j).display().breaker(device, key.second) == close)) {
          slot = kOvertaken;
        }
      }
      if (spec.operator_commands && actuated[r] == sim::kNever &&
          (replaced || sys->plc(device).breakers().closed(key.second) == close)) {
        actuated[r] = kOvertaken;
      }
    }
  }
  result.attempted = total;
  Time outage_from = sim::kNever;
  auto close_outage = [&](Time until) {
    if (outage_from != sim::kNever) {
      result.outage_us = std::max(result.outage_us, until - outage_from);
    }
    outage_from = sim::kNever;
  };
  for (std::size_t r = 0; r < total; ++r) {
    const Request& req = schedule.requests[r];
    if (injected[r] != req.due) {
      bad.push_back("request " + std::to_string(r) + " injected off its due time");
    }
    bool lost = false;
    bool late = false;
    Time last = req.due;
    auto outcome = [&](Time at, std::vector<Time>* samples) {
      if (at == sim::kNever) {
        lost = true;
      } else if (at == kOvertaken) {
        late = true;
        ++result.overtaken;
      } else {
        if (samples != nullptr) samples->push_back(at - req.due);
        late = late || at - req.due > kDisplayLimit;
        last = std::max(last, at);
      }
    };
    for (std::size_t j = 0; j < hmis; ++j) {
      outcome(displayed[r * hmis + j], &result.display_us);
    }
    if (spec.operator_commands) outcome(actuated[r], &result.actuate_us);
    if (lost) ++result.failed;
    if (lost || late) {
      ++result.missed;
      if (outage_from == sim::kNever) outage_from = req.due;
    } else {
      close_outage(req.due);
    }
    if (spans != nullptr) {
      const std::uint32_t parent =
          spans->simulated("request", req.due, last, r);
      for (std::size_t j = 0; j < hmis; ++j) {
        const Time at = displayed[r * hmis + j];
        if (at < kOvertaken) spans->simulated("hmi.display", req.due, at, r, parent);
      }
      if (actuated[r] < kOvertaken) {
        spans->simulated("plc.actuate", req.due, actuated[r], r, parent);
      }
    }
  }
  close_outage(end);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return result;
}

}  // namespace perfbench
