// spire_perf: one benchmark process, one SpireDeployment.
//
//   spire_perf --mode setup|run|trace|schedule --workload NAME --seed N
//              --seconds S [--spans PATH]
//
// Prints one JSON object on stdout. perfbench/run.py launches several
// of these per benchmark run and folds them into the reported metrics.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "layers.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"
#include "workload.hpp"

namespace {

using perfbench::RunResult;
using perfbench::Time;

struct Quantiles {
  std::size_t samples = 0;
  std::size_t beyond_p99 = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

/// Nearest-rank median and 99th percentile of simulated microseconds.
Quantiles quantiles(std::vector<Time> v) {
  Quantiles q;
  q.samples = v.size();
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  auto rank = [&v](double p) {
    const auto r = static_cast<std::size_t>(p * static_cast<double>(v.size()) + 0.999999);
    return std::clamp<std::size_t>(r, 1, v.size()) - 1;
  };
  q.p50_ms = static_cast<double>(v[rank(0.50)]) / 1e3;
  const std::size_t i99 = rank(0.99);
  q.p99_ms = static_cast<double>(v[i99]) / 1e3;
  q.beyond_p99 = v.size() - 1 - i99;
  return q;
}

void print_string(const char* key, const std::string& value) {
  std::printf("\"%s\":\"", key);
  for (const char c : value) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::printf("\"");
}

void print_run(const RunResult& r, std::uint64_t digest) {
  const Quantiles display = quantiles(r.display_us);
  const Quantiles actuate = quantiles(r.actuate_us);
  std::printf("\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64 ",\"missed\":%" PRIu64
              ",\"overtaken\":%" PRIu64,
              r.attempted, r.failed, r.missed, r.overtaken);
  std::printf(",\"display_samples\":%zu,\"display_beyond_p99\":%zu"
              ",\"display_p50_ms\":%.3f,\"display_p99_ms\":%.3f",
              display.samples, display.beyond_p99, display.p50_ms, display.p99_ms);
  std::printf(",\"actuate_samples\":%zu,\"actuate_p50_ms\":%.3f,\"actuate_p99_ms\":%.3f",
              actuate.samples, actuate.p50_ms, actuate.p99_ms);
  std::printf(",\"faults_skipped\":%" PRIu64 ",\"disturbed_at_end\":%" PRIu64,
              r.faults_skipped, r.disturbed_at_end);
  std::printf(",\"missed_pct\":%.6f,\"outage_s\":%.6f",
              r.attempted ? 100.0 * static_cast<double>(r.missed) /
                                static_cast<double>(r.attempted)
                          : 0.0,
              static_cast<double>(r.outage_us) / 1e6);
  std::printf(",\"window_sim_s\":%.6f,\"window_cpu_s\":%.9f,\"window_wall_s\":%.9f"
              ",\"events\":%" PRIu64 ",\"peak_rss_mb\":%.6f",
              static_cast<double>(r.window_us) / 1e6, r.window_cpu_s, r.window_wall_s,
              r.events, r.peak_rss_mb);
  for (const auto& [key, slices] : {std::pair{"slice_cpu_s", &r.slice_cpu_s},
                                    std::pair{"slice_wall_s", &r.slice_wall_s}}) {
    std::printf(",\"%s\":[", key);
    for (std::size_t i = 0; i < slices->size(); ++i) {
      std::printf("%s%.9f", i ? "," : "", (*slices)[i]);
    }
    std::printf("]");
  }
  std::printf(",\"digest\":\"%016" PRIx64 "\",\"violations\":[", digest);
  for (std::size_t i = 0; i < r.violations.size(); ++i) {
    if (i) std::printf(",");
    std::printf("\"%s\"", r.violations[i].c_str());
  }
  std::printf("]");
}

void print_setup(const RunResult& r) {
  std::printf("\"setup_s\":%.9f,\"construct_s\":%.9f,\"warmup_s\":%.9f"
              ",\"mana_training_s\":%.9f,\"setup_events\":%" PRIu64
              ",\"schedule_digest\":\"%016" PRIx64 "\"",
              r.setup.total(), r.setup.construct_s, r.setup.warmup_s,
              r.setup.mana_training_s, r.setup_events, r.schedule_digest);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "spire_perf: %s\nusage: spire_perf --mode setup|run|trace|schedule "
               "--workload NAME --seed N --seconds S [--spans PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode, workload, spans_path;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--mode") {
      mode = value;
    } else if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || seconds <= 0) return usage("--seed and --seconds are required");
  if (mode != "schedule" && mode != "setup" && mode != "run" && mode != "trace") {
    return usage("unknown mode");
  }
  if (mode == "trace" && spans_path.empty()) return usage("--mode trace needs --spans");
  spire::util::LogConfig::instance().level = spire::util::LogLevel::kOff;

  perfbench::WorkloadSpec spec;
  try {
    spec = perfbench::workload_spec(workload);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  }

  std::printf("{");
  print_string("mode", mode);
  std::printf(",");
  print_string("workload", workload);
  std::printf(",\"seed\":%" PRIu64 ",", seed);
  if (mode == "schedule") {
    const perfbench::Schedule s =
        perfbench::make_schedule(spec, seed, 0, static_cast<Time>(seconds * 1e6));
    std::printf("\"requests\":%zu,\"faults\":%zu,\"schedule_digest\":\"%016" PRIx64 "\"",
                s.requests.size(), s.faults.size(), s.digest());
  } else if (mode == "setup") {
    print_setup(perfbench::run_workload(spec, seed, seconds, {}, true));
  } else if (mode == "run") {
    std::string counters;
    perfbench::RunHooks hooks;
    hooks.on_window_end = [&counters](spire::scada::SpireDeployment&) {
      counters = spire::obs::MetricsRegistry::current().snapshot_json();
    };
    const RunResult r = perfbench::run_workload(spec, seed, seconds, hooks);
    print_setup(r);
    std::printf(",");
    print_run(r, perfbench::simulation_digest(r, perfbench::parse_snapshot(counters)));
  } else {
    const perfbench::TracedResult t =
        perfbench::run_traced(spec, seed, seconds, spans_path);
    print_setup(t.run);
    std::printf(",");
    print_run(t.run, t.digest);
    std::printf(",\"attributed_cpu_ms_per_sim_s\":%.6f,\"layers\":{",
                t.attributed_cpu_ms_per_sim_s);
    for (std::size_t i = 0; i < t.metrics.size(); ++i) {
      std::printf("%s\"%s\":{\"value\":%.9g,\"unit\":\"%s\"}", i ? "," : "",
                  t.metrics[i].name.c_str(), t.metrics[i].value, t.metrics[i].unit.c_str());
    }
    std::printf("}");
  }
  std::printf("}\n");
  return 0;
}
