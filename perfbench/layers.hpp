// Per-layer view of one workload: the traced run and the replays that
// price each layer's unit of work.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

/// Counters, gauges and histogram counts from a registry snapshot, by
/// metric name.
using Counters = std::map<std::string, std::int64_t>;

/// Parses MetricsRegistry::snapshot_json().
Counters parse_snapshot(const std::string& json);

/// Digest of everything a run simulated: request outcomes, latency
/// samples, kernel events and the registry counters at the end of the
/// window. Equal seeds must give equal digests, traced or not.
std::uint64_t simulation_digest(const RunResult& run, const Counters& counters);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct TracedResult {
  RunResult run;
  std::uint64_t digest = 0;
  std::vector<Metric> metrics;
  /// Sum over layers of count x unit cost, per simulated second.
  double attributed_cpu_ms_per_sim_s = 0;
};

/// Runs the workload with a scoped registry, a scoped tracer and
/// benchmark-side spans, then prices each layer with replays fed
/// the sizes and counts the run recorded. Spans go to `spans_path`.
TracedResult run_traced(const WorkloadSpec& spec, std::uint64_t seed,
                        double run_seconds, const std::string& spans_path);

}  // namespace perfbench
