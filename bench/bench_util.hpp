// Shared helpers for the experiment benches: aligned table printing,
// latency statistics, a standard header that ties each binary back to
// the paper artifact it reproduces (see DESIGN.md §4), and the runner
// that spreads independent fleet instances over threads (§8).
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "prime/recovery.hpp"
#include "sim/chaos.hpp"
#include "sim/simulator.hpp"
#include "spines/overlay.hpp"
#include "util/log.hpp"

namespace spire::bench {

inline void print_header(const std::string& experiment_id,
                         const std::string& paper_artifact,
                         const std::string& claim) {
  std::printf("==============================================================\n");
  std::printf("Experiment %s — reproduces %s\n", experiment_id.c_str(),
              paper_artifact.c_str());
  std::printf("Paper claim: %s\n", claim.c_str());
  std::printf("==============================================================\n");
}

/// Row-oriented table with a fixed column layout.
class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  void row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print(std::FILE* out = stdout) const {
    std::vector<std::size_t> widths(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      widths[c] = columns_[c].size();
      for (const auto& r : rows_) {
        if (c < r.size()) widths[c] = std::max(widths[c], r[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& cells) {
      std::fprintf(out, "|");
      for (std::size_t c = 0; c < columns_.size(); ++c) {
        const std::string& cell = c < cells.size() ? cells[c] : std::string();
        std::fprintf(out, " %-*s |", static_cast<int>(widths[c]), cell.c_str());
      }
      std::fprintf(out, "\n");
    };
    print_row(columns_);
    std::fprintf(out, "|");
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      std::fprintf(out, "%s|", std::string(widths[c] + 2, '-').c_str());
    }
    std::fprintf(out, "\n");
    for (const auto& r : rows_) print_row(r);
  }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

struct LatencyStats {
  double min_ms = 0, median_ms = 0, p90_ms = 0, p99_ms = 0, max_ms = 0,
         mean_ms = 0;
  std::size_t samples = 0;
};

inline LatencyStats latency_stats(std::vector<double> samples_ms) {
  LatencyStats s;
  s.samples = samples_ms.size();
  if (samples_ms.empty()) return s;
  std::sort(samples_ms.begin(), samples_ms.end());
  s.min_ms = samples_ms.front();
  s.max_ms = samples_ms.back();
  s.median_ms = samples_ms[samples_ms.size() / 2];
  s.p90_ms = samples_ms[samples_ms.size() * 9 / 10];
  s.p99_ms = samples_ms[samples_ms.size() * 99 / 100];
  double sum = 0;
  for (const double v : samples_ms) sum += v;
  s.mean_ms = sum / static_cast<double>(samples_ms.size());
  return s;
}

inline std::string fmt_ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f ms", ms);
  return buf;
}

inline std::string fmt_count(std::uint64_t v) { return std::to_string(v); }

inline void quiet_logs() {
  util::LogConfig::instance().level = util::LogLevel::kOff;
}

/// Standard bench logging setup: silent by default, then the SPIRE_LOG
/// env spec, then any --log-level=SPEC flags (same spec syntax:
/// "debug", "prime=debug,spines=warn", …). Call first in main().
inline void init_logging(int argc, char** argv) {
  auto& config = util::LogConfig::instance();
  config.level = util::LogLevel::kOff;
  if (const char* env = std::getenv("SPIRE_LOG")) config.apply_spec(env);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--log-level=", 12) == 0) {
      config.apply_spec(argv[i] + 12);
    }
  }
}

/// True when `flag` (e.g. "--json") appears in argv, either bare or as
/// a `--flag=value` prefix.
inline bool has_flag(int argc, char** argv, const char* flag) {
  const std::size_t len = std::strlen(flag);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
    if (std::strncmp(argv[i], flag, len) == 0 && argv[i][len] == '=') {
      return true;
    }
  }
  return false;
}

/// Value of a `--flag=value` argument, or `fallback` when absent/bare.
inline const char* flag_value(int argc, char** argv, const char* flag,
                              const char* fallback) {
  const std::size_t len = std::strlen(flag);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], flag, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return fallback;
}

/// Shared latency reporter: named sample series in, one aligned text
/// table (min/p50/p90/p99/max/mean/samples) and optionally one JSON
/// file out. Replaces the per-bench copies of latency_stats printing in
/// bench_fig2 / bench_plant_reaction_time / bench_plant_soak.
class LatencyReporter {
 public:
  void add(std::string name, std::vector<double> samples_ms) {
    series_.push_back({std::move(name), latency_stats(std::move(samples_ms))});
  }

  [[nodiscard]] const LatencyStats* find(const std::string& name) const {
    for (const auto& s : series_) {
      if (s.name == name) return &s.stats;
    }
    return nullptr;
  }
  [[nodiscard]] bool empty() const { return series_.empty(); }

  void print(const char* title = "latency", std::FILE* out = stdout) const {
    Table table({title, "min", "p50", "p90", "p99", "max", "mean", "samples"});
    for (const auto& s : series_) {
      table.row({s.name, fmt_ms(s.stats.min_ms), fmt_ms(s.stats.median_ms),
                 fmt_ms(s.stats.p90_ms), fmt_ms(s.stats.p99_ms),
                 fmt_ms(s.stats.max_ms), fmt_ms(s.stats.mean_ms),
                 std::to_string(s.stats.samples)});
    }
    table.print(out);
  }

  /// {"bench":name,"series":{"<name>":{min_ms,p50_ms,...,samples},...}}
  bool write_json(const std::string& path, const char* bench_name) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\"bench\":\"%s\",\"series\":{", bench_name);
    for (std::size_t i = 0; i < series_.size(); ++i) {
      const auto& s = series_[i];
      std::fprintf(out,
                   "%s\"%s\":{\"min_ms\":%.3f,\"p50_ms\":%.3f,"
                   "\"p90_ms\":%.3f,\"p99_ms\":%.3f,\"max_ms\":%.3f,"
                   "\"mean_ms\":%.3f,\"samples\":%zu}",
                   i == 0 ? "" : ",", s.name.c_str(), s.stats.min_ms,
                   s.stats.median_ms, s.stats.p90_ms, s.stats.p99_ms,
                   s.stats.max_ms, s.stats.mean_ms, s.stats.samples);
    }
    std::fprintf(out, "}}\n");
    std::fclose(out);
    return true;
  }

 private:
  struct Series {
    std::string name;
    LatencyStats stats;
  };
  std::vector<Series> series_;
};

/// Aggregates DaemonStats across an overlay and prints the data-plane
/// observability counters (route-recompute coalescing, dedup pressure,
/// per-priority queue high-water marks) so control-plane regressions are
/// visible in bench output.
inline void print_overlay_stats(const char* label, spines::Overlay& overlay,
                                std::FILE* out = stdout) {
  std::uint64_t forwarded = 0, delivered = 0, recomputes = 0, coalesced = 0;
  std::uint64_t dedup_evictions = 0, queue_drops = 0;
  std::uint64_t max_depth[3] = {0, 0, 0};
  for (const auto& id : overlay.node_ids()) {
    const spines::DaemonStats& s = overlay.daemon(id).stats();
    forwarded += s.data_forwarded;
    delivered += s.data_delivered;
    recomputes += s.route_recomputes;
    coalesced += s.route_recomputes_coalesced;
    dedup_evictions += s.dedup_evictions;
    queue_drops += s.dropped_queue_full;
    for (int p = 0; p < 3; ++p) {
      max_depth[p] = std::max(max_depth[p],
                              static_cast<std::uint64_t>(s.max_queue_depth[p]));
    }
  }
  std::fprintf(
      out,
      "%s overlay: %llu forwarded, %llu delivered, %llu route recomputes "
      "(%llu coalesced), %llu dedup evictions, %llu queue-full drops, max "
      "queue depth lo/med/hi = %llu/%llu/%llu\n",
      label, static_cast<unsigned long long>(forwarded),
      static_cast<unsigned long long>(delivered),
      static_cast<unsigned long long>(recomputes),
      static_cast<unsigned long long>(coalesced),
      static_cast<unsigned long long>(dedup_evictions),
      static_cast<unsigned long long>(queue_drops),
      static_cast<unsigned long long>(max_depth[0]),
      static_cast<unsigned long long>(max_depth[1]),
      static_cast<unsigned long long>(max_depth[2]));
}

/// Prints the proactive-recovery scheduler's observability counters:
/// completion-gated slot accounting, per-recovery wall time, and the
/// state-transfer volume each rejuvenation pulled.
inline void print_recovery_stats(const char* label,
                                 const prime::RecoveryStats& s,
                                 std::FILE* out = stdout) {
  std::fprintf(
      out,
      "%s recovery: %llu takedowns, %llu completed, %llu retries, "
      "%llu deferred ticks, in-flight high-water %u\n",
      label, static_cast<unsigned long long>(s.takedowns),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.retries),
      static_cast<unsigned long long>(s.deferred_ticks),
      s.in_flight_high_water);
  std::fprintf(
      out,
      "%s recovery: wall last/max/mean = %s / %s / %s, state transfer "
      "%llu bytes over %llu StateReqs\n",
      label, fmt_ms(static_cast<double>(s.last_recovery_wall) / 1000.0).c_str(),
      fmt_ms(static_cast<double>(s.max_recovery_wall) / 1000.0).c_str(),
      fmt_ms(s.completed > 0 ? static_cast<double>(s.total_recovery_wall) /
                                   1000.0 / static_cast<double>(s.completed)
                             : 0.0)
          .c_str(),
      static_cast<unsigned long long>(s.transfer_bytes),
      static_cast<unsigned long long>(s.state_reqs));
}

/// Prints the fault-injection schedule outcome for a chaos run.
inline void print_chaos_stats(const sim::ChaosStats& s,
                              std::FILE* out = stdout) {
  std::fprintf(
      out,
      "chaos: %llu episodes injected (%llu partitions, %llu link degrades, "
      "%llu crash-restarts), %llu healed, %.1f s total fault time\n",
      static_cast<unsigned long long>(s.injected),
      static_cast<unsigned long long>(s.partitions),
      static_cast<unsigned long long>(s.link_degrades),
      static_cast<unsigned long long>(s.crash_restarts),
      static_cast<unsigned long long>(s.healed),
      static_cast<double>(s.total_fault_time) / sim::kSecond);
}

/// Runs `count` independent simulations — one sim::Simulator each —
/// with instance i on worker i % workers (worker 0 is the calling
/// thread). `job(i, out)` builds, runs, reports and tears down instance
/// i on its worker, printing into `out` (a per-instance buffer), and
/// returns its result. Once every instance is done the buffers go to
/// stdout in index order, so the output does not depend on `workers`;
/// then the first exception an instance threw, if any, is rethrown.
template <typename Job>
auto run_fleet(std::size_t count, unsigned workers, Job job)
    -> std::vector<std::invoke_result_t<Job&, std::size_t, std::FILE*>> {
  std::vector<std::invoke_result_t<Job&, std::size_t, std::FILE*>> results(
      count);
  std::vector<std::string> outputs(count);
  std::vector<std::exception_ptr> errors(count);
  const std::size_t threads =
      std::clamp<std::size_t>(workers, 1, std::max<std::size_t>(count, 1));
  auto worker = [&](std::size_t w) {
    for (std::size_t i = w; i < count; i += threads) {
      char* buf = nullptr;
      std::size_t len = 0;
      std::FILE* out = open_memstream(&buf, &len);
      if (out == nullptr) {
        errors[i] = std::make_exception_ptr(
            std::runtime_error("run_fleet: cannot open an output buffer"));
        continue;
      }
      try {
        results[i] = job(i, out);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      std::fclose(out);
      outputs[i].assign(buf, len);
      std::free(buf);
    }
  };
  {
    std::vector<std::jthread> pool;  // joined when this scope ends
    for (std::size_t w = 1; w < threads; ++w) pool.emplace_back(worker, w);
    worker(0);
  }
  for (const auto& text : outputs) std::fputs(text.c_str(), stdout);
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return results;
}

}  // namespace spire::bench
