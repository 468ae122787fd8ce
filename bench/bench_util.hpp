// Shared helpers for the experiment benches: flag parsing (Args), the
// one gate and JSON report (Report), aligned table printing, latency
// statistics, a standard header that ties each binary back to the paper
// artifact it reproduces (see DESIGN.md §4), and the runner that spreads
// independent fleet instances over threads (§8).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <initializer_list>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
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

/// The flags one bench takes. Each spec names a flag and shows its
/// form: "--chaos" is a switch, "--devices=N" needs a value. Every bench
/// also takes --log-level=SPEC. Construct it first in main(): it sets up
/// logging (silent by default, then the SPIRE_LOG env spec, then each
/// --log-level spec in order: "debug", "prime=debug,spines=warn", …),
/// and an undeclared argument, a switch given a value or a flag
/// without one prints the usage line and exits 2, so a mistyped or
/// retired flag cannot silently drop a gate.
class Args {
 public:
  Args(int argc, char** argv, std::initializer_list<const char*> specs)
      : program_(argc > 0 ? argv[0] : "bench"), specs_(specs) {
    specs_.push_back("--log-level=SPEC");
    auto& log = util::LogConfig::instance();
    log.level = util::LogLevel::kOff;
    if (const char* env = std::getenv("SPIRE_LOG")) log.apply_spec(env);
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::size_t eq = arg.find('=');
      const std::string name = arg.substr(0, eq);
      const char* spec = find_spec(name);
      if (spec == nullptr) usage("unknown argument " + arg);
      const bool takes_value = std::strchr(spec, '=') != nullptr;
      if (!takes_value && eq != std::string::npos) {
        usage(name + " takes no value");
      }
      if (takes_value && (eq == std::string::npos || eq + 1 == arg.size())) {
        usage(name + " needs a value");
      }
      given_[name] = takes_value ? arg.substr(eq + 1) : std::string();
      if (name == "--log-level") log.apply_spec(given_[name]);
    }
  }

  [[nodiscard]] bool has(const std::string& name) const {
    return given_.contains(name);
  }

  [[nodiscard]] std::string str(const std::string& name,
                                std::string fallback) const {
    const auto it = given_.find(name);
    return it == given_.end() ? std::move(fallback) : it->second;
  }

  [[nodiscard]] std::uint64_t num(const std::string& name,
                                  std::uint64_t fallback) const {
    const auto it = given_.find(name);
    return it == given_.end() ? fallback : parse(name, it->second);
  }

  /// A comma list such as --devices=1000,5000,10000.
  [[nodiscard]] std::vector<std::uint64_t> nums(const std::string& name,
                                                std::uint64_t fallback) const {
    const auto it = given_.find(name);
    if (it == given_.end()) return {fallback};
    std::vector<std::uint64_t> out;
    std::size_t from = 0;
    while (true) {
      const std::size_t comma = it->second.find(',', from);
      out.push_back(parse(name, it->second.substr(from, comma - from)));
      if (comma == std::string::npos) return out;
      from = comma + 1;
    }
  }

 private:
  [[nodiscard]] const char* find_spec(const std::string& name) const {
    for (const char* spec : specs_) {
      if (name == std::string_view(spec, std::strcspn(spec, "="))) return spec;
    }
    return nullptr;
  }

  [[nodiscard]] std::uint64_t parse(const std::string& name,
                                    const std::string& text) const {
    char* end = nullptr;
    const std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] < '0' || text[0] > '9' || *end != '\0') {
      usage(name + " needs a number, got '" + text + "'");
    }
    return v;
  }

  [[noreturn]] void usage(const std::string& why) const {
    std::fprintf(stderr, "%s: %s\nusage: %s", program_.c_str(), why.c_str(),
                 program_.c_str());
    for (const char* spec : specs_) std::fprintf(stderr, " [%s]", spec);
    std::fprintf(stderr, "\n");
    std::exit(2);
  }

  std::string program_;
  std::vector<const char*> specs_;
  std::map<std::string, std::string> given_;
};

/// Writes `text` to `path`; false when the file cannot be opened or
/// written in full.
inline bool write_file(const std::string& path, std::string_view text) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const bool written = std::fwrite(text.data(), 1, text.size(), out) ==
                       text.size();
  return std::fclose(out) == 0 && written;
}

/// One bench's verdict. It records config and measured values and gates
/// them against fixed bounds, printing one `gate` line per check.
/// finish() writes --json=PATH (when the bench declares and is given it)
/// as {bench, config, measured, bounds, gates, pass} with flat
/// name->number maps, and returns the exit code: 1 when any gate failed
/// or any requested output could not be written, else 0.
class Report {
 public:
  Report(const Args& args, std::string bench)
      : bench_(std::move(bench)), json_path_(args.str("--json", "")) {}

  /// Prefixes the measured and gate keys that follow with "<label>."
  /// (a multi-run bench labels each run); "" clears the prefix.
  void run(const std::string& label) {
    prefix_ = label.empty() ? std::string() : label + ".";
  }

  void config(const std::string& key, double value) {
    set(config_, key, value);
  }
  void measured(const std::string& key, double value) {
    set(measured_, prefix_ + key, value);
  }
  void measured(const std::string& key, const LatencyStats& s) {
    measured(key + ".min_ms", s.min_ms);
    measured(key + ".p50_ms", s.median_ms);
    measured(key + ".p90_ms", s.p90_ms);
    measured(key + ".p99_ms", s.p99_ms);
    measured(key + ".max_ms", s.max_ms);
    measured(key + ".mean_ms", s.mean_ms);
    measured(key + ".samples", static_cast<double>(s.samples));
  }

  bool at_most(const std::string& key, double value, double bound) {
    return bounded(key, value, bound, "<=", "_max", value <= bound);
  }
  bool at_least(const std::string& key, double value, double bound) {
    return bounded(key, value, bound, ">=", "_min", value >= bound);
  }
  bool check(const std::string& name, bool pass) {
    std::printf("gate %-44s %s\n", (prefix_ + name).c_str(),
                pass ? "PASS" : "FAIL");
    return record_gate(prefix_ + name, pass);
  }

  /// Records the outcome of writing a requested output file; a failed
  /// write fails the run.
  void output(const std::string& path, bool written) {
    if (written) {
      std::printf("wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      outputs_ok_ = false;
    }
  }

  [[nodiscard]] bool pass() const { return gates_ok_ && outputs_ok_; }

  int finish() {
    std::printf("%s: %zu gates, %s\n", bench_.c_str(), gates_.size(),
                gates_ok_ ? "all pass" : "GATE FAILURES");
    if (!json_path_.empty()) output(json_path_, write_file(json_path_, json()));
    return pass() ? 0 : 1;
  }

 private:
  using Values = std::vector<std::pair<std::string, double>>;

  static void set(Values& values, const std::string& key, double value) {
    for (auto& [k, v] : values) {
      if (k == key) {
        v = value;
        return;
      }
    }
    values.emplace_back(key, value);
  }

  bool bounded(const std::string& key, double value, double bound,
               const char* op, const char* suffix, bool pass) {
    measured(key, value);
    set(bounds_, prefix_ + key + suffix, bound);
    std::printf("gate %-44s %12.6g %s %-10.6g %s\n",
                (prefix_ + key + suffix).c_str(), value, op, bound,
                pass ? "PASS" : "FAIL");
    return record_gate(prefix_ + key + suffix, pass);
  }

  bool record_gate(std::string name, bool pass) {
    gates_.emplace_back(std::move(name), pass);
    gates_ok_ = gates_ok_ && pass;
    return pass;
  }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }

  static std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
  }

  static void append(std::string& out, const char* name, const Values& values) {
    out += ",\"" + std::string(name) + "\":{";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out += (i == 0 ? "" : ",") + quote(values[i].first) + ":" +
             number(values[i].second);
    }
    out += "}";
  }

  [[nodiscard]] std::string json() const {
    std::string out = "{\"bench\":" + quote(bench_);
    append(out, "config", config_);
    append(out, "measured", measured_);
    append(out, "bounds", bounds_);
    out += ",\"gates\":{";
    for (std::size_t i = 0; i < gates_.size(); ++i) {
      out += (i == 0 ? "" : ",") + quote(gates_[i].first) +
             (gates_[i].second ? ":true" : ":false");
    }
    out += std::string("},\"pass\":") + (pass() ? "true" : "false") + "}\n";
    return out;
  }

  std::string bench_;
  std::string json_path_;
  std::string prefix_;
  Values config_, measured_, bounds_;
  std::vector<std::pair<std::string, bool>> gates_;
  bool gates_ok_ = true;
  bool outputs_ok_ = true;
};

/// Shared latency reporter: named sample series in, one aligned text
/// table (min/p50/p90/p99/max/mean/samples) out.
class LatencyReporter {
 public:
  /// Adds a series and returns its statistics.
  LatencyStats add(std::string name, std::vector<double> samples_ms) {
    series_.push_back({std::move(name), latency_stats(std::move(samples_ms))});
    return series_.back().stats;
  }

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
