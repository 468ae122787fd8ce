// Benchmark-side spans: the traced run wraps every public call it makes
// into the deployment and every per-layer replay batch in a span. Spans
// stay in memory and are written out once, when the run ends.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline std::uint64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

struct Span {
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;
  static constexpr std::uint64_t kNoRequest = ~std::uint64_t{0};

  const char* name = "";
  /// Host spans: steady-clock and process-CPU nanoseconds. Simulated
  /// spans (request lifecycles): simulated microseconds in start/end,
  /// CPU fields zero.
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t cpu_start = 0;
  std::uint64_t cpu_end = 0;
  std::uint32_t parent = kNoParent;
  std::uint64_t request = kNoRequest;
  std::uint64_t ops = 1;  ///< operations a replay batch covered
  bool simulated = false;
};

class SpanRecorder {
 public:
  /// Opens a host span under the innermost open one.
  void open(const char* name, std::uint64_t request = Span::kNoRequest) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? Span::kNoParent : stack_.back();
    s.request = request;
    s.cpu_start = cpu_ns();
    s.start = wall_ns();
    spans_.push_back(s);
    stack_.push_back(static_cast<std::uint32_t>(spans_.size() - 1));
  }

  /// Closes the innermost open span; `ops` is the work it covered.
  void close(std::uint64_t ops = 1) {
    Span& s = spans_[stack_.back()];
    s.end = wall_ns();
    s.cpu_end = cpu_ns();
    s.ops = ops;
    stack_.pop_back();
  }

  /// Records a finished simulated-time span.
  std::uint32_t simulated(const char* name, std::uint64_t start,
                          std::uint64_t end, std::uint64_t request,
                          std::uint32_t parent = Span::kNoParent) {
    Span s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = parent;
    s.request = request;
    s.simulated = true;
    spans_.push_back(s);
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }

  /// Summed CPU nanoseconds of host spans named `name`.
  [[nodiscard]] std::uint64_t cpu_total(const std::string& name) const {
    std::uint64_t total = 0;
    for (const Span& s : spans_) {
      if (!s.simulated && name == s.name) total += s.cpu_end - s.cpu_start;
    }
    return total;
  }

  /// One JSON object per span. Returns false if the file can't open.
  bool write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"clock\":\""
          << (s.simulated ? "sim_us" : "wall_ns") << "\",\"start\":" << s.start
          << ",\"end\":" << s.end;
      if (!s.simulated) out << ",\"cpu_ns\":" << (s.cpu_end - s.cpu_start);
      if (s.parent != Span::kNoParent) out << ",\"parent\":" << s.parent;
      if (s.request != Span::kNoRequest) out << ",\"request\":" << s.request;
      if (s.ops != 1) out << ",\"ops\":" << s.ops;
      out << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII host span; a no-op when the recorder is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name,
             std::uint64_t request = Span::kNoRequest)
      : rec_(rec) {
    if (rec_ != nullptr) rec_->open(name, request);
  }
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
};

}  // namespace perfbench
