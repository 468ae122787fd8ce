// End-to-end update tracing (DESIGN.md §7).
//
// A Tracer records per-update spans as updates flow down the paper's
// Fig. 2 path: PLC → proxy → external Spines → Prime ordering
// (PO-Request → Pre-Prepare → Commit → execute) → Spines → HMI. Spans
// are keyed by the update's origin (client identity, client sequence) —
// the same pair Prime preorders by — and each stage keeps the earliest
// timestamp seen across replicas plus an occurrence count.
//
// Tracing is off by default: Tracer::current() is nullptr and every
// hook site is a single pointer test. Benches and tests enable it with
// a ScopedTracer. Completed runs export spans as JSONL and a per-leg
// latency breakdown (the soak's p50/p90/p99 per pipeline stage).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace spire::obs {

class Histogram;

enum class Stage : std::uint8_t {
  kPlcChange = 0,   // breaker moved in the field
  kSubmit,          // client signed + submitted the update
  kReplicaRecv,     // first responsible replica received it
  kPoRequest,       // first PO-Request disseminating it
  kPrePrepare,      // earliest Pre-Prepare slot that executed it
  kCommit,          // earliest replica commit of that slot
  kExecute,         // first replica applied it to the SCADA state
  kPublish,         // a master pushed the state version carrying it
  kHmiRecv,         // first HMI received that state version
  kHmiDisplay,      // an HMI adopted (f+1-voted) and displayed it
  kCount,
};

[[nodiscard]] const char* to_string(Stage stage);

// Spans are created once per ordered update on the hot path, so the
// struct stays trivially copyable (interned ids, no strings): vector
// growth is a memcpy instead of element-wise moves.
//
// A batched client update (many device deltas coalesced into one Prime
// ordering round) gets one parent span plus one member span per
// constituent delta. Members are allocated contiguously right after
// each other, so the parent only stores (first_member, member_count)
// and stage hooks fan out to members with an indexed loop — no extra
// map lookups on the hot path. Member spans carry their own device and
// kPlcChange time; every other stage is inherited from the parent.
struct Span {
  static constexpr std::uint32_t kNoDevice = 0xFFFFFFFFu;
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  std::uint32_t client = 0;     // interned identity, see Tracer::client_name
  std::uint32_t device = kNoDevice;  // interned, see Tracer::device_name
  std::uint64_t client_seq = 0;
  std::uint64_t version = 0;    // SCADA state version that published it
  std::uint32_t parent = kNoParent;  // span index of the batch parent
  std::uint32_t first_member = 0;    // first member span index
  std::uint32_t member_count = 0;    // batched deltas under this span
  // Earliest time per stage; valid only where hits[stage] > 0 (spans
  // can legitimately carry stage timestamps of 0 at sim start).
  std::array<std::uint64_t, static_cast<std::size_t>(Stage::kCount)> at{};
  std::array<std::uint32_t, static_cast<std::size_t>(Stage::kCount)> hits{};

  [[nodiscard]] bool has(Stage stage) const {
    return hits[static_cast<std::size_t>(stage)] > 0;
  }
  [[nodiscard]] std::uint64_t time(Stage stage) const {
    return at[static_cast<std::size_t>(stage)];
  }
};
static_assert(std::is_trivially_copyable_v<Span>);

/// Insert-only open-addressing map (u64 key → u32 value). Span hooks
/// fire several times per ordered update, and node-based unordered_map
/// lookups were the dominant cost in the obs_overhead gate; linear
/// probing over a flat array keeps a hook to ~one cache-line touch.
/// Keys are span keys (client<<40|seq) or state versions — never ~0.
class FlatMap64 {
 public:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  FlatMap64() : keys_(kInitialCap, kEmpty), vals_(kInitialCap) {}

  /// Pointer to the value for `key`, or nullptr when absent.
  [[nodiscard]] const std::uint32_t* find(std::uint64_t key) const {
    std::size_t i = index_of(key);
    while (keys_[i] != kEmpty) {
      if (keys_[i] == key) return &vals_[i];
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  /// Value already mapped to `key`, or `value` after inserting it
  /// (try_emplace semantics: an existing mapping wins). Second element
  /// is true when the insert happened.
  std::pair<std::uint32_t, bool> lookup_or_insert(std::uint64_t key,
                                                  std::uint32_t value) {
    std::size_t i = index_of(key);
    while (keys_[i] != kEmpty) {
      if (keys_[i] == key) return {vals_[i], false};
      i = (i + 1) & mask_;
    }
    keys_[i] = key;
    vals_[i] = value;
    ++size_;
    if (size_ * 2 > mask_ + 1) grow();  // keep load factor <= 1/2
    return {value, true};
  }

 private:
  // Big enough that typical runs (tens of thousands of spans at load
  // factor 1/2) never grow: rebuilds and their page faults would land
  // in the middle of instrumented hot paths.
  static constexpr std::size_t kInitialCap = 1u << 16;

  [[nodiscard]] std::size_t index_of(std::uint64_t key) const {
    // Fibonacci mix; bits 32+ spread low-entropy keys across the table.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) &
           mask_;
  }

  void grow() {
    const std::vector<std::uint64_t> old_keys = std::move(keys_);
    const std::vector<std::uint32_t> old_vals = std::move(vals_);
    const std::size_t cap = (mask_ + 1) * 2;
    keys_.assign(cap, kEmpty);
    vals_.assign(cap, 0);
    mask_ = cap - 1;
    for (std::size_t j = 0; j < old_keys.size(); ++j) {
      if (old_keys[j] == kEmpty) continue;
      std::size_t i = index_of(old_keys[j]);
      while (keys_[i] != kEmpty) i = (i + 1) & mask_;
      keys_[i] = old_keys[j];
      vals_[i] = old_vals[j];
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> vals_;
  std::size_t mask_ = kInitialCap - 1;
  std::size_t size_ = 0;
};

class Tracer {
 public:
  /// With no time source, falls back to util::LogConfig's (the sim
  /// installs one via LogClockScope); failing that, a constant — stage
  /// ordering degenerates but hook cost stays measurable.
  explicit Tracer(std::function<std::uint64_t()> time_source = {});

  /// nullptr unless a ScopedTracer is active on this thread — hot
  /// paths test this once.
  static Tracer* current() { return current_; }

  // --- hooks (called from instrumented components) -------------------
  void plc_change(const std::string& device, std::size_t breaker);
  /// Proxy built a StatusReport: links pending field changes to the
  /// (client, seq) span and remembers the reported breaker image.
  void proxy_report(const std::string& device, const std::string& client,
                    std::uint64_t client_seq,
                    const std::vector<bool>& breakers);
  /// Proxy coalesced one device delta into the batch that will be
  /// submitted as (client, client_seq): appends a member span under
  /// that parent, tagged with the device and any pending field change.
  /// All members of one batch must be added back-to-back (one flush
  /// callback), before or after the parent's own stage hooks.
  void proxy_batch_delta(const std::string& device, const std::string& client,
                         std::uint64_t client_seq,
                         const std::vector<bool>& breakers);
  void client_submit(const std::string& client, std::uint64_t client_seq);
  void replica_recv(const std::string& client, std::uint64_t client_seq);
  void po_request(const std::string& client, std::uint64_t client_seq);
  /// Replica executed the update in a slot Pre-Prepared at pp_at and
  /// committed at commit_at (0 = unknown, e.g. adopted via view change).
  void executed(const std::string& client, std::uint64_t client_seq,
                std::uint64_t pp_at, std::uint64_t commit_at);
  void master_publish(std::uint64_t version, const std::string& client,
                      std::uint64_t client_seq);
  void hmi_recv(std::uint64_t version);
  void hmi_display(std::uint64_t version);

  // --- markers (security timeline) -----------------------------------
  // Point events interleaved with the update spans in the JSONL export:
  // red-team attack intervals and IDS alerts, so one trace file shows
  // the attack → alert chain next to the SCADA data path it rode over.
  // Markers are rare (per attack / per alert, never per frame), so
  // they carry owned strings.
  struct Marker {
    enum class Kind : std::uint8_t { kAttackBegin, kAttackEnd, kAlert };
    Kind kind = Kind::kAlert;
    std::uint64_t at = 0;
    std::string label;     ///< attack name, or alert kind
    std::string network;   ///< alert: capture network (else empty)
    std::string detector;  ///< alert: attributing detector (else empty)
    double score = 0;
  };
  void attack_begin_marker(const std::string& name, std::uint64_t at);
  void attack_end_marker(const std::string& name, std::uint64_t at);
  void alert_marker(const std::string& network, const std::string& kind,
                    const std::string& detector, double score,
                    std::uint64_t at);
  [[nodiscard]] const std::vector<Marker>& markers() const { return markers_; }

  // --- results -------------------------------------------------------
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::string& client_name(std::uint32_t id) const {
    return client_names_[id];
  }
  [[nodiscard]] const std::string& device_name(std::uint32_t id) const {
    return device_names_[id];
  }
  [[nodiscard]] std::uint64_t now() const;

  struct Leg {
    const char* name;
    Stage from, to;
    std::vector<double> samples_ms;
  };
  /// Per-leg latency samples over all spans where both endpoints exist.
  [[nodiscard]] std::vector<Leg> breakdown() const;

  struct Completeness {
    std::uint64_t executed = 0;           // spans that reached kExecute
    std::uint64_t executed_complete = 0;  // … with the full ordered chain
    std::uint64_t displayed = 0;          // spans that reached kHmiDisplay
    std::uint64_t displayed_complete = 0; // … with the full PLC→HMI chain
    // Per-delta accounting: batching must not mask a lost device
    // change, so executed updates are also counted by constituent —
    // each member of a batched span, and each unbatched device-tagged
    // span, must individually carry a complete ordered chain.
    std::uint64_t deltas_expected = 0;
    std::uint64_t deltas_complete = 0;
  };
  /// Chain completeness. `from` is the first required stage for the
  /// executed chain (kSubmit when every client goes through
  /// ScadaClient; kReplicaRecv for raw-envelope benches). Stages must
  /// be present and non-decreasing in time.
  [[nodiscard]] Completeness completeness(Stage from = Stage::kSubmit) const;

  /// One JSON object per span. Returns false if the file can't open.
  bool write_jsonl(const std::string& path) const;

 private:
  friend class ScopedTracer;

  static constexpr std::uint32_t kNoSpan = 0xFFFFFFFFu;
  std::uint32_t intern(const std::string& client);
  std::uint32_t upsert_index(const std::string& client,
                             std::uint64_t client_seq);
  Span* upsert(const std::string& client, std::uint64_t client_seq);
  void record(Span& span, Stage stage, std::uint64_t at);
  /// record() on the span at `index` plus all its member spans.
  void record_fan(std::uint32_t index, Stage stage, std::uint64_t at);
  void record_display(Span& span, std::uint64_t at);

  static constexpr std::size_t kMaxSpans = 1u << 20;  // runaway-soak bound
  static constexpr std::size_t kPrefaultSpans = 1u << 15;  // ~5 MB

  std::function<std::uint64_t()> time_;
  std::vector<Span> spans_;  // hooks address spans by index, never pointer
  std::vector<Marker> markers_;
  FlatMap64 by_key_;  // client<<40|seq → span index
  std::unordered_map<std::string, std::uint32_t> client_ids_;
  std::vector<std::string> client_names_;
  // Direct-mapped memo over client_ids_: hooks re-intern the same few
  // client identities millions of times, and the full string hash was
  // the next-largest term in the obs_overhead gate after the span maps.
  // Entries point at client_ids_ keys (node-stable), so hits and misses
  // are both allocation-free.
  struct InternMemo {
    const std::string* name = nullptr;
    std::uint32_t id = 0;
  };
  std::array<InternMemo, 8> intern_memo_{};
  FlatMap64 by_version_;  // SCADA state version → span index
  std::uint64_t dropped_ = 0;

  struct DeviceTrace {
    std::uint32_t id = 0;  // index into device_names_
    std::vector<std::uint64_t> change_at;  // earliest unconsumed change
    std::vector<std::uint8_t> pending;
    std::vector<bool> last_reported;
    bool has_last = false;
  };
  DeviceTrace& device_trace(const std::string& device);
  std::unordered_map<std::string, DeviceTrace> devices_;
  std::vector<std::string> device_names_;

  // Summary histograms in the current metrics registry (may be null if
  // registered histograms are unwanted).
  Histogram* order_latency_us_ = nullptr;  // submit → execute
  Histogram* e2e_latency_us_ = nullptr;    // plc change → HMI display

  /// Per thread, so simulations running side by side on separate
  /// threads each trace into their own ScopedTracer.
  static inline thread_local Tracer* current_ = nullptr;
};

/// Enables tracing for the scope's lifetime. Construct it *after* any
/// ScopedRegistry so the tracer's summary histograms land in the
/// scoped registry.
class ScopedTracer {
 public:
  explicit ScopedTracer(std::function<std::uint64_t()> time_source = {});
  ~ScopedTracer();
  ScopedTracer(const ScopedTracer&) = delete;
  ScopedTracer& operator=(const ScopedTracer&) = delete;

  Tracer& tracer() { return tracer_; }

 private:
  Tracer tracer_;
  Tracer* previous_;
};

}  // namespace spire::obs
