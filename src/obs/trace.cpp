#include "obs/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace spire::obs {

namespace {

constexpr std::size_t kStageCount = static_cast<std::size_t>(Stage::kCount);

std::uint64_t span_key(std::uint32_t client, std::uint64_t seq) {
  // Sequences stay far below 2^40 in any run this tracer can hold.
  return (static_cast<std::uint64_t>(client) << 40) |
         (seq & ((std::uint64_t{1} << 40) - 1));
}

}  // namespace

const char* to_string(Stage stage) {
  switch (stage) {
    case Stage::kPlcChange: return "plc_change";
    case Stage::kSubmit: return "submit";
    case Stage::kReplicaRecv: return "replica_recv";
    case Stage::kPoRequest: return "po_request";
    case Stage::kPrePrepare: return "preprepare";
    case Stage::kCommit: return "commit";
    case Stage::kExecute: return "execute";
    case Stage::kPublish: return "publish";
    case Stage::kHmiRecv: return "hmi_recv";
    case Stage::kHmiDisplay: return "hmi_display";
    case Stage::kCount: break;
  }
  return "?";
}

Tracer::Tracer(std::function<std::uint64_t()> time_source)
    : time_(std::move(time_source)) {
  // Prefault the span store up front: growing it lazily puts soft page
  // faults and realloc copies inside the instrumented hot paths, which
  // is most of what the obs_overhead gate would then measure.
  spans_.resize(kPrefaultSpans);
  spans_.clear();
  auto& registry = MetricsRegistry::current();
  order_latency_us_ = registry.histogram("trace.submit_to_execute_us");
  e2e_latency_us_ = registry.histogram("trace.plc_to_display_us");
}

std::uint64_t Tracer::now() const {
  if (time_) return time_();
  const auto& fallback = util::LogConfig::instance().time_source;
  return fallback ? fallback() : 1;
}

std::uint32_t Tracer::intern(const std::string& client) {
  // Fingerprint on length + last byte: distinct client identities in a
  // deployment ("client/hmi0", "client/proxy-plc-phys", …) differ in at
  // least one of the two, so the memo rarely thrashes.
  const std::size_t slot =
      (client.size() * 131 +
       (client.empty() ? 0u : static_cast<unsigned char>(client.back()))) &
      (intern_memo_.size() - 1);
  InternMemo& memo = intern_memo_[slot];
  if (memo.name != nullptr && *memo.name == client) return memo.id;
  auto [it, inserted] = client_ids_.try_emplace(
      client, static_cast<std::uint32_t>(client_names_.size()));
  if (inserted) client_names_.push_back(client);
  memo.name = &it->first;  // unordered_map keys are node-stable
  memo.id = it->second;
  return it->second;
}

std::uint32_t Tracer::upsert_index(const std::string& client,
                                   std::uint64_t client_seq) {
  const std::uint32_t client_id = intern(client);
  const std::uint64_t key = span_key(client_id, client_seq);
  if (const std::uint32_t* index = by_key_.find(key)) return *index;
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return kNoSpan;
  }
  const auto index = static_cast<std::uint32_t>(spans_.size());
  by_key_.lookup_or_insert(key, index);
  spans_.emplace_back();
  spans_.back().client = client_id;
  spans_.back().client_seq = client_seq;
  return index;
}

Span* Tracer::upsert(const std::string& client, std::uint64_t client_seq) {
  const std::uint32_t index = upsert_index(client, client_seq);
  return index == kNoSpan ? nullptr : &spans_[index];
}

void Tracer::record(Span& span, Stage stage, std::uint64_t at) {
  const auto i = static_cast<std::size_t>(stage);
  if (span.hits[i] == 0 || at < span.at[i]) span.at[i] = at;
  ++span.hits[i];
}

void Tracer::record_fan(std::uint32_t index, Stage stage, std::uint64_t at) {
  Span& span = spans_[index];
  record(span, stage, at);
  // Batched updates fan every pipeline stage out to their per-delta
  // member spans (contiguous, so this is a linear walk).
  for (std::uint32_t i = 0; i < span.member_count; ++i) {
    record(spans_[span.first_member + i], stage, at);
  }
}

Tracer::DeviceTrace& Tracer::device_trace(const std::string& device) {
  auto [it, inserted] = devices_.try_emplace(device);
  if (inserted) {
    it->second.id = static_cast<std::uint32_t>(device_names_.size());
    device_names_.push_back(device);
  }
  return it->second;
}

void Tracer::plc_change(const std::string& device, std::size_t breaker) {
  DeviceTrace& trace = device_trace(device);
  if (trace.pending.size() <= breaker) {
    trace.pending.resize(breaker + 1, 0);
    trace.change_at.resize(breaker + 1, 0);
  }
  if (!trace.pending[breaker]) {  // keep the earliest unreported change
    trace.pending[breaker] = 1;
    trace.change_at[breaker] = now();
  }
}

void Tracer::proxy_report(const std::string& device, const std::string& client,
                          std::uint64_t client_seq,
                          const std::vector<bool>& breakers) {
  DeviceTrace& trace = device_trace(device);
  std::uint64_t earliest = 0;
  bool found = false;
  for (std::size_t i = 0; i < breakers.size() && i < trace.pending.size();
       ++i) {
    if (!trace.pending[i]) continue;
    const bool changed = !trace.has_last || i >= trace.last_reported.size() ||
                         trace.last_reported[i] != breakers[i];
    if (!changed) continue;
    if (!found || trace.change_at[i] < earliest) earliest = trace.change_at[i];
    found = true;
    trace.pending[i] = 0;
  }
  trace.last_reported = breakers;
  trace.has_last = true;
  Span* span = upsert(client, client_seq);
  if (span == nullptr) return;
  if (span->device == Span::kNoDevice) span->device = trace.id;
  if (found) record(*span, Stage::kPlcChange, earliest);
}

void Tracer::proxy_batch_delta(const std::string& device,
                               const std::string& client,
                               std::uint64_t client_seq,
                               const std::vector<bool>& breakers) {
  const std::uint32_t parent_index = upsert_index(client, client_seq);
  if (parent_index == kNoSpan) return;
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  DeviceTrace& trace = device_trace(device);
  std::uint64_t earliest = 0;
  bool found = false;
  for (std::size_t i = 0; i < breakers.size() && i < trace.pending.size();
       ++i) {
    if (!trace.pending[i]) continue;
    const bool changed = !trace.has_last || i >= trace.last_reported.size() ||
                         trace.last_reported[i] != breakers[i];
    if (!changed) continue;
    if (!found || trace.change_at[i] < earliest) earliest = trace.change_at[i];
    found = true;
    trace.pending[i] = 0;
  }
  trace.last_reported = breakers;
  trace.has_last = true;

  const auto member_index = static_cast<std::uint32_t>(spans_.size());
  {
    Span& parent = spans_[parent_index];
    if (parent.member_count == 0) {
      parent.first_member = member_index;
    } else if (parent.first_member + parent.member_count != member_index) {
      return;  // members must be contiguous; drop an interleaved add
    }
    ++parent.member_count;
  }
  spans_.emplace_back();  // may grow: re-fetch parent afterwards
  Span& member = spans_.back();
  const Span& parent = spans_[parent_index];
  member.parent = parent_index;
  member.client = parent.client;
  member.client_seq = parent.client_seq;
  member.device = trace.id;
  if (found) record(member, Stage::kPlcChange, earliest);
}

void Tracer::client_submit(const std::string& client,
                           std::uint64_t client_seq) {
  const std::uint32_t index = upsert_index(client, client_seq);
  if (index != kNoSpan) record_fan(index, Stage::kSubmit, now());
}

void Tracer::replica_recv(const std::string& client,
                          std::uint64_t client_seq) {
  const std::uint32_t index = upsert_index(client, client_seq);
  if (index != kNoSpan) record_fan(index, Stage::kReplicaRecv, now());
}

void Tracer::po_request(const std::string& client, std::uint64_t client_seq) {
  const std::uint32_t index = upsert_index(client, client_seq);
  if (index != kNoSpan) record_fan(index, Stage::kPoRequest, now());
}

void Tracer::executed(const std::string& client, std::uint64_t client_seq,
                      std::uint64_t pp_at, std::uint64_t commit_at) {
  const std::uint32_t index = upsert_index(client, client_seq);
  if (index == kNoSpan) return;
  if (pp_at != 0) record_fan(index, Stage::kPrePrepare, pp_at);
  if (commit_at != 0) record_fan(index, Stage::kCommit, commit_at);
  Span& span = spans_[index];
  const bool first = !span.has(Stage::kExecute);
  const std::uint64_t at = now();
  record_fan(index, Stage::kExecute, at);
  if (first && span.has(Stage::kSubmit) && order_latency_us_ != nullptr) {
    order_latency_us_->record(at - span.time(Stage::kSubmit));
  }
}

void Tracer::master_publish(std::uint64_t version, const std::string& client,
                            std::uint64_t client_seq) {
  const std::uint32_t index = upsert_index(client, client_seq);
  if (index == kNoSpan) return;
  record_fan(index, Stage::kPublish, now());
  spans_[index].version = version;
  by_version_.lookup_or_insert(version, index);
}

void Tracer::hmi_recv(std::uint64_t version) {
  const std::uint32_t* index = by_version_.find(version);
  if (index == nullptr) return;
  record_fan(*index, Stage::kHmiRecv, now());
}

void Tracer::record_display(Span& span, std::uint64_t at) {
  const bool first = !span.has(Stage::kHmiDisplay);
  record(span, Stage::kHmiDisplay, at);
  if (first && span.has(Stage::kPlcChange) && e2e_latency_us_ != nullptr) {
    e2e_latency_us_->record(at - span.time(Stage::kPlcChange));
  }
}

void Tracer::hmi_display(std::uint64_t version) {
  const std::uint32_t* index = by_version_.find(version);
  if (index == nullptr) return;
  const std::uint64_t at = now();
  Span& span = spans_[*index];
  record_display(span, at);
  for (std::uint32_t i = 0; i < span.member_count; ++i) {
    record_display(spans_[span.first_member + i], at);
  }
}

std::vector<Tracer::Leg> Tracer::breakdown() const {
  std::vector<Leg> legs = {
      {"plc->submit", Stage::kPlcChange, Stage::kSubmit, {}},
      {"submit->replica_recv", Stage::kSubmit, Stage::kReplicaRecv, {}},
      {"replica_recv->po_request", Stage::kReplicaRecv, Stage::kPoRequest, {}},
      {"po_request->preprepare", Stage::kPoRequest, Stage::kPrePrepare, {}},
      {"preprepare->commit", Stage::kPrePrepare, Stage::kCommit, {}},
      {"commit->execute", Stage::kCommit, Stage::kExecute, {}},
      {"execute->publish", Stage::kExecute, Stage::kPublish, {}},
      {"publish->hmi_recv", Stage::kPublish, Stage::kHmiRecv, {}},
      {"hmi_recv->display", Stage::kHmiRecv, Stage::kHmiDisplay, {}},
      {"submit->execute (ordered)", Stage::kSubmit, Stage::kExecute, {}},
      {"plc->display (end-to-end)", Stage::kPlcChange, Stage::kHmiDisplay, {}},
  };
  for (const Span& span : spans_) {
    for (Leg& leg : legs) {
      if (!span.has(leg.from) || !span.has(leg.to)) continue;
      const std::uint64_t a = span.time(leg.from);
      const std::uint64_t b = span.time(leg.to);
      if (b < a) continue;
      leg.samples_ms.push_back(static_cast<double>(b - a) / 1000.0);
    }
  }
  return legs;
}

namespace {

/// True when every listed stage is present with non-decreasing times.
bool chain_ok(const Span& span, const Stage* stages, std::size_t n) {
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!span.has(stages[i])) return false;
    const std::uint64_t t = span.time(stages[i]);
    if (i > 0 && t < prev) return false;
    prev = t;
  }
  return true;
}

}  // namespace

Tracer::Completeness Tracer::completeness(Stage from) const {
  static constexpr Stage kOrderedChain[] = {
      Stage::kPlcChange,  Stage::kSubmit, Stage::kReplicaRecv,
      Stage::kPoRequest,  Stage::kPrePrepare, Stage::kCommit,
      Stage::kExecute,    Stage::kPublish, Stage::kHmiRecv,
      Stage::kHmiDisplay,
  };
  std::size_t start = 0;
  while (start + 1 < kStageCount && kOrderedChain[start] != from) ++start;
  const std::size_t exec_end = static_cast<std::size_t>(Stage::kExecute) + 1;

  Completeness result;
  for (const Span& span : spans_) {
    // Member spans are accounted under their batch parent, not as
    // standalone executed updates.
    if (span.parent != Span::kNoParent) continue;
    if (span.has(Stage::kExecute)) {
      ++result.executed;
      if (chain_ok(span, kOrderedChain + start, exec_end - start)) {
        ++result.executed_complete;
      }
      if (span.member_count > 0) {
        result.deltas_expected += span.member_count;
        for (std::uint32_t i = 0; i < span.member_count; ++i) {
          const Span& member = spans_[span.first_member + i];
          if (chain_ok(member, kOrderedChain + start, exec_end - start)) {
            ++result.deltas_complete;
          }
        }
      } else if (span.device != Span::kNoDevice) {
        // Unbatched device-tagged update: counts as one delta.
        ++result.deltas_expected;
        if (chain_ok(span, kOrderedChain + start, exec_end - start)) {
          ++result.deltas_complete;
        }
      }
    }
    if (span.has(Stage::kHmiDisplay)) {
      ++result.displayed;
      // Display-path spans that came from a field change must chain all
      // the way from the PLC; command-origin spans start at submit.
      const std::size_t disp_start =
          span.has(Stage::kPlcChange) ? 0 : std::max<std::size_t>(start, 1);
      if (chain_ok(span, kOrderedChain + disp_start,
                   kStageCount - disp_start)) {
        ++result.displayed_complete;
      }
    }
  }
  return result;
}

void Tracer::attack_begin_marker(const std::string& name, std::uint64_t at) {
  markers_.push_back(
      Marker{Marker::Kind::kAttackBegin, at, name, {}, {}, 0});
}

void Tracer::attack_end_marker(const std::string& name, std::uint64_t at) {
  markers_.push_back(Marker{Marker::Kind::kAttackEnd, at, name, {}, {}, 0});
}

void Tracer::alert_marker(const std::string& network, const std::string& kind,
                          const std::string& detector, double score,
                          std::uint64_t at) {
  markers_.push_back(
      Marker{Marker::Kind::kAlert, at, kind, network, detector, score});
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(out, "{\"client\":\"%s\",\"seq\":%" PRIu64,
                 client_names_[span.client].c_str(), span.client_seq);
    if (span.device != Span::kNoDevice) {
      std::fprintf(out, ",\"device\":\"%s\"",
                   device_names_[span.device].c_str());
    }
    if (span.version != 0) {
      std::fprintf(out, ",\"version\":%" PRIu64, span.version);
    }
    std::fputs(",\"stages\":{", out);
    bool first = true;
    for (std::size_t i = 0; i < kStageCount; ++i) {
      if (span.hits[i] == 0) continue;
      std::fprintf(out, "%s\"%s\":{\"us\":%" PRIu64 ",\"n\":%u}",
                   first ? "" : ",", to_string(static_cast<Stage>(i)),
                   span.at[i], span.hits[i]);
      first = false;
    }
    std::fputs("}}\n", out);
  }
  for (const Marker& m : markers_) {
    const char* kind = m.kind == Marker::Kind::kAttackBegin ? "attack-begin"
                       : m.kind == Marker::Kind::kAttackEnd ? "attack-end"
                                                            : "alert";
    std::fprintf(out, "{\"marker\":\"%s\",\"us\":%" PRIu64 ",\"label\":\"%s\"",
                 kind, m.at, m.label.c_str());
    if (!m.network.empty()) {
      std::fprintf(out, ",\"network\":\"%s\"", m.network.c_str());
    }
    if (!m.detector.empty()) {
      std::fprintf(out, ",\"detector\":\"%s\",\"score\":%.3f",
                   m.detector.c_str(), m.score);
    }
    std::fputs("}\n", out);
  }
  std::fclose(out);
  return true;
}

ScopedTracer::ScopedTracer(std::function<std::uint64_t()> time_source)
    : tracer_(std::move(time_source)), previous_(Tracer::current_) {
  Tracer::current_ = &tracer_;
}

ScopedTracer::~ScopedTracer() {
  Tracer::current_ = previous_;
}

}  // namespace spire::obs
