// Tests for the observability subsystem (DESIGN.md §7): histogram
// quantile accuracy against an exact reference, snapshot determinism
// across identical sim runs, end-to-end trace-span completeness, and
// the zero-allocation guarantee on the metric hot path.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scada/deployment.hpp"
#include "scada/front_door.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

using namespace spire;

// ---- global allocation counter ----------------------------------------------
// Replacing the global allocation functions lets the hot-path tests
// assert that counter increments and histogram records never allocate.
// The counter is only meaningful between two reads on the same thread;
// gtest's own allocations outside the measured window don't matter.
// Atomic (relaxed) because the threaded-instances test below allocates
// from two threads at once; the hot-path assertions still run their
// measured window single-threaded.

static std::atomic<std::uint64_t> g_alloc_count{0};

// GCC pairs inlined new-expressions with the std::free inside the
// replaced operator delete and warns; the pair is matched by
// construction (operator new allocates with std::malloc).
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

// ---- histogram --------------------------------------------------------------

TEST(Histogram, ExactBelowLinearRange) {
  obs::Histogram h;
  for (std::uint64_t v = 0; v < obs::Histogram::kLinear; ++v) {
    h.record(v);
  }
  // Quantiles of 0..63 are exact: every value has its own bucket.
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(0.5), 32u);
  EXPECT_EQ(h.quantile(1.0), 63u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 63u);
  EXPECT_EQ(h.count(), obs::Histogram::kLinear);
}

TEST(Histogram, QuantileTracksExactReferenceWithinBucketError) {
  // Log-uniform samples across six decades — the shape of latency data.
  obs::Histogram h;
  std::vector<std::uint64_t> reference;
  sim::Rng rng(42);
  for (int i = 0; i < 20000; ++i) {
    const double exponent = rng.uniform01() * 6.0;  // 1 .. 1e6
    const auto v = static_cast<std::uint64_t>(std::pow(10.0, exponent));
    h.record(v);
    reference.push_back(v);
  }
  std::sort(reference.begin(), reference.end());

  for (const double q : {0.10, 0.25, 0.50, 0.90, 0.99}) {
    const std::uint64_t exact =
        reference[static_cast<std::size_t>(q * (reference.size() - 1))];
    const std::uint64_t approx = h.quantile(q);
    // Sub-bucket resolution bounds relative error at ~1/kSub (6.25%);
    // allow 10% for rank rounding on top.
    const double rel =
        std::abs(static_cast<double>(approx) - static_cast<double>(exact)) /
        static_cast<double>(exact);
    EXPECT_LE(rel, 0.10) << "q=" << q << " exact=" << exact
                         << " approx=" << approx;
  }
  EXPECT_EQ(h.count(), reference.size());
  EXPECT_EQ(h.min(), reference.front());
  EXPECT_EQ(h.max(), reference.back());
}

TEST(Histogram, BucketBoundariesRoundTrip) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{63},
        std::uint64_t{64}, std::uint64_t{65}, std::uint64_t{1000},
        std::uint64_t{1} << 20, (std::uint64_t{1} << 40) + 12345,
        ~std::uint64_t{0}}) {
    const std::uint32_t b = obs::Histogram::bucket_of(v);
    ASSERT_LT(b, obs::Histogram::kBuckets);
    EXPECT_LE(obs::Histogram::bucket_floor(b), v);
    if (b + 1 < obs::Histogram::kBuckets) {
      EXPECT_LT(v, obs::Histogram::bucket_floor(b + 1));
    }
  }
}

// ---- registry ---------------------------------------------------------------

TEST(MetricsRegistry, HandlesAndSnapshot) {
  obs::ScopedRegistry scope;
  auto& registry = obs::MetricsRegistry::current();
  std::uint64_t* c = registry.counter("prime.test.widgets");
  std::int64_t* g = registry.gauge("prime.test.depth");
  obs::Histogram* h = registry.histogram("prime.test.latency_us");
  *c = 41;
  ++*c;
  *g = -7;
  h->record(100);
  const std::string json = registry.snapshot_json();
  EXPECT_NE(json.find("\"prime.test.widgets\""), std::string::npos);
  EXPECT_NE(json.find("42"), std::string::npos);
  EXPECT_NE(json.find("-7"), std::string::npos);
  EXPECT_NE(json.find("\"prime.test.latency_us\""), std::string::npos);
  const std::string text = registry.snapshot_text();
  EXPECT_NE(text.find("prime.test.widgets"), std::string::npos);
}

TEST(MetricsRegistry, BinderTombstonesOnDestruction) {
  obs::ScopedRegistry scope;
  std::uint64_t external = 7;
  {
    obs::Binder binder("scada.temp");
    binder.counter("reports", &external);
    EXPECT_NE(obs::MetricsRegistry::current().snapshot_json().find(
                  "scada.temp.reports"),
              std::string::npos);
  }
  // After the binder dies its entries must vanish from snapshots (the
  // registry must never read freed component memory).
  EXPECT_EQ(obs::MetricsRegistry::current().snapshot_json().find(
                "scada.temp.reports"),
            std::string::npos);
}

TEST(FlatMap64, InsertAndFindAcrossGrowth) {
  obs::FlatMap64 map;
  constexpr std::uint32_t kEntries = 20000;
  for (std::uint32_t i = 0; i < kEntries; ++i) {
    const auto [value, inserted] =
        map.lookup_or_insert(std::uint64_t{i} * 2654435761u, i);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(value, i);
  }
  for (std::uint32_t i = 0; i < kEntries; ++i) {
    const std::uint32_t* found = map.find(std::uint64_t{i} * 2654435761u);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, i);
  }
  EXPECT_EQ(map.find(0xDEADBEEFCAFEull), nullptr);
  // Existing mappings win on re-insert (try_emplace semantics).
  const auto [value, inserted] = map.lookup_or_insert(0, 999);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(value, 0u);
}

/// Runs an identical small deployment and returns its metrics snapshot.
std::string snapshot_of_identical_run() {
  sim::Simulator sim;
  obs::ScopedRegistry scope([&sim] { return sim.now(); });
  obs::ScopedTracer tracer([&sim] { return sim.now(); });
  scada::DeploymentConfig config;
  config.f = 1;
  config.k = 0;
  config.cycler_interval = 1 * sim::kSecond;
  scada::SpireDeployment deployment(sim, config);
  deployment.start();
  sim.run_until(20 * sim::kSecond);
  return obs::MetricsRegistry::current().snapshot_json();
}

TEST(MetricsRegistry, SnapshotDeterministicAcrossIdenticalRuns) {
  const std::string first = snapshot_of_identical_run();
  const std::string second = snapshot_of_identical_run();
  EXPECT_GT(first.size(), 100u);
  EXPECT_EQ(first, second);
}

namespace {

/// What one instrumented instance leaves behind: its metrics snapshot
/// and its trace as JSONL.
struct RunArtifacts {
  std::string metrics;
  std::string trace;
};

/// Runs one small instrumented deployment on the calling thread, under
/// its own ScopedRegistry and ScopedTracer. Capture taps make its
/// construction intern NetworkLabels and count mirrored frames into
/// the registry. `variant` changes the workload, so two variants give
/// different artifacts; `tag` keeps file names and labels unique.
RunArtifacts instrumented_run(int variant, const std::string& tag) {
  sim::Simulator sim;
  obs::ScopedRegistry registry([&sim] { return sim.now(); });
  obs::ScopedTracer tracer([&sim] { return sim.now(); });
  scada::DeploymentConfig config;
  config.f = 1;
  config.k = 0;
  config.cycler_interval =
      static_cast<sim::Time>(700 + 300 * variant) * sim::kMillisecond;
  scada::SpireDeployment deployment(sim, config);
  std::uint64_t* frames = registry.registry().counter("test.tap_frames");
  // Labels are new to the process on every call, so two threads insert
  // into the shared interner at once.
  for (const char* label : {"ops", "enterprise", "operations-spire"}) {
    deployment.external_switch().add_tap(
        std::string(label) + "." + tag + std::to_string(variant),
        [frames](const net::PcapRecord&) { ++*frames; });
  }
  deployment.start();
  sim.run_until(10 * sim::kSecond);

  const std::string path = ::testing::TempDir() + "obs_thread_" +
                           std::to_string(variant) + "_" + tag + ".jsonl";
  EXPECT_TRUE(tracer.tracer().write_jsonl(path));
  std::ifstream in(path);
  std::ostringstream trace;
  trace << in.rdbuf();
  std::remove(path.c_str());
  return {registry.registry().snapshot_json(), trace.str()};
}

}  // namespace

// Two instances on two threads at once must each produce exactly what
// the same instance produces alone on the main thread: the current
// registry and tracer are per thread, and the shared NetworkLabels
// interner is locked.
TEST(MetricsRegistry, ThreadedInstancesMatchTheirSoloRuns) {
  const RunArtifacts solo0 = instrumented_run(0, "solo");
  const RunArtifacts solo1 = instrumented_run(1, "solo");
  EXPECT_GT(solo0.metrics.size(), 100u);
  EXPECT_NE(solo0.trace.find("\"client\""), std::string::npos);
  EXPECT_NE(solo0.metrics, solo1.metrics);
  EXPECT_NE(solo0.trace, solo1.trace);

  RunArtifacts threaded0, threaded1;
  std::thread t0([&] { threaded0 = instrumented_run(0, "thread"); });
  std::thread t1([&] { threaded1 = instrumented_run(1, "thread"); });
  t0.join();
  t1.join();
  EXPECT_EQ(threaded0.metrics, solo0.metrics);
  EXPECT_EQ(threaded0.trace, solo0.trace);
  EXPECT_EQ(threaded1.metrics, solo1.metrics);
  EXPECT_EQ(threaded1.trace, solo1.trace);
  // Nothing leaked into the main thread's scopes.
  EXPECT_EQ(obs::Tracer::current(), nullptr);
}

// ---- zero-allocation hot path -----------------------------------------------

TEST(MetricsHotPath, CounterAndHistogramRecordNeverAllocate) {
  obs::ScopedRegistry scope;
  auto& registry = obs::MetricsRegistry::current();
  std::uint64_t* counter = registry.counter("hot.counter");
  obs::Histogram* hist = registry.histogram("hot.histogram");

  const std::uint64_t before = g_alloc_count.load();
  for (std::uint64_t i = 0; i < 100000; ++i) {
    ++*counter;
    hist->record(i * 7919);
  }
  EXPECT_EQ(g_alloc_count.load(), before) << "metric hot path allocated";
  EXPECT_EQ(*counter, 100000u);
  EXPECT_EQ(hist->count(), 100000u);
}

TEST(MetricsHotPath, TracerStageHooksAreAllocationFreeOnExistingSpans) {
  obs::ScopedRegistry registry_scope;
  obs::ScopedTracer scope([] { return std::uint64_t{5}; });
  obs::Tracer& tracer = scope.tracer();
  const std::string client = "client/a";  // SSO: fits inline
  tracer.client_submit(client, 1);  // creates the span (may allocate)

  const std::uint64_t before = g_alloc_count.load();
  for (int i = 0; i < 10000; ++i) {
    tracer.replica_recv(client, 1);
    tracer.po_request(client, 1);
    tracer.executed(client, 1, 2, 3);
  }
  EXPECT_EQ(g_alloc_count.load(), before) << "tracer hook on existing span allocated";
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.spans().front().hits[static_cast<std::size_t>(
                obs::Stage::kExecute)],
            10000u);
}

// ---- end-to-end tracing -----------------------------------------------------

TEST(Tracer, EveryExecutedUpdateHasACompleteSpanChain) {
  sim::Simulator sim;
  obs::ScopedRegistry registry_scope([&sim] { return sim.now(); });
  obs::ScopedTracer tracer_scope([&sim] { return sim.now(); });
  obs::Tracer& tracer = tracer_scope.tracer();

  scada::DeploymentConfig config;
  config.f = 1;
  config.k = 0;
  config.cycler_interval = 1 * sim::kSecond;
  scada::SpireDeployment deployment(sim, config);
  deployment.start();
  sim.run_until(30 * sim::kSecond);

  const obs::Tracer::Completeness c = tracer.completeness();
  EXPECT_GT(c.executed, 0u);
  EXPECT_EQ(c.executed_complete, c.executed)
      << "an executed update is missing a pipeline stage or has "
         "out-of-order stage timestamps";
  EXPECT_GT(c.displayed, 0u);
  EXPECT_EQ(c.displayed_complete, c.displayed);

  // The proxies' periodic status reports correlate back to field
  // devices, so device-tagged spans must exist.
  bool saw_device = false;
  for (const obs::Span& span : tracer.spans()) {
    if (span.device != obs::Span::kNoDevice) {
      EXPECT_FALSE(tracer.device_name(span.device).empty());
      saw_device = true;
    }
  }
  EXPECT_TRUE(saw_device);

  // The summary histograms fed the registry.
  const std::string json =
      obs::MetricsRegistry::current().snapshot_json();
  EXPECT_NE(json.find("trace.submit_to_execute_us"), std::string::npos);

  // Breakdown legs covering the ordered path all carry samples.
  for (const auto& leg : tracer.breakdown()) {
    const std::string name = leg.name;
    if (name == "submit->replica_recv" || name == "preprepare->commit" ||
        name == "commit->execute" || name == "submit->execute (ordered)") {
      EXPECT_FALSE(leg.samples_ms.empty()) << name;
    }
  }
}

TEST(MetricsHotPath, FrontDoorAdmitIsAllocationFreeAndSnapshotDeterministic) {
  auto run_once = [](std::uint64_t* alloc_delta) {
    obs::ScopedRegistry scope;
    scada::FrontDoorConfig config;
    config.rate_per_sec = 1000;
    config.burst = 16;
    config.queue_capacity = 64;
    config.shed_watermark = 32;
    scada::FrontDoor door(config);
    obs::Binder binder("scada.proxy.fd0");
    door.bind(binder);

    const std::uint64_t before = g_alloc_count.load();
    for (std::uint64_t i = 0; i < 50000; ++i) {
      const auto priority = (i % 7 == 0) ? scada::DeltaPriority::kCritical
                                         : scada::DeltaPriority::kTelemetry;
      door.admit(priority, i, i % 70);
    }
    *alloc_delta = g_alloc_count.load() - before;
    EXPECT_GT(door.stats().admitted, 0u);
    EXPECT_GT(door.stats().shed_rate, 0u);
    EXPECT_GT(door.stats().shed_overload, 0u);
    return obs::MetricsRegistry::current().snapshot_json();
  };
  std::uint64_t alloc_a = 0, alloc_b = 0;
  const std::string snap_a = run_once(&alloc_a);
  const std::string snap_b = run_once(&alloc_b);
  EXPECT_EQ(alloc_a, 0u) << "front-door admit path allocated";
  EXPECT_EQ(alloc_b, 0u);
  EXPECT_EQ(snap_a, snap_b) << "front-door counters not deterministic";
  EXPECT_NE(snap_a.find("scada.proxy.fd0.fd_admitted"), std::string::npos);
  EXPECT_NE(snap_a.find("scada.proxy.fd0.fd_queued_high_water"),
            std::string::npos);
}

TEST(Tracer, BatchedDeltasFanStagesToMemberSpans) {
  obs::ScopedRegistry registry_scope;
  std::uint64_t now = 0;
  static std::uint64_t* now_ptr;
  now_ptr = &now;
  obs::ScopedTracer scope([] { return *now_ptr; });
  obs::Tracer& tracer = scope.tracer();

  const std::string client = "client/proxy-fleet0";
  // Field changes happen first, then the proxy coalesces three device
  // deltas into the batch submitted as (client, seq 1).
  now = 10;
  tracer.plc_change("fd0", 0);
  tracer.plc_change("fd2", 1);
  now = 20;
  tracer.proxy_batch_delta("fd0", client, 1, {false, true});
  tracer.proxy_batch_delta("fd1", client, 1, {true, true});
  tracer.proxy_batch_delta("fd2", client, 1, {true, false});
  tracer.client_submit(client, 1);
  now = 30;
  tracer.replica_recv(client, 1);
  tracer.po_request(client, 1);
  now = 40;
  tracer.executed(client, 1, 32, 36);
  tracer.master_publish(7, client, 1);
  now = 50;
  tracer.hmi_recv(7);
  tracer.hmi_display(7);

  // One parent + three members.
  ASSERT_EQ(tracer.spans().size(), 4u);
  const auto& spans = tracer.spans();
  EXPECT_EQ(spans[0].member_count, 3u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(spans[i].parent, 0u);
    // Every pipeline stage fanned out to the member.
    EXPECT_NE(spans[i].at[static_cast<std::size_t>(obs::Stage::kExecute)], 0u);
    EXPECT_NE(spans[i].at[static_cast<std::size_t>(obs::Stage::kHmiDisplay)],
              0u);
  }
  // Members with a pending field change carry its timestamp.
  EXPECT_EQ(spans[1].at[static_cast<std::size_t>(obs::Stage::kPlcChange)], 10u);
  EXPECT_EQ(spans[2].at[static_cast<std::size_t>(obs::Stage::kPlcChange)], 0u);
  EXPECT_EQ(spans[3].at[static_cast<std::size_t>(obs::Stage::kPlcChange)], 10u);

  const obs::Tracer::Completeness c = tracer.completeness();
  // Members never double-count the update-level tallies.
  EXPECT_EQ(c.executed, 1u);
  EXPECT_EQ(c.executed_complete, 1u);
  EXPECT_EQ(c.displayed, 1u);
  EXPECT_EQ(c.displayed_complete, 1u);
  // Per-constituent chain accounting: all three deltas completed.
  EXPECT_EQ(c.deltas_expected, 3u);
  EXPECT_EQ(c.deltas_complete, 3u);
}

TEST(Tracer, WriteJsonlEmitsOneObjectPerSpan) {
  obs::ScopedRegistry registry_scope;
  obs::ScopedTracer scope([] { return std::uint64_t{9}; });
  obs::Tracer& tracer = scope.tracer();
  tracer.client_submit("client/a", 1);
  tracer.client_submit("client/a", 2);
  tracer.client_submit("client/b", 1);

  const std::string path = ::testing::TempDir() + "obs_trace_test.jsonl";
  ASSERT_TRUE(tracer.write_jsonl(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  int lines = 0;
  int ch;
  while ((ch = std::fgetc(f)) != EOF) {
    if (ch == '\n') ++lines;
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(lines, 3);
}

}  // namespace
