#include "layers.hpp"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <tuple>
#include <memory>

#include "crypto/keyring.hpp"
#include "crypto/merkle.hpp"
#include "dnp3/app.hpp"
#include "dnp3/framing.hpp"
#include "modbus/pdu.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plc/plc.hpp"
#include "plc/rtu.hpp"
#include "prime/messages.hpp"
#include "prime/replica.hpp"
#include "prime/transport.hpp"
#include "scada/hmi.hpp"
#include "scada/master.hpp"
#include "spines/overlay.hpp"

namespace perfbench {

namespace sim = spire::sim;
namespace net = spire::net;
namespace obs = spire::obs;
namespace crypto = spire::crypto;
namespace prime = spire::prime;
namespace scada = spire::scada;
namespace spines = spire::spines;
namespace util = spire::util;

Counters parse_snapshot(const std::string& json) {
  // Histograms are skipped: only the traced run registers the tracer's,
  // and the counters must compare equal across traced and plain runs.
  Counters out;
  const std::string key = "{\"name\":\"";
  for (std::size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + 1)) {
    const std::size_t name_start = at + key.size();
    const std::size_t name_end = json.find('"', name_start);
    const std::size_t kind_at = json.find("\"kind\":\"", name_end);
    if (name_end == std::string::npos || kind_at == std::string::npos) break;
    const std::size_t kind_start = kind_at + 8;
    const std::string kind =
        json.substr(kind_start, json.find('"', kind_start) - kind_start);
    if (kind == "histogram") continue;
    const std::size_t value_at = json.find("\"value\":", kind_start);
    if (value_at == std::string::npos) break;
    out[json.substr(name_start, name_end - name_start)] =
        std::strtoll(json.c_str() + value_at + 8, nullptr, 10);
  }
  return out;
}

std::uint64_t simulation_digest(const RunResult& run, const Counters& counters) {
  std::uint64_t h = run.schedule_digest;
  for (const std::uint64_t v :
       {run.attempted, run.failed, run.missed, run.overtaken, run.outage_us,
        run.events, run.recoveries, run.recovery_time_us, run.faults_skipped,
        run.disturbed_at_end}) {
    h = mix64(h, v);
  }
  for (const Time v : run.display_us) h = mix64(h, v);
  for (const Time v : run.actuate_us) h = mix64(h, v);
  for (const auto& [name, value] : counters) {
    h = mix64(h, std::hash<std::string>{}(name));
    h = mix64(h, static_cast<std::uint64_t>(value));
  }
  return h;
}

namespace {

// ---- what the traced run records ----------------------------------------

/// Sums of public per-component stats that the registry does not carry.
struct HostTotals {
  std::uint64_t daemon_sent = 0;       ///< datagrams from daemon hosts
  std::uint64_t daemon_delivered = 0;  ///< datagrams into daemon hosts
  std::uint64_t firewall_drops = 0;
  std::uint64_t frames = 0;       ///< switch frames forwarded or flooded
  std::uint64_t chaos_drops = 0;  ///< switch frames dropped by chaos
  std::uint64_t modbus_requests = 0;  ///< served by PLCs
  std::uint64_t dnp3_polls = 0;       ///< served by RTUs, one per poll
  std::uint64_t firewall_rules = 0;
  std::uint64_t hosts = 0;
};

HostTotals host_totals(scada::SpireDeployment& sys) {
  HostTotals t;
  for (const auto& host : sys.network().hosts()) {
    const net::HostStats& s = host->stats();
    t.firewall_drops += s.dropped_firewall_in + s.dropped_firewall_out;
    t.firewall_rules += host->firewall().allow.size();
    ++t.hosts;
    // Every host but the field devices runs a Spines daemon; proxies
    // also speak the field protocol on their second NIC, subtracted
    // below from the devices' own request counts.
    if (host->name().rfind("plc-", 0) == 0) continue;
    t.daemon_sent += s.datagrams_sent;
    t.daemon_delivered += s.datagrams_delivered;
  }
  for (std::uint32_t s = 0; s < sys.site_count(); ++s) {
    for (net::Switch* sw : {&sys.internal_site_switch(s), &sys.external_site_switch(s)}) {
      t.frames += sw->stats().frames_forwarded + sw->stats().frames_flooded;
      t.chaos_drops += sw->stats().frames_dropped_chaos;
    }
  }
  for (const auto& device : sys.config().scenario.devices) {
    spire::plc::FieldDevice& fd = sys.plc(device.name);
    if (const auto* p = dynamic_cast<const spire::plc::Plc*>(&fd)) {
      t.modbus_requests += p->stats().modbus_requests;
    } else if (const auto* r = dynamic_cast<const spire::plc::Rtu*>(&fd)) {
      t.dnp3_polls += r->stats().dnp3_requests;
    }
  }
  // Field requests and their replies travel proxy <-> device; they are
  // not sealed, so take them out of the daemon-host datagram counts.
  t.daemon_sent -= std::min(t.daemon_sent, t.modbus_requests + t.dnp3_polls);
  t.daemon_delivered -=
      std::min(t.daemon_delivered, t.modbus_requests + t.dnp3_polls);
  return t;
}

/// Deterministic sample of a size distribution: `count` sizes at evenly
/// spaced ranks.
std::vector<std::size_t> size_mix(const std::map<std::size_t, std::uint64_t>& hist,
                                  std::size_t count) {
  std::uint64_t total = 0;
  for (const auto& [size, n] : hist) total += n;
  std::vector<std::size_t> out;
  if (total == 0) return std::vector<std::size_t>(count, 256);
  auto it = hist.begin();
  std::uint64_t seen = it->second;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t rank = (2 * i + 1) * total / (2 * count);
    while (seen <= rank && std::next(it) != hist.end()) {
      ++it;
      seen += it->second;
    }
    out.push_back(it->first);
  }
  return out;
}

struct Recorded {
  Counters before, after;
  HostTotals hosts_before, hosts_after;
  std::map<std::size_t, std::uint64_t> frame_sizes;  ///< switch tap
  std::vector<prime::ClientUpdate> updates;          ///< executed, replica 0
  std::vector<Time> update_times;
  std::vector<std::size_t> update_sizes;  ///< signed bytes per update
  scada::MasterConfig master_config;
  std::vector<std::string> clients;
  std::size_t firewall_rules_per_host = 0;
  // Tracer stage waits, simulated microseconds.
  std::map<std::string, std::vector<double>> waits_ms;
};

constexpr std::size_t kMaxRecordedUpdates = 20000;

std::int64_t delta(const Recorded& rec, const std::string& name) {
  const auto b = rec.before.find(name);
  const auto a = rec.after.find(name);
  const std::int64_t after = a == rec.after.end() ? 0 : a->second;
  const std::int64_t before = b == rec.before.end() ? 0 : b->second;
  return after - before;
}

/// Sum of window deltas over metrics named prefix*suffix.
std::int64_t delta_sum(const Recorded& rec, const std::string& prefix,
                       const std::string& suffix) {
  std::int64_t total = 0;
  for (const auto& [name, value] : rec.after) {
    if (name.size() < prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    total += delta(rec, name);
  }
  return total;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// ---- replays ---------------------------------------------------------------

/// Times `batch` (which runs `ops` operations) until at least
/// `min_ns` of CPU is spent; each batch is one span. Returns CPU
/// nanoseconds per operation.
double price(SpanRecorder& spans, const char* name, std::uint64_t ops,
             const std::function<void()>& batch,
             std::uint64_t min_ns = 40'000'000) {
  std::uint64_t spent = 0;
  std::uint64_t done = 0;
  while (spent < min_ns || done == 0) {
    const std::uint64_t c0 = cpu_ns();
    spans.open(name);
    batch();
    spans.close(ops);
    spent += cpu_ns() - c0;
    done += ops;
  }
  return static_cast<double>(spent) / static_cast<double>(done);
}

util::Bytes filler(std::size_t size, std::uint8_t seed) {
  util::Bytes b(size);
  for (std::size_t i = 0; i < size; ++i) {
    b[i] = static_cast<std::uint8_t>(seed + i * 31);
  }
  return b;
}

/// Kernel cost of one scheduled callback: 256 actors re-arming
/// themselves at small offsets, as the deployment's timers and
/// deliveries do.
double price_dispatch(SpanRecorder& spans) {
  constexpr std::uint64_t kEvents = 200'000;
  return price(spans, "replay.sim.dispatch", kEvents, [] {
    sim::Simulator s;
    std::uint64_t fired = 0;
    struct Actor {
      sim::Simulator* s;
      std::uint64_t* fired;
      std::uint64_t step;
      void operator()() const {
        if (++*fired < kEvents) s->schedule_after(1 + step % 7, *this);
      }
    };
    for (std::uint64_t i = 0; i < 256; ++i) {
      s.schedule_after(i % 13, Actor{&s, &fired, i});
    }
    s.run(kEvents);
  });
}

struct CryptoCosts {
  double seal_ns = 0, open_ns = 0, sign_ns = 0, verify_ns = 0, merkle_ns = 0;
};

constexpr std::size_t kMerkleBatch = 4;

/// Link sealing on the recorded frame sizes, signatures on the recorded
/// update sizes, and Merkle batch sealing. Every open and verify must
/// pass: a failure aborts the run.
CryptoCosts price_crypto(SpanRecorder& spans, const std::vector<std::size_t>& frame_sizes,
                         const std::vector<std::size_t>& update_sizes) {
  CryptoCosts c;
  const crypto::Keyring keyring("perfbench-crypto");
  std::vector<util::Bytes> plain;
  for (std::size_t i = 0; i < frame_sizes.size(); ++i) {
    const std::size_t size = frame_sizes[i] > crypto::SecureChannel::kOverhead
                                 ? frame_sizes[i] - crypto::SecureChannel::kOverhead
                                 : 1;
    plain.push_back(filler(size, static_cast<std::uint8_t>(i)));
  }
  crypto::SecureChannel tx(keyring.link_key("a", "b"));
  const crypto::SecureChannel rx(keyring.link_key("a", "b"));
  std::vector<util::Bytes> sealed(plain.size());
  c.seal_ns = price(spans, "replay.crypto.seal", plain.size(), [&] {
    for (std::size_t i = 0; i < plain.size(); ++i) sealed[i] = tx.seal(plain[i]);
  });
  c.open_ns = price(spans, "replay.crypto.open", sealed.size(), [&] {
    for (const auto& s : sealed) {
      if (!rx.open(s)) std::abort();
    }
  });

  const crypto::Signer signer("client/replay", keyring.identity_key("client/replay"));
  crypto::Verifier verifier;
  verifier.add_identity("client/replay", keyring.identity_key("client/replay"));
  std::vector<util::Bytes> messages;
  for (std::size_t i = 0; i < update_sizes.size(); ++i) {
    messages.push_back(filler(update_sizes[i], static_cast<std::uint8_t>(i)));
  }
  std::vector<crypto::Signature> sigs(messages.size());
  c.sign_ns = price(spans, "replay.crypto.sign", messages.size(), [&] {
    for (std::size_t i = 0; i < messages.size(); ++i) sigs[i] = signer.sign(messages[i]);
  });
  c.verify_ns = price(spans, "replay.crypto.verify", messages.size(), [&] {
    for (std::size_t i = 0; i < messages.size(); ++i) {
      if (!verifier.verify("client/replay", messages[i], sigs[i])) std::abort();
    }
  });

  const std::size_t batches = std::max<std::size_t>(1, messages.size() / kMerkleBatch);
  c.merkle_ns = price(spans, "replay.crypto.merkle_batch", batches, [&] {
    for (std::size_t b = 0; b < batches; ++b) {
      std::vector<prime::Envelope::BatchItem> items;
      for (std::size_t i = 0; i < kMerkleBatch; ++i) {
        items.push_back({prime::MsgType::kPoRequest,
                         messages[(b * kMerkleBatch + i) % messages.size()]});
      }
      const auto wires = prime::Envelope::seal_batch(signer, items);
      if (wires.size() != kMerkleBatch) std::abort();
    }
  });
  return c;
}

struct CodecCosts {
  double modbus_ns = 0, dnp3_ns = 0;
};

/// One field poll's encode/decode work: Modbus reads discrete inputs
/// then input registers; DNP3 does one class-0 integrity poll.
CodecCosts price_codecs(SpanRecorder& spans, std::size_t modbus_breakers,
                        std::size_t dnp3_breakers) {
  CodecCosts c;
  constexpr std::uint64_t kPolls = 2000;
  std::uint64_t sink = 0;
  c.modbus_ns = price(spans, "replay.modbus.poll_codec", kPolls, [&] {
    namespace mb = spire::modbus;
    for (std::uint64_t p = 0; p < kPolls; ++p) {
      mb::ReadBitsRequest bits{mb::FunctionCode::kReadDiscreteInputs, 0,
                               static_cast<std::uint16_t>(modbus_breakers)};
      mb::ReadRegistersRequest regs{mb::FunctionCode::kReadInputRegisters, 0,
                                    static_cast<std::uint16_t>(modbus_breakers)};
      mb::ReadBitsResponse bits_resp{mb::FunctionCode::kReadDiscreteInputs,
                                     std::vector<bool>(modbus_breakers, (p & 1) != 0)};
      mb::ReadRegistersResponse regs_resp{
          mb::FunctionCode::kReadInputRegisters,
          std::vector<std::uint16_t>(modbus_breakers, static_cast<std::uint16_t>(p))};
      for (const mb::Request& req : {mb::Request{bits}, mb::Request{regs}}) {
        const mb::Adu adu{static_cast<std::uint16_t>(p), 1, mb::encode_request(req)};
        const auto back = mb::Adu::decode(adu.encode());
        if (!back || !mb::decode_request(back->pdu)) std::abort();
      }
      for (const mb::Response& resp : {mb::Response{bits_resp}, mb::Response{regs_resp}}) {
        const mb::Adu adu{static_cast<std::uint16_t>(p), 1, mb::encode_response(resp)};
        const auto back = mb::Adu::decode(adu.encode());
        if (!back) std::abort();
        const auto decoded = mb::decode_response(back->pdu);
        sink += decoded ? decoded->index() : 0;
      }
    }
  });
  c.dnp3_ns = price(spans, "replay.dnp3.poll_codec", kPolls, [&] {
    namespace d3 = spire::dnp3;
    for (std::uint64_t p = 0; p < kPolls; ++p) {
      d3::AppRequest req;
      req.function = d3::AppFunction::kRead;
      req.class0_poll = true;
      const auto req_wire = d3::wrap_fragment(10, 1, static_cast<std::uint8_t>(p & 63),
                                              req.encode(), true);
      const auto req_back = d3::unwrap_fragment(req_wire);
      if (!req_back || !d3::AppRequest::decode(req_back->app_fragment)) std::abort();
      d3::AppResponse resp;
      resp.binary_inputs.assign(dnp3_breakers, d3::BinaryPoint{(p & 1) != 0, true});
      resp.analog_inputs.assign(dnp3_breakers,
                                d3::AnalogPoint{static_cast<std::int16_t>(p & 0x7FFF), true});
      const auto resp_wire = d3::wrap_fragment(1, 10, static_cast<std::uint8_t>(p & 63),
                                               resp.encode(), false);
      const auto resp_back = d3::unwrap_fragment(resp_wire);
      if (!resp_back) std::abort();
      const auto decoded = d3::AppResponse::decode(resp_back->app_fragment);
      sink += decoded ? decoded->binary_inputs.size() : 0;
    }
  });
  if (sink == 0) std::abort();
  return c;
}

/// Switch forwarding plus host delivery of one frame through a
/// default-deny firewall holding the deployment's mean rule count.
/// Returns CPU per frame net of kernel dispatch.
double price_frames(SpanRecorder& spans, const std::vector<std::size_t>& sizes,
                    std::size_t rules, double dispatch_ns) {
  std::uint64_t events = 0;
  std::uint64_t frames = 0;
  std::uint64_t delivered = 0;
  const double per_frame = price(spans, "replay.net.frame", sizes.size(), [&] {
    sim::Simulator s;
    net::Network network(s);
    net::SwitchConfig sc;
    sc.name = "replay";
    sc.static_port_binding = true;
    net::Switch& sw = network.add_switch(sc);
    net::Host& a = network.add_host("a");
    net::Host& b = network.add_host("b");
    a.add_interface(net::MacAddress::from_id(1), net::IpAddress::make(10, 9, 0, 1), 24);
    b.add_interface(net::MacAddress::from_id(2), net::IpAddress::make(10, 9, 0, 2), 24);
    network.connect(a, 0, sw);
    network.connect(b, 0, sw);
    for (net::Host* h : {&a, &b}) {
      net::Host& peer = h == &a ? b : a;
      h->use_static_arp(true);
      h->add_arp_entry(peer.ip(), peer.mac());
      h->firewall().default_deny = true;
      // Non-matching allows first, the matching one in the middle.
      for (std::size_t r = 0; r < rules; ++r) {
        const bool match = r == rules / 2;
        const std::uint16_t port = static_cast<std::uint16_t>(match ? 8100 : 9100 + r);
        h->firewall().allow.push_back(
            net::FirewallRule{net::Direction::kOutbound, peer.ip(), port, 8100});
        h->firewall().allow.push_back(
            net::FirewallRule{net::Direction::kInbound, peer.ip(), port, 8100});
      }
    }
    b.bind_udp(8100, [&delivered](const net::Datagram&) { ++delivered; });
    std::vector<util::Bytes> payloads;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      payloads.push_back(filler(sizes[i], static_cast<std::uint8_t>(i)));
    }
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      s.schedule_at(i * 20, [&, i] { a.send_udp(b.ip(), 8100, 8100, payloads[i]); });
    }
    const std::uint64_t e0 = s.events_executed();
    s.run();
    events += s.events_executed() - e0;
    frames += sizes.size();
  });
  if (delivered != frames) std::abort();  // every replayed frame must land
  const double kernel = dispatch_ns * static_cast<double>(events) /
                        static_cast<double>(frames);
  return std::max(0.0, per_frame - kernel);
}

/// A flooding overlay of `n` daemons on one switch, fed broadcast
/// messages of the recorded sizes at the recorded rate. Links are left
/// unsealed so the CPU left after kernel dispatch and frame handling is
/// the daemons' own; link crypto is priced by crypto.seal_ns/open_ns.
/// Returns self time per handled data message (originated, forwarded,
/// delivered or dropped as a duplicate).
double price_overlay(SpanRecorder& spans, std::uint32_t n,
                     const std::vector<std::size_t>& sizes, double messages_per_sim_s,
                     double dispatch_ns, double frame_ns) {
  sim::Simulator s;
  net::Network network(s);
  net::SwitchConfig sc;
  sc.name = "replay-overlay";
  sc.static_port_binding = true;
  net::Switch& sw = network.add_switch(sc);
  std::vector<net::Host*> hosts;
  for (std::uint32_t i = 0; i < n; ++i) {
    net::Host& h = network.add_host("r" + std::to_string(i));
    h.add_interface(net::MacAddress::from_id(100 + i),
                    net::IpAddress::make(10, 8, 0, static_cast<std::uint8_t>(1 + i)), 24);
    network.connect(h, 0, sw);
    hosts.push_back(&h);
  }
  for (net::Host* a : hosts) {
    a->use_static_arp(true);
    a->firewall().default_deny = true;
    for (net::Host* b : hosts) {
      if (a != b) a->add_arp_entry(b->ip(), b->mac());
    }
  }
  const crypto::Keyring keyring("perfbench-overlay");
  spines::DaemonConfig tmpl;
  tmpl.intrusion_tolerant = false;
  tmpl.mode = spines::ForwardingMode::kPriorityFlood;
  spines::Overlay overlay(s, keyring, tmpl);
  std::vector<std::string> ids;
  for (std::uint32_t i = 0; i < n; ++i) {
    ids.push_back("r" + std::to_string(i));
    overlay.add_node(ids.back(), *hosts[i], 8100);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) overlay.add_link(ids[i], ids[j]);
  }
  overlay.build();
  overlay.allow_link_traffic();
  std::uint64_t delivered = 0;
  for (const auto& id : ids) {
    overlay.daemon(id).open_session(
        9000, [&delivered](const spines::DataBody&) { ++delivered; });
  }
  overlay.start_all();
  s.run_until(2 * sim::kSecond);  // hellos and link-state converge

  auto handled = [&] {
    std::uint64_t total = 0;
    for (const auto& id : ids) {
      const auto& st = overlay.daemon(id).stats();
      total += st.data_originated + st.data_forwarded + st.data_delivered + st.dropped_dedup;
    }
    return total;
  };
  // Two simulated seconds of traffic at the deployment's rate.
  const std::uint64_t messages = std::max<std::uint64_t>(
      200, static_cast<std::uint64_t>(2 * messages_per_sim_s));
  const Time gap = 2 * sim::kSecond / messages;
  std::vector<util::Bytes> payloads;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    payloads.push_back(filler(sizes[i], static_cast<std::uint8_t>(i)));
  }
  const Time t0 = s.now();
  for (std::uint64_t m = 0; m < messages; ++m) {
    s.schedule_at(t0 + m * gap, [&, m] {
      overlay.daemon(ids[m % n]).session_send(9000, spines::kBroadcastDst, 9000,
                                              payloads[m % payloads.size()],
                                              spines::Priority::kHigh);
    });
  }
  const std::uint64_t ops0 = handled();
  const std::uint64_t frames0 = sw.stats().frames_forwarded + sw.stats().frames_flooded;
  const std::uint64_t events0 = s.events_executed();
  const std::uint64_t c0 = cpu_ns();
  spans.open("replay.spines.flood");
  s.run_until(t0 + 2 * sim::kSecond + 500 * sim::kMillisecond);
  const double ops = static_cast<double>(handled() - ops0);
  spans.close(static_cast<std::uint64_t>(ops));
  const double cpu = static_cast<double>(cpu_ns() - c0);
  const double frames =
      static_cast<double>(sw.stats().frames_forwarded + sw.stats().frames_flooded - frames0);
  const double events = static_cast<double>(s.events_executed() - events0);
  if (delivered == 0 || ops == 0) std::abort();
  return std::max(0.0, cpu - events * dispatch_ns - frames * frame_ns) / ops;
}

class NullApp : public prime::Application {
 public:
  void apply(const prime::ClientUpdate&, const prime::ExecutionInfo&) override {}
  [[nodiscard]] util::Bytes snapshot() const override { return {}; }
  void restore(std::span<const std::uint8_t>) override {}
};

struct PrimeCosts {
  double us_per_update = 0;     ///< replica self time per ordered update
  double on_message_ns = 0;     ///< mean Replica::on_message call
  double updates_per_pp = 0;
};

/// Replicas on the loopback fabric ordering the recorded client updates
/// at their recorded times. Every on_message call is timed.
PrimeCosts price_prime(SpanRecorder& spans, const WorkloadSpec& spec,
                       const Recorded& rec, double dispatch_ns) {
  PrimeCosts out;
  sim::Simulator s;
  const crypto::Keyring keyring(spec.config.keyring_seed);
  prime::PrimeConfig pc = spec.config.prime;
  pc.f = spec.config.f;
  pc.k = spec.config.k;
  pc.client_identities = rec.clients;
  prime::LoopbackFabric fabric(s, pc.n());
  std::vector<std::unique_ptr<NullApp>> apps;
  std::vector<std::unique_ptr<prime::Replica>> replicas;
  sim::Rng rng(spec.config.seed);
  std::uint64_t calls = 0;
  std::uint64_t call_ns = 0;
  for (prime::ReplicaId i = 0; i < pc.n(); ++i) {
    apps.push_back(std::make_unique<NullApp>());
    replicas.push_back(std::make_unique<prime::Replica>(
        s, i, pc, keyring, *apps.back(), fabric.transport_for(i), rng.fork()));
    prime::Replica* replica = replicas.back().get();
    fabric.attach(i, [&, replica](const util::Bytes& bytes) {
      const std::uint64_t t0 = wall_ns();
      replica->on_message(bytes);
      call_ns += wall_ns() - t0;
      ++calls;
    });
  }
  std::map<std::string, std::unique_ptr<crypto::Signer>> signers;
  for (const auto& client : rec.clients) {
    signers[client] =
        std::make_unique<crypto::Signer>(client, keyring.identity_key(client));
  }
  for (auto& r : replicas) r->start();
  s.run_until(300 * sim::kMillisecond);

  const Time base = rec.update_times.empty() ? 0 : rec.update_times.front();
  const Time t0 = s.now();
  for (std::size_t u = 0; u < rec.updates.size(); ++u) {
    const prime::ClientUpdate& update = rec.updates[u];
    const auto signer = signers.find(update.client);
    if (signer == signers.end()) continue;
    util::ByteWriter w;
    update.encode(w);
    const util::Bytes bytes =
        prime::Envelope::make(prime::MsgType::kClientUpdate, *signer->second, w.take())
            .encode();
    s.schedule_at(t0 + (rec.update_times[u] - base), [&, bytes] {
      for (std::size_t i = 0; i < replicas.size(); ++i) {
        const std::uint64_t c = wall_ns();
        replicas[i]->on_message(bytes);
        call_ns += wall_ns() - c;
        ++calls;
      }
    });
  }
  const Time span_us = rec.update_times.empty()
                           ? 0
                           : rec.update_times.back() - base;
  const std::uint64_t events0 = s.events_executed();
  const std::uint64_t c0 = cpu_ns();
  spans.open("replay.prime.order");
  s.run_until(t0 + span_us + 2 * sim::kSecond);
  std::uint64_t executed = 0;
  std::uint64_t preprepares = 0;
  for (const auto& r : replicas) {
    executed = std::max(executed, r->stats().updates_executed);
    preprepares += r->stats().preprepares_sent;
  }
  spans.close(executed);
  const double cpu = static_cast<double>(cpu_ns() - c0);
  const double events = static_cast<double>(s.events_executed() - events0);
  if (executed == 0) std::abort();
  out.us_per_update =
      std::max(0.0, cpu - events * dispatch_ns) / static_cast<double>(executed) / 1e3;
  out.on_message_ns = calls ? static_cast<double>(call_ns) / static_cast<double>(calls) : 0;
  out.updates_per_pp =
      preprepares ? static_cast<double>(executed) / static_cast<double>(preprepares) : 0;
  return out;
}

struct ScadaCosts {
  double apply_ns = 0;
  double vote_ns = 0;
};

/// Fresh masters apply the recorded updates (timed); their HMI output
/// is then voted on by a fresh HMI (each on_master_output timed).
ScadaCosts price_scada(SpanRecorder& spans, const WorkloadSpec& spec,
                       const Recorded& rec) {
  ScadaCosts out;
  const crypto::Keyring keyring(spec.config.keyring_seed);
  const std::uint32_t n = 3 * spec.config.f + 2 * spec.config.k + 1;
  const std::string hmi_id = scada::SpireDeployment::hmi_identity(0);
  std::vector<std::vector<util::Bytes>> outputs(n);
  std::vector<std::unique_ptr<scada::ScadaMaster>> masters;
  for (std::uint32_t i = 0; i < n; ++i) {
    scada::MasterConfig mc = rec.master_config;
    mc.replica_id = i;
    masters.push_back(std::make_unique<scada::ScadaMaster>(
        mc, keyring, [&outputs, i, hmi_id](const std::string& client, const util::Bytes& data) {
          if (client == hmi_id) outputs[i].push_back(data);
        }));
  }
  std::uint64_t applied = 0;
  const std::uint64_t c0 = cpu_ns();
  spans.open("replay.scada.master_apply");
  for (std::size_t u = 0; u < rec.updates.size(); ++u) {
    prime::ExecutionInfo info;
    info.order_seq = u + 1;
    for (auto& m : masters) {
      m->apply(rec.updates[u], info);
      ++applied;
    }
  }
  spans.close(applied);
  if (applied > 0) {
    out.apply_ns = static_cast<double>(cpu_ns() - c0) / static_cast<double>(applied);
  }

  sim::Simulator s;
  crypto::Verifier replica_verifier;
  for (std::uint32_t i = 0; i < n; ++i) {
    replica_verifier.add_identity(prime::replica_identity(i),
                                  keyring.identity_key(prime::replica_identity(i)));
  }
  scada::HmiConfig hc;
  hc.identity = hmi_id;
  hc.f = spec.config.f;
  scada::Hmi hmi(s, hc, keyring, replica_verifier, [](const util::Bytes&) {});
  std::uint64_t calls = 0;
  const std::uint64_t c1 = cpu_ns();
  spans.open("replay.scada.hmi_vote");
  std::size_t most = 0;
  for (const auto& o : outputs) most = std::max(most, o.size());
  for (std::size_t k = 0; k < most; ++k) {
    for (std::uint32_t i = 0; i < n; ++i) {
      if (k >= outputs[i].size()) continue;
      hmi.on_master_output(outputs[i][k]);
      ++calls;
    }
  }
  spans.close(calls);
  if (calls > 0) {
    out.vote_ns = static_cast<double>(cpu_ns() - c1) / static_cast<double>(calls);
  }
  return out;
}

}  // namespace

TracedResult run_traced(const WorkloadSpec& spec, std::uint64_t seed,
                        double run_seconds, const std::string& spans_path) {
  TracedResult out;
  SpanRecorder spans;
  Recorded rec;
  const scada::DeploymentConfig& config = spec.config;

  // ---- the traced deployment run ----------------------------------------
  {
    obs::ScopedRegistry registry;
    obs::ScopedTracer tracer;
    RunHooks hooks;
    hooks.spans = &spans;
    hooks.on_ready = [&](scada::SpireDeployment& sys) {
      rec.before = parse_snapshot(registry.registry().snapshot_json());
      rec.hosts_before = host_totals(sys);
      for (net::Switch* sw : {&sys.internal_switch(), &sys.external_switch()}) {
        sw->add_tap(sw->config().name, [&rec](const net::PcapRecord& r) {
          ++rec.frame_sizes[r.frame.payload.size()];
        });
      }
      sys.replica(0).set_execute_observer(
          [&rec, &sys](const prime::ClientUpdate& u, const prime::ExecutionInfo&) {
            rec.update_sizes.push_back(u.signed_bytes().size());
            if (rec.updates.size() >= kMaxRecordedUpdates) return;
            rec.updates.push_back(u);
            rec.update_times.push_back(sys.network().sim().now());
          });
      rec.clients = sys.config().prime.client_identities;
      rec.master_config.scenario = config.scenario;
      for (const auto& device : config.scenario.devices) {
        rec.master_config.device_proxy[device.name] =
            scada::SpireDeployment::proxy_identity(device.name);
      }
      for (std::size_t j = 0; j < config.hmi_count; ++j) {
        rec.master_config.hmis.push_back(scada::SpireDeployment::hmi_identity(j));
      }
    };
    hooks.on_window_end = [&](scada::SpireDeployment& sys) {
      rec.after = parse_snapshot(registry.registry().snapshot_json());
      rec.hosts_after = host_totals(sys);
      sys.replica(0).set_execute_observer({});
    };
    out.run = run_workload(spec, seed, run_seconds, hooks);
    out.digest = simulation_digest(out.run, rec.after);
    rec.firewall_rules_per_host =
        rec.hosts_after.hosts ? rec.hosts_after.firewall_rules / rec.hosts_after.hosts : 0;

    // Stage waits from the deployment's own tracer, over the spans that
    // reached both stages.
    using obs::Stage;
    const std::vector<std::tuple<std::string, Stage, Stage>> legs = {
        {"prime.wait.po_batch_ms", Stage::kReplicaRecv, Stage::kPoRequest},
        {"prime.wait.preprepare_ms", Stage::kPoRequest, Stage::kPrePrepare},
        {"prime.wait.commit_ms", Stage::kPrePrepare, Stage::kCommit},
        {"scada.wait.plc_to_submit_ms", Stage::kPlcChange, Stage::kSubmit},
        {"scada.wait.publish_to_display_ms", Stage::kPublish, Stage::kHmiDisplay},
    };
    for (const obs::Span& span : tracer.tracer().spans()) {
      for (const auto& [name, from, to] : legs) {
        if (span.has(from) && span.has(to) && span.time(to) >= span.time(from)) {
          rec.waits_ms[name].push_back(
              static_cast<double>(span.time(to) - span.time(from)) / 1e3);
        }
      }
    }
  }

  const RunResult& run = out.run;
  const double window_s = static_cast<double>(run.window_us) / 1e6;
  const std::uint32_t n = 3 * config.f + 2 * config.k + 1;
  std::int64_t ordered = 0;
  for (std::uint32_t r = 0; r < n; ++r) {
    ordered = std::max(ordered, delta(rec, "prime.replica" + std::to_string(r) +
                                               ".updates_executed"));
  }
  const double updates = static_cast<double>(std::max<std::int64_t>(1, ordered));
  auto per_update = [&](double v) { return v / updates; };
  auto per_sim_s = [&](double v) { return v / window_s; };
  auto& m = out.metrics;
  auto add = [&m](std::string name, double value, std::string unit) {
    m.push_back(Metric{std::move(name), value, std::move(unit)});
  };

  // ---- replays ----------------------------------------------------------
  const std::vector<std::size_t> frame_sizes = size_mix(rec.frame_sizes, 1024);
  std::map<std::size_t, std::uint64_t> update_hist;
  for (std::size_t size : rec.update_sizes) ++update_hist[size];
  const std::vector<std::size_t> update_sizes = size_mix(update_hist, 512);

  const double dispatch_ns = price_dispatch(spans);
  const CryptoCosts crypto_cost = price_crypto(spans, frame_sizes, update_sizes);
  std::size_t modbus_breakers = 0, modbus_devices = 0;
  std::size_t dnp3_breakers = 0, dnp3_devices = 0;
  for (const auto& d : config.scenario.devices) {
    if (d.protocol == scada::FieldProtocol::kDnp3) {
      dnp3_breakers += d.breaker_names.size();
      ++dnp3_devices;
    } else {
      modbus_breakers += d.breaker_names.size();
      ++modbus_devices;
    }
  }
  const CodecCosts codec = price_codecs(
      spans, modbus_devices ? modbus_breakers / modbus_devices : 3,
      dnp3_devices ? dnp3_breakers / dnp3_devices : 3);
  const double frame_ns =
      price_frames(spans, frame_sizes, std::max<std::size_t>(1, rec.firewall_rules_per_host / 2),
                   dispatch_ns);
  const double int_originated =
      static_cast<double>(delta_sum(rec, "spines.daemon.int", ".data_originated"));
  const double hop_ns =
      price_overlay(spans, n, frame_sizes, per_sim_s(int_originated), dispatch_ns, frame_ns);
  const PrimeCosts prime_cost = price_prime(spans, spec, rec, dispatch_ns);
  const ScadaCosts scada_cost = price_scada(spans, spec, rec);

  // ---- per-layer metrics --------------------------------------------------
  const double events = static_cast<double>(run.events);
  const double run_until_cpu = static_cast<double>(spans.cpu_total("sim.run_until"));
  add("sim.events_per_update", per_update(events), "count");
  add("sim.ns_per_event", events > 0 ? run_until_cpu / events : 0, "ns");
  add("sim.dispatch_ns", dispatch_ns, "ns");

  const double seals = static_cast<double>(rec.hosts_after.daemon_sent - rec.hosts_before.daemon_sent);
  const double opens = static_cast<double>(rec.hosts_after.daemon_delivered -
                                           rec.hosts_before.daemon_delivered);
  const double link_crypto_ns = seals * crypto_cost.seal_ns + opens * crypto_cost.open_ns;
  add("crypto.seals_per_update", per_update(seals), "count");
  add("crypto.seal_ns", crypto_cost.seal_ns, "ns");
  add("crypto.open_ns", crypto_cost.open_ns, "ns");
  add("crypto.sign_ns", crypto_cost.sign_ns, "ns");
  add("crypto.verify_ns", crypto_cost.verify_ns, "ns");
  add("crypto.merkle_batch_ns", crypto_cost.merkle_ns, "ns");
  add("crypto.us_per_update", per_update(link_crypto_ns) / 1e3, "us");

  const double frames = static_cast<double>(rec.hosts_after.frames - rec.hosts_before.frames);
  add("net.frames_per_update", per_update(frames), "count");
  add("net.frame_ns", frame_ns, "ns");
  add("net.firewall_drops",
      static_cast<double>(rec.hosts_after.firewall_drops - rec.hosts_before.firewall_drops),
      "count");
  add("net.chaos_drops",
      static_cast<double>(rec.hosts_after.chaos_drops - rec.hosts_before.chaos_drops), "count");
  add("net.us_per_update", per_update(frames * frame_ns) / 1e3, "us");

  double spines_ops = 0;
  for (const char* side : {"int", "ext"}) {
    const std::string prefix = std::string("spines.daemon.") + side;
    const double fwd = static_cast<double>(delta_sum(rec, prefix, ".data_forwarded"));
    const double dup = static_cast<double>(delta_sum(rec, prefix, ".dropped_dedup"));
    const double dlv = static_cast<double>(delta_sum(rec, prefix, ".data_delivered"));
    const double org = static_cast<double>(delta_sum(rec, prefix, ".data_originated"));
    spines_ops += fwd + dup + dlv + org;
    const std::string p = std::string("spines.") + side;
    add(p + ".forwards_per_update", per_update(fwd), "count");
    add(p + ".dup_drops_per_update", per_update(dup), "count");
    add(p + ".useful_ratio", dlv + dup > 0 ? dlv / (dlv + dup) : 1.0, "ratio");
  }
  add("spines.dedup_evictions_per_update",
      per_update(static_cast<double>(delta_sum(rec, "spines.daemon.", ".dedup_evictions"))),
      "count");
  add("spines.forward_ns", hop_ns, "ns");
  add("spines.us_per_update", per_update(spines_ops * hop_ns) / 1e3, "us");
  add("spines.lsu_bytes_per_sim_s",
      per_sim_s(static_cast<double>(delta_sum(rec, "spines.daemon.", ".lsu_bytes_sent"))),
      "B/s");
  add("spines.summary_bytes_per_sim_s",
      per_sim_s(static_cast<double>(delta_sum(rec, "spines.daemon.", ".summary_bytes_sent"))),
      "B/s");
  add("spines.spf_full",
      static_cast<double>(delta_sum(rec, "spines.daemon.", ".spf_full")), "count");
  add("spines.spf_incremental",
      static_cast<double>(delta_sum(rec, "spines.daemon.", ".spf_incremental")), "count");
  add("spines.queue_full_drops",
      static_cast<double>(delta_sum(rec, "spines.daemon.", ".dropped_queue_full")), "count");

  const double po_requests = static_cast<double>(delta_sum(rec, "prime.replica", ".po_requests_sent"));
  const double preprepares = static_cast<double>(delta_sum(rec, "prime.replica", ".preprepares_sent"));
  const double cache_hits = static_cast<double>(delta_sum(rec, "prime.replica", ".verify_cache_hits"));
  double replica_deliveries = 0;
  for (std::uint32_t r = 0; r < n; ++r) {
    replica_deliveries += static_cast<double>(
        delta(rec, "spines.daemon.int" + std::to_string(r) + ".data_delivered") +
        delta(rec, "spines.daemon.ext" + std::to_string(r) + ".data_delivered"));
  }
  add("prime.updates_per_sim_s", per_sim_s(static_cast<double>(ordered)), "1/s");
  add("prime.updates_per_preprepare",
      preprepares > 0 ? static_cast<double>(ordered) / preprepares : 0, "count");
  add("prime.po_requests_per_update", per_update(po_requests), "count");
  add("prime.verify_cache_hit_ratio",
      cache_hits + replica_deliveries > 0 ? cache_hits / (cache_hits + replica_deliveries) : 0,
      "ratio");
  add("prime.us_per_update", prime_cost.us_per_update, "us");
  add("prime.on_message_ns", prime_cost.on_message_ns, "ns");
  add("prime.wait.po_batch_ms", median(rec.waits_ms["prime.wait.po_batch_ms"]), "ms");
  add("prime.wait.preprepare_ms", median(rec.waits_ms["prime.wait.preprepare_ms"]), "ms");
  add("prime.wait.commit_ms", median(rec.waits_ms["prime.wait.commit_ms"]), "ms");
  add("prime.view_changes",
      static_cast<double>(delta_sum(rec, "prime.replica", ".view_changes")), "count");
  add("prime.state_transfers",
      static_cast<double>(delta_sum(rec, "prime.replica", ".state_transfers")), "count");
  add("prime.state_transfer_bytes",
      static_cast<double>(delta_sum(rec, "prime.replica", ".state_transfer_bytes")), "B");
  add("prime.recovery.completed", static_cast<double>(run.recoveries), "count");
  add("prime.recovery.mean_ms",
      run.recoveries ? static_cast<double>(run.recovery_time_us) /
                           static_cast<double>(run.recoveries) / 1e3
                     : 0,
      "ms");

  const double polls = static_cast<double>(delta_sum(rec, "scada.proxy.", ".polls"));
  const double reports = static_cast<double>(delta_sum(rec, "scada.proxy.", ".reports_sent") +
                                             delta_sum(rec, "scada.proxy.", ".batches_sent"));
  const double hmi_received = static_cast<double>(delta_sum(rec, "scada.hmi.", ".updates_received"));
  const double hmi_displayed = static_cast<double>(delta_sum(rec, "scada.hmi.", ".versions_displayed"));
  add("scada.proxy.polls_per_sim_s", per_sim_s(polls), "1/s");
  add("scada.proxy.reports_per_update", per_update(reports), "count");
  add("scada.proxy.commands_forwarded",
      static_cast<double>(delta_sum(rec, "scada.proxy.", ".commands_forwarded")), "count");
  add("scada.hmi.updates_received_per_display",
      hmi_displayed > 0 ? hmi_received / hmi_displayed : 0, "count");
  add("scada.hmi.resyncs",
      static_cast<double>(delta_sum(rec, "scada.hmi.", ".resyncs_requested")), "count");
  add("scada.master.apply_ns", scada_cost.apply_ns, "ns");
  add("scada.hmi.vote_ns", scada_cost.vote_ns, "ns");
  add("scada.wait.plc_to_submit_ms", median(rec.waits_ms["scada.wait.plc_to_submit_ms"]), "ms");
  add("scada.wait.publish_to_display_ms",
      median(rec.waits_ms["scada.wait.publish_to_display_ms"]), "ms");

  // A Modbus poll is two requests (discrete inputs, input registers).
  const double modbus_requests = static_cast<double>(rec.hosts_after.modbus_requests -
                                                     rec.hosts_before.modbus_requests);
  const double dnp3_polls =
      static_cast<double>(rec.hosts_after.dnp3_polls - rec.hosts_before.dnp3_polls);
  add("modbus.poll_codec_ns", codec.modbus_ns, "ns");
  add("dnp3.poll_codec_ns", codec.dnp3_ns, "ns");
  add("plc.polls_per_sim_s", per_sim_s(modbus_requests / 2 + dnp3_polls), "1/s");

  const double mana_poll_ns = static_cast<double>(spans.cpu_total("mana.poll"));
  add("mana.frames_per_sim_s",
      per_sim_s(static_cast<double>(delta_sum(rec, "mana.", ".frames_mirrored"))), "1/s");
  add("mana.poll_us_per_sim_s", per_sim_s(mana_poll_ns) / 1e3, "us");
  add("mana.dropped_frames",
      static_cast<double>(delta_sum(rec, "mana.", ".dropped_frames")), "count");
  add("mana.sampled_windows",
      static_cast<double>(delta_sum(rec, "mana.", ".sampled_windows")), "count");
  add("mana.alerts", static_cast<double>(delta_sum(rec, "mana.", ".alerts_total")), "count");

  add("setup.construct_s", run.setup.construct_s, "s");
  add("setup.warmup_s", run.setup.warmup_s, "s");
  add("setup.mana_training_s", run.setup.mana_training_s, "s");

  // Outside-in attribution: each layer's count times its unit cost.
  const double attributed_ns =
      events * dispatch_ns + link_crypto_ns + frames * frame_ns +
      spines_ops * hop_ns + static_cast<double>(ordered) * prime_cost.us_per_update * 1e3 +
      static_cast<double>(ordered) * n * scada_cost.apply_ns + hmi_received * scada_cost.vote_ns +
      modbus_requests / 2 * codec.modbus_ns + dnp3_polls * codec.dnp3_ns + mana_poll_ns;
  out.attributed_cpu_ms_per_sim_s = per_sim_s(attributed_ns) / 1e6;

  spans.write_jsonl(spans_path);
  return out;
}

}  // namespace perfbench
