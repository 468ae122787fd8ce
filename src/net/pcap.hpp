// Passive packet-capture taps (DESIGN.md §13).
//
// MANA only ever sees the network through these (paper §III-C: the IDS
// was approved precisely because it is out-of-band and non-invasive).
// A tap is a switch port mirror: it receives copies of every frame and
// can never inject anything.
//
// Two tap flavours exist:
//
//  * The legacy PcapSink (std::function per mirrored frame, full frame
//    copy) stays for tests and low-rate recorders.
//  * CaptureTap is the line-rate path: the mirror port summarizes each
//    frame's headers into a fixed-width FrameSummary slot of a
//    preallocated ring — no string, no payload copy, no allocation —
//    and the analyzer drains the ring out-of-band. Overload is
//    explicit: past a high watermark the tap samples 1-in-N (skipped
//    frames fold their count into the next captured slot's weight, so
//    windowed features stay calibrated), and a hard-full ring drops
//    frames into a counted bucket, never silently.
//
// Capture-point labels ("enterprise", "operations-spire") are interned
// once at tap registration (the NodeTable pattern): every mirrored
// frame used to heap-allocate a std::string label on the switch hot
// path; now it carries a dense NetworkId handle.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "net/frame.hpp"
#include "sim/simulator.hpp"
#include "util/interner.hpp"

namespace spire::net {

/// Dense handle for a capture-point label, assigned by NetworkLabels.
using NetworkId = std::uint32_t;

/// Process-wide interner for capture-point labels. Append-only and
/// tiny (one entry per monitored network), used at tap-install and
/// export time only — never on the mirror hot path. Simulations on
/// separate threads share it, so every call takes a lock and name()
/// returns a copy.
class NetworkLabels {
 public:
  static NetworkLabels& instance();

  NetworkId intern(std::string_view label) {
    const std::lock_guard<std::mutex> lock(mu_);
    return interner_.intern(label);
  }
  [[nodiscard]] NetworkId lookup(std::string_view label) const {
    const std::lock_guard<std::mutex> lock(mu_);
    return interner_.lookup(label);
  }
  [[nodiscard]] std::string name(NetworkId id) const {
    const std::lock_guard<std::mutex> lock(mu_);
    return interner_.name(id);
  }
  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return interner_.size();
  }

 private:
  NetworkLabels() = default;
  mutable std::mutex mu_;
  util::StringInterner interner_;
};

/// One mirrored frame with capture metadata (legacy full-copy tap).
struct PcapRecord {
  sim::Time time = 0;
  NetworkId network = 0;  ///< interned capture-point label
  EthernetFrame frame;
};

/// Anything that consumes mirrored traffic via the legacy tap.
using PcapSink = std::function<void(const PcapRecord&)>;

// ---- line-rate capture path -------------------------------------------------

enum class FrameKind : std::uint8_t { kOther = 0, kArp, kIpv4 };

/// Fixed-width header summary of one mirrored frame: everything the
/// traffic-shape feature pipeline reads, nothing that allocates. For
/// ARP frames, src_ip/src_mac carry the *claimed* sender binding (the
/// poisoning signal), which may differ from the L2 source.
struct FrameSummary {
  static constexpr std::uint8_t kBroadcast = 0x01;  ///< L2 broadcast dst
  static constexpr std::uint8_t kArpReply = 0x02;   ///< ARP op == reply

  sim::Time time = 0;
  std::uint32_t weight = 1;  ///< frames represented (overload sampling)
  std::uint32_t wire_size = 0;
  FrameKind kind = FrameKind::kOther;
  std::uint8_t flags = 0;
  std::uint64_t src_mac = 0;  ///< 48-bit MAC folded into a u64 key
  std::uint64_t dst_mac = 0;
  std::uint32_t src_ip = 0;  ///< IPv4 src, or ARP claimed sender IP
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;

  [[nodiscard]] bool broadcast() const { return (flags & kBroadcast) != 0; }
  [[nodiscard]] bool arp_reply() const { return (flags & kArpReply) != 0; }

  static std::uint64_t mac_key(const MacAddress& mac) {
    std::uint64_t v = 0;
    for (auto b : mac.bytes) v = (v << 8) | b;
    return v;
  }

  /// Header-only parse: ARP decodes its fixed body, IPv4 reads the
  /// 13-byte datagram header and never materializes the payload.
  static FrameSummary summarize(sim::Time now, const EthernetFrame& frame);
};

struct CaptureTapConfig {
  /// Ring capacity in slots; rounded up to a power of two.
  std::size_t ring_slots = 8192;
  /// Occupancy fraction above which the tap enters sampling mode.
  double sample_high_watermark = 0.75;
  /// Occupancy fraction below which sampling mode ends.
  double sample_low_watermark = 0.25;
  /// Keep 1 in N frames while sampling (doubles on a hard-full drop,
  /// up to kMaxStride, so a sustained flood converges to a stride the
  /// drain rate can absorb).
  std::uint32_t sample_stride = 8;
};

/// Every mirrored frame lands in exactly one of these buckets, so
/// captured-with-weights + dropped + still-queued always equals
/// mirrored: overload is visible in the accounting, never silent.
struct CaptureTapStats {
  std::uint64_t frames_mirrored = 0;     ///< offered by the switch
  std::uint64_t frames_captured = 0;     ///< written into a ring slot
  std::uint64_t frames_sampled_out = 0;  ///< skipped; folded into weights
  std::uint64_t frames_dropped = 0;      ///< ring hard-full (counted)
  std::uint64_t sampling_entered = 0;    ///< watermark crossings
  std::uint64_t stride_escalations = 0;  ///< hard-full while sampling
};

/// Single-producer single-consumer summary ring between a switch mirror
/// port and the analyzer. Both run on the switch's simulator thread;
/// "out-of-band" is simulated by the analyzer draining on its own
/// periodic event rather than per frame.
class CaptureTap {
 public:
  static constexpr std::uint32_t kMaxStride = 1024;

  explicit CaptureTap(CaptureTapConfig config = {});

  /// Mirror-port push: header summarize + one slot write. Zero-alloc.
  void capture(sim::Time now, const EthernetFrame& frame);

  /// Drains every queued summary into `fn(const FrameSummary&)` in
  /// capture order. Returns the number of slots consumed.
  template <typename Fn>
  std::size_t drain(Fn&& fn) {
    std::size_t consumed = 0;
    while (size_ > 0) {
      fn(ring_[tail_]);
      tail_ = (tail_ + 1) & mask_;
      --size_;
      ++consumed;
    }
    maybe_exit_sampling();
    return consumed;
  }

  [[nodiscard]] const CaptureTapStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t queued() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  [[nodiscard]] bool sampling() const { return sampling_; }
  [[nodiscard]] std::uint32_t stride() const { return stride_; }
  /// Sampled-out frames not yet folded into a captured slot's weight.
  [[nodiscard]] std::uint32_t pending_weight() const { return pending_weight_; }

  /// Accounting identity (drained weights must be summed by the
  /// consumer): mirrored == drained_weight + queued_weight + pending +
  /// dropped. Exposed for the overload tests and the bench gate.
  [[nodiscard]] std::uint64_t queued_weight() const;

 private:
  void maybe_exit_sampling();

  CaptureTapConfig config_;
  std::vector<FrameSummary> ring_;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;  // next write
  std::size_t tail_ = 0;  // next read
  std::size_t size_ = 0;
  std::size_t high_slots_ = 0;
  std::size_t low_slots_ = 0;
  bool sampling_ = false;
  std::uint32_t stride_ = 1;
  std::uint32_t stride_phase_ = 0;
  std::uint32_t pending_weight_ = 0;  // sampled-out frames awaiting a slot
  CaptureTapStats stats_;
};

}  // namespace spire::net
