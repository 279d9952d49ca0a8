// Per-channel line-card telemetry: the counters an operator's SNMP poll or a
// bench harness wants, updated from the channel's worker thread with relaxed
// atomics (each counter has exactly one writer) and read from any thread via
// a stabilising double-read snapshot.
//
// Each channel's counter block is cache-line aligned and padded so two
// workers hammering their own counters never share a line (the same false-
// sharing discipline as the SPSC ring indices).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "linecard/spsc_ring.hpp"

namespace p5::linecard {

/// Plain-value copy of one channel's counters (or an aggregate roll-up).
struct ChannelSnapshot {
  u64 frames_in = 0;   ///< descriptors accepted into the channel's link
  u64 frames_out = 0;  ///< datagrams delivered out of the link
  u64 bytes_in = 0;    ///< payload octets in (headers/FCS/flags excluded)
  u64 bytes_out = 0;   ///< payload octets delivered
  u64 fcs_errors = 0;  ///< far-end receiver junk events (FCS/abort/filter/overflow)
  /// Admitted descriptors written off as undeliverable. Loss accounting is
  /// exact: at idle, frames_in == frames_out + frames_lost — every admitted
  /// descriptor is either delivered or counted here, never both.
  u64 frames_lost = 0;
  u64 ring_full_stalls = 0;  ///< descriptor pushes that found a ring/device full
  u64 ingress_hwm = 0;       ///< peak source+fabric ring occupancy observed
  u64 egress_hwm = 0;        ///< peak egress ring (+spill) occupancy observed
  /// Escape-engine dispatch-tier selections for this channel's fabric-side
  /// re-framing: how many stuff/destuff calls ran scalar (small frames or
  /// the scalar tier) or SIMD. Totals mirrored from the arena engine after
  /// each burst.
  u64 escape_scalar = 0;
  u64 escape_simd = 0;

  bool operator==(const ChannelSnapshot&) const = default;
  ChannelSnapshot& operator+=(const ChannelSnapshot& o);
};

/// Live counters for one channel. Single writer (the channel's worker),
/// any number of readers.
class alignas(kCacheLineBytes) ChannelTelemetry {
 public:
  void on_ingress(std::size_t payload_bytes) {
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    bytes_in_.fetch_add(payload_bytes, std::memory_order_relaxed);
  }
  void on_egress(std::size_t payload_bytes) {
    frames_out_.fetch_add(1, std::memory_order_relaxed);
    bytes_out_.fetch_add(payload_bytes, std::memory_order_relaxed);
  }
  void add_fcs_errors(u64 n) {
    if (n) fcs_errors_.fetch_add(n, std::memory_order_relaxed);
  }
  void add_frames_lost(u64 n) {
    if (n) frames_lost_.fetch_add(n, std::memory_order_relaxed);
  }
  void ring_full_stall() { ring_full_stalls_.fetch_add(1, std::memory_order_relaxed); }
  void note_ingress_depth(std::size_t depth) { raise(ingress_hwm_, depth); }
  void note_egress_depth(std::size_t depth) { raise(egress_hwm_, depth); }
  /// Mirror the fabric arena engine's cumulative tier counters (stores, not
  /// adds: the engine already accumulates; single writer = fabric context).
  void set_escape_tiers(u64 scalar, u64 simd) {
    escape_scalar_.store(scalar, std::memory_order_relaxed);
    escape_simd_.store(simd, std::memory_order_relaxed);
  }

  /// Consistent point-in-time copy: reads the block twice until two
  /// consecutive reads agree (bounded retries; the counters are monotonic,
  /// so even the fallback is a valid momentary mixture, never garbage).
  [[nodiscard]] ChannelSnapshot snapshot() const;

 private:
  static void raise(std::atomic<u64>& hwm, u64 v) {
    u64 cur = hwm.load(std::memory_order_relaxed);
    while (v > cur && !hwm.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] ChannelSnapshot read_once() const;

  std::atomic<u64> frames_in_{0};
  std::atomic<u64> frames_out_{0};
  std::atomic<u64> bytes_in_{0};
  std::atomic<u64> bytes_out_{0};
  std::atomic<u64> fcs_errors_{0};
  std::atomic<u64> frames_lost_{0};
  std::atomic<u64> ring_full_stalls_{0};
  std::atomic<u64> ingress_hwm_{0};
  std::atomic<u64> egress_hwm_{0};
  std::atomic<u64> escape_scalar_{0};
  std::atomic<u64> escape_simd_{0};
};

/// The line card's counter file: one padded block per channel plus an
/// aggregate roll-up (sums for flows, max for high-water marks).
class Telemetry {
 public:
  explicit Telemetry(std::size_t channels);

  [[nodiscard]] std::size_t channels() const { return per_channel_.size(); }
  [[nodiscard]] ChannelTelemetry& channel(std::size_t i) { return *per_channel_[i]; }
  [[nodiscard]] const ChannelTelemetry& channel(std::size_t i) const { return *per_channel_[i]; }
  [[nodiscard]] ChannelSnapshot snapshot(std::size_t i) const;
  [[nodiscard]] ChannelSnapshot aggregate() const;

 private:
  std::vector<std::unique_ptr<ChannelTelemetry>> per_channel_;
};

}  // namespace p5::linecard
