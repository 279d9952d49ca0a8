// The traced run's instruments: an in-memory span recorder and a
// SonetEndpoint decorator that times the line-side calls and captures the
// inputs the isolated replay needs.
//
// Spans are kept per kind as running totals (count, duration, self time),
// plus the first kSampleSpans raw spans, which are written out as JSON
// lines when the run ends. A span's self time is its duration minus the
// durations of its child spans.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common.hpp"
#include "p5/endpoint.hpp"

namespace p5bench {

enum class SpanKind : u8 {
  kPump,       ///< Tunnel::pump (parent of pull_frame)
  kRunOnce,    ///< EventLoop::run_once (parent of push_line)
  kSubmit,     ///< SonetEndpoint::submit_datagram
  kReap,       ///< SonetEndpoint::reap_datagram
  kPullFrame,  ///< SonetEndpoint::pull_frame, via the decorator
  kPushLine,   ///< SonetEndpoint::push_line, via the decorator
  kClientFill, ///< server_fanin client: StreamConn::send_frame + flush
  kCount,
};
[[nodiscard]] const char* to_string(SpanKind k);

class Tracer {
 public:
  struct Totals {
    u64 count = 0;
    u64 total_ns = 0;
    u64 self_ns = 0;
  };
  static constexpr std::size_t kSampleSpans = 20000;

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span; `key` ties related spans together (chunk or datagram
  /// sequence number). No-op while disabled.
  void begin(SpanKind kind, u64 key = 0);
  void end();

  [[nodiscard]] const Totals& totals(SpanKind k) const {
    return totals_[static_cast<std::size_t>(k)];
  }
  /// Sum of the durations of top-level spans.
  [[nodiscard]] u64 top_level_ns() const { return top_level_ns_; }

  /// Write the span sample as JSON lines. False if the file is unwritable.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  struct Open {
    SpanKind kind;
    u64 start;
    u64 child_ns;
    std::size_t sample_index;  ///< index in sample_, or npos
  };
  struct Recorded {
    SpanKind kind;
    u64 key;
    u64 start;
    u64 end;
    long long parent;  ///< index of the parent span in the sample, -1 = none
  };
  bool enabled_ = false;
  std::array<Open, 8> stack_{};
  std::size_t depth_ = 0;
  std::array<Totals, static_cast<std::size_t>(SpanKind::kCount)> totals_{};
  u64 top_level_ns_ = 0;
  std::vector<Recorded> sample_;
};

/// RAII span.
class Span {
 public:
  Span(Tracer* t, SpanKind kind, u64 key = 0) : t_(t && t->enabled() ? t : nullptr) {
    if (t_) t_->begin(kind, key);
  }
  ~Span() {
    if (t_) t_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

/// Pull-to-push timing of wire chunks: the transmitting decorator stamps
/// chunk n when pull_frame returns it, the receiving one looks the stamp up
/// when chunk n reaches push_line. Chunk order is the line order, so the
/// sequence number is the join key.
class ChunkClock {
 public:
  void stamp(u64 seq, u64 t) { ring_[seq % kRing] = {seq, t}; }
  /// Time chunk `seq` waited in the transport, or -1 if its stamp is gone.
  [[nodiscard]] double wait_ns(u64 seq, u64 t) const {
    const auto& e = ring_[seq % kRing];
    return e.first == seq && t >= e.second ? static_cast<double>(t - e.second) : -1.0;
  }

 private:
  static constexpr std::size_t kRing = 4096;
  std::vector<std::pair<u64, u64>> ring_ =
      std::vector<std::pair<u64, u64>>(kRing, {~u64{0}, 0});
};

/// What the traced run captures for the isolated replay.
struct Capture {
  static constexpr std::size_t kMaxChunks = 3000;
  bool active = false;
  std::vector<Bytes> rx_chunks;       ///< line octets handed to push_line
  std::vector<std::size_t> tx_batch;  ///< datagrams fetched, one entry per pull_frame
  [[nodiscard]] bool full() const { return rx_chunks.size() >= kMaxChunks; }
};

/// SonetEndpoint decorator handed to TunnelBinding::endpoint. Forwards every
/// call to `inner`; while the tracer is enabled it times pull_frame and
/// push_line as spans keyed by chunk sequence, and while a capture is active
/// it records what the line side saw. It can also flip one line bit on its
/// way into push_line, which is how the self-test proves the verifier
/// counts corruption.
class TracingEndpoint final : public p5::core::SonetEndpoint {
 public:
  TracingEndpoint(p5::core::SonetEndpoint& inner, Tracer* tracer, ChunkClock* clock,
                  Capture* capture)
      : inner_(inner), tracer_(tracer), clock_(clock), capture_(capture) {}

  /// Flip bit `bit` of octet `octet` of the `chunk`-th chunk pushed.
  void corrupt_push(u64 chunk, std::size_t octet, unsigned bit) {
    corrupt_chunk_ = chunk;
    corrupt_octet_ = octet;
    corrupt_bit_ = bit;
  }

  [[nodiscard]] u64 chunks_pulled() const { return pulled_; }
  [[nodiscard]] const std::vector<double>& chunk_waits_ns() const { return waits_; }

  [[nodiscard]] p5::core::DeviceTier tier() const override { return inner_.tier(); }
  bool submit_datagram(u16 protocol, Bytes payload) override {
    return inner_.submit_datagram(protocol, std::move(payload));
  }
  bool submit_frame(p5::core::TxRequest req) override {
    return inner_.submit_frame(std::move(req));
  }
  [[nodiscard]] bool tx_has_room(std::size_t n) const override { return inner_.tx_has_room(n); }
  [[nodiscard]] std::optional<p5::core::RxDelivery> reap_datagram() override {
    return inner_.reap_datagram();
  }
  void set_rx_sink(std::function<void(p5::core::RxDelivery)> sink) override {
    inner_.set_rx_sink(std::move(sink));
  }

  [[nodiscard]] Bytes pull_frame() override;
  void push_line(BytesView octets) override;
  void drain_rx() override { inner_.drain_rx(); }

  [[nodiscard]] bool tx_pending() const override { return inner_.tx_pending(); }
  [[nodiscard]] std::size_t tx_queue_depth() const override { return inner_.tx_queue_depth(); }
  [[nodiscard]] u64 frames_pulled() const override { return inner_.frames_pulled(); }
  [[nodiscard]] bool rx_in_sync() const override { return inner_.rx_in_sync(); }
  [[nodiscard]] const p5::sonet::DeframerStats& rx_stats() const override {
    return inner_.rx_stats();
  }
  [[nodiscard]] const p5::sonet::StsSpec& sts() const override { return inner_.sts(); }
  [[nodiscard]] p5::core::RxCounters rx_counters() const override {
    return inner_.rx_counters();
  }
  [[nodiscard]] u64 rx_overflow_drops() const override { return inner_.rx_overflow_drops(); }

 private:
  p5::core::SonetEndpoint& inner_;
  Tracer* tracer_;
  ChunkClock* clock_;
  Capture* capture_;
  u64 pulled_ = 0;
  u64 pushed_ = 0;
  std::vector<double> waits_;
  u64 corrupt_chunk_ = ~u64{0};
  std::size_t corrupt_octet_ = 0;
  unsigned corrupt_bit_ = 0;
  Bytes scratch_;
};

}  // namespace p5bench
