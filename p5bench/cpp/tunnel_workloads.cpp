// bulk_tcp and trace_udp_paced: one transport::Tunnel pair over loopback,
// both ends fast-tier STS-3c endpoints, driven from one thread as p5_tunnel
// drives its link (default TunnelConfig, pump + run_once + reap). The
// receiving host reaps after every received chunk.
#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "p5/endpoint.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "transport/tunnel.hpp"
#include "workloads.hpp"

namespace p5bench {
namespace {

using p5::core::SonetEndpoint;
using p5::transport::EventLoop;
using p5::transport::TransportSnapshot;
using p5::transport::Tunnel;
using p5::transport::TunnelBinding;
using p5::transport::TunnelConfig;

constexpr double kSetupTimeoutS = 5.0;
constexpr double kDrainTimeoutS = 3.0;
/// The open loop's offered load, as a share of the STS-3c payload rate.
constexpr double kOfferedShare = 0.8;

/// The traced run's instruments, shared by both ends of a pair.
struct Instruments {
  Tracer tracer;
  ChunkClock clock;
  Capture capture;
  u64 capture_first_seq = 0;  ///< first datagram the captured pulls fetched
};

/// Two fast-tier endpoints joined by a Tunnel pair: `tx` dials out and
/// carries the datagrams, `rx` listens and delivers them.
class TunnelPair {
 public:
  TunnelPair(bool udp, Instruments* ins) : tracer_(ins ? &ins->tracer : nullptr) {
    rx_ep_ = p5::core::make_sonet_endpoint(p5::core::DeviceTier::kFast, {}, p5::sonet::kSts3c);
    tx_ep_ = p5::core::make_sonet_endpoint(p5::core::DeviceTier::kFast, {}, p5::sonet::kSts3c);
    if (ins) {
      rx_dec_ = std::make_unique<TracingEndpoint>(*rx_ep_, &ins->tracer, &ins->clock, &ins->capture);
      tx_dec_ = std::make_unique<TracingEndpoint>(*tx_ep_, &ins->tracer, &ins->clock, &ins->capture);
    }
    TunnelConfig ca;
    ca.listen = true;
    ca.udp = udp;
    // Reap after each chunk: one run_once can hand the receiver a burst of
    // chunks holding more datagrams than its 64-slot ring when a transmit
    // backlog drains, and one STS-3c chunk holds fewer than 64.
    TunnelBinding rb = TunnelBinding::endpoint(rx());
    rb.push = [this](BytesView v) {
      rx().push_line(v);
      reap_all();
      return true;
    };
    rb.push_batch = [this](std::span<const BytesView> burst) {
      for (const BytesView& v : burst) {
        rx().push_line(v);
        reap_all();
      }
      return burst.size();
    };
    rx_tun_ = std::make_unique<Tunnel>(loop_, std::move(rb), ca);
    rx_tun_->start();
    TunnelConfig cb;
    cb.udp = udp;
    cb.port = rx_tun_->bound_port();
    tx_tun_ = std::make_unique<Tunnel>(loop_, TunnelBinding::endpoint(tx()), cb);
    tx_tun_->start();
  }

  SonetEndpoint& rx() { return rx_dec_ ? *rx_dec_ : *rx_ep_; }
  SonetEndpoint& tx() { return tx_dec_ ? *tx_dec_ : *tx_ep_; }
  TracingEndpoint* rx_dec() { return rx_dec_.get(); }
  TracingEndpoint* tx_dec() { return tx_dec_.get(); }
  Tunnel& rx_tun() { return *rx_tun_; }
  Tunnel& tx_tun() { return *tx_tun_; }

  /// One slice of the link: both pumps, then a non-blocking dispatch.
  void step() {
    {
      Span s(tracer_, SpanKind::kPump);
      rx_tun_->pump();
    }
    {
      Span s(tracer_, SpanKind::kPump);
      tx_tun_->pump();
    }
    Span s(tracer_, SpanKind::kRunOnce);
    loop_.run_once(0);
  }
  bool submit(Bytes payload, u64 seq) {
    Span s(tracer_, SpanKind::kSubmit, seq);
    return tx().submit_datagram(kProtoIpv4, std::move(payload));
  }
  /// The next delivery the receiving host reaped.
  std::optional<p5::core::RxDelivery> reap() {
    if (reaped_.empty()) return std::nullopt;
    std::optional<p5::core::RxDelivery> d = std::move(reaped_.front());
    reaped_.pop_front();
    return d;
  }
  /// Both chunk ledgers exact: frames_in == frames_out + frames_lost.
  [[nodiscard]] bool ledgers_closed() const {
    const TransportSnapshot a = rx_tun_->stats(), b = tx_tun_->stats();
    return a.frames_in == a.frames_out + a.frames_lost &&
           b.frames_in == b.frames_out + b.frames_lost;
  }

 private:
  void reap_all() {
    for (;;) {
      Span s(tracer_, SpanKind::kReap);
      std::optional<p5::core::RxDelivery> d = rx().reap_datagram();
      if (!d) return;
      reaped_.push_back(std::move(*d));
    }
  }

  EventLoop loop_;
  std::deque<p5::core::RxDelivery> reaped_;
  std::unique_ptr<SonetEndpoint> rx_ep_, tx_ep_;
  std::unique_ptr<TracingEndpoint> rx_dec_, tx_dec_;
  std::unique_ptr<Tunnel> rx_tun_, tx_tun_;
  Tracer* tracer_;
};

/// Build a pair and carry datagram 0 of `v` across it. Returns the seconds
/// from the start of construction to that delivery.
double set_up(std::unique_ptr<TunnelPair>& pair, bool udp, Instruments* ins, Verifier& v,
              Report& r) {
  pair.reset();  // the previous set-up's teardown is not timed
  std::this_thread::sleep_for(std::chrono::duration<double>(kSetupIdleS));
  const u64 t0 = now_ns();
  pair = std::make_unique<TunnelPair>(udp, ins);
  bool submitted = false;
  while (static_cast<double>(now_ns() - t0) < kSetupTimeoutS * 1e9) {
    if (!submitted) submitted = pair->submit(v.make(0), 0);
    pair->step();
    if (auto d = pair->reap()) {
      const double s = static_cast<double>(now_ns() - t0) / 1e9;
      if (v.check(d->payload) != 0) r.violation("set-up datagram delivered corrupt");
      return s;
    }
  }
  r.violation("set-up: no datagram delivered within %.0f s", kSetupTimeoutS);
  return kSetupTimeoutS;
}

/// What feeds the transmitting endpoint. A full transmit ring is
/// backpressure: the datagram waits and is submitted again on a later step.
class Producer {
 public:
  virtual ~Producer() = default;
  /// Submit what is due at `now`.
  virtual void produce(TunnelPair& pair, u64 now) = 0;
  /// Where datagram `seq`'s latency is measured from.
  [[nodiscard]] virtual u64 reference_ns(u64 seq) const = 0;

  u64 next_seq = 1;  ///< datagram 0 crossed during set-up
  u64 accepted = 1;
  u64 refused = 0;   ///< submits the device refused
  u64 attempts = 1;  ///< submits tried
  bool record = false;          ///< inside the measured window
  bool traced = false;          ///< current slice is traced
  std::vector<double> late_ns;  ///< open loop: submit time minus due time
};

/// Closed loop: keep the device's transmit ring full.
class ClosedLoop final : public Producer {
 public:
  explicit ClosedLoop(const Verifier& v) : v_(v) {}
  void produce(TunnelPair& pair, u64) override {
    for (;;) {
      const u64 seq = next_seq;
      ++attempts;
      if (!pair.tx().tx_has_room(v_.size_of(seq))) break;
      const u64 t = now_ns();
      if (!pair.submit(v_.make(seq), seq)) break;
      submitted_ns_[seq & kMask] = t;
      ++next_seq;
      ++accepted;
    }
    ++refused;  // the fill ended on a full ring
  }
  [[nodiscard]] u64 reference_ns(u64 seq) const override { return submitted_ns_[seq & kMask]; }

 private:
  static constexpr u64 kMask = (1u << 16) - 1;
  const Verifier& v_;
  std::vector<u64> submitted_ns_ = std::vector<u64>(kMask + 1, 0);
};

/// Open loop: submit each trace packet at its (scaled) due time. A datagram
/// the device refuses waits, in order, for room; its latency still runs
/// from its due time, so the wait shows in the latency figures and in the
/// generator's lateness.
class OpenLoop final : public Producer {
 public:
  OpenLoop(const Verifier& v, const Trace& trace, double scale, u64 t_start)
      : v_(v), trace_(trace), scale_(scale), t_start_(t_start) {}
  void produce(TunnelPair& pair, u64 now) override {
    while (due(next_seq) <= now) {
      const u64 seq = next_seq;
      ++attempts;
      if (!pair.tx().tx_has_room(v_.size_of(seq)) || !pair.submit(v_.make(seq), seq)) {
        ++refused;
        return;
      }
      ++next_seq;
      ++accepted;
      if (record && !traced) late_ns.push_back(static_cast<double>(now_ns() - due(seq)));
    }
  }
  [[nodiscard]] u64 reference_ns(u64 seq) const override { return due(seq); }
  [[nodiscard]] u64 due(u64 seq) const {
    const std::size_t n = trace_.packets.size();
    const double off = static_cast<double>(trace_.offset_ns[seq % n]) +
                       static_cast<double>(seq / n) * static_cast<double>(trace_.period_ns);
    return t_start_ + static_cast<u64>(off * scale_);
  }

 private:
  const Verifier& v_;
  const Trace& trace_;
  double scale_;
  u64 t_start_;
};

struct WorkloadSpec {
  const char* name;
  bool udp;
  bool open_loop;
};

Report run_tunnel(const Options& opt, const WorkloadSpec& spec, const std::vector<Bytes>& bank,
                  const Trace* trace) {
  Report r;
  Verifier v(&bank);
  std::unique_ptr<Instruments> ins = opt.trace ? std::make_unique<Instruments>() : nullptr;
  std::unique_ptr<TunnelPair> pair;

  // Set-up: the traced run sets up once; the measured run several times and
  // reports the median, keeping the last pair for the window.
  std::vector<double> setups;
  const int reps = opt.trace ? 1 : kSetupReps;
  for (int i = 0; i < reps; ++i) {
    if (i + 1 < reps) {
      Verifier scratch(&bank);
      setups.push_back(set_up(pair, spec.udp, ins.get(), scratch, r));
    } else {
      setups.push_back(set_up(pair, spec.udp, ins.get(), v, r));
    }
  }
  if (!r.correct) return r;

  const u64 t_start = now_ns();
  std::unique_ptr<Producer> prod;
  double offered_mb_s = 0.0;
  if (spec.open_loop) {
    // Scale the trace's own gaps so its payload octets arrive at 80% of
    // the STS-3c payload rate.
    const double natural_bytes_per_s =
        trace->mean_bytes() * static_cast<double>(trace->packets.size()) /
        (static_cast<double>(trace->period_ns) / 1e9);
    const double scale = natural_bytes_per_s / (kOfferedShare * kSts3cPayloadBytesPerS);
    offered_mb_s = kOfferedShare * kSts3cPayloadBytesPerS / 1e6;
    prod = std::make_unique<OpenLoop>(v, *trace, scale, t_start);
  } else {
    prod = std::make_unique<ClosedLoop>(v);
  }

  std::vector<double> latency_ns = latency_buffer();  ///< since the last take
  Capture* cap = ins ? &ins->capture : nullptr;
  bool capture_done = false;

  WindowHooks hooks;
  hooks.read = [&] {
    Counters c;
    c.wall_ns = now_ns();
    c.cpu_ns = process_cpu_ns();
    c.dgrams = v.ok();
    c.bytes = v.ok_bytes();
    c.failed = v.lost() + v.corrupt();
    return c;
  };
  hooks.begin_slice = [&](bool traced) {
    prod->record = true;
    prod->traced = traced;
    if (!ins) return;
    ins->tracer.set_enabled(traced);
    if (traced && !capture_done && !cap->active) {
      cap->active = true;
      ins->capture_first_seq = prod->next_seq - pair->tx().tx_queue_depth();
    } else if (!traced && cap->active) {
      cap->active = false;
      capture_done = true;
    }
  };
  hooks.take_latencies = [&](std::vector<double>& out) { std::swap(out, latency_ns); };
  hooks.step = [&] {
    prod->produce(*pair, now_ns());
    pair->step();
    while (auto d = pair->reap()) {
      const long long seq = v.check(d->payload);
      if (seq < 0 || !prod->record) continue;
      latency_ns.push_back(
          static_cast<double>(now_ns() - prod->reference_ns(static_cast<u64>(seq))));
    }
    if (cap && cap->active && cap->full()) {
      cap->active = false;
      capture_done = true;
    }
  };
  const Window w = run_window(opt.seconds, ins != nullptr, hooks);
  if (ins) ins->tracer.set_enabled(false);

  // Drain: every accepted datagram delivered, then every chunk flushed.
  const u64 drain_deadline = now_ns() + static_cast<u64>(kDrainTimeoutS * 1e9);
  while (v.ok() + v.corrupt() < prod->accepted && now_ns() < drain_deadline) {
    pair->step();
    while (auto d = pair->reap()) (void)v.check(d->payload);
  }
  while (!pair->ledgers_closed() && now_ns() < drain_deadline) pair->step();

  // ---- checks
  const TransportSnapshot rxs = pair->rx_tun().stats(), txs = pair->tx_tun().stats();
  const p5::core::RxCounters rc = pair->rx().rx_counters();
  const u64 overflow = pair->rx().rx_overflow_drops();
  if (!pair->ledgers_closed()) {
    r.violation("transport ledger open: rx in=%llu out=%llu lost=%llu, tx in=%llu out=%llu lost=%llu",
                (unsigned long long)rxs.frames_in, (unsigned long long)rxs.frames_out,
                (unsigned long long)rxs.frames_lost, (unsigned long long)txs.frames_in,
                (unsigned long long)txs.frames_out, (unsigned long long)txs.frames_lost);
  }
  if (!spec.udp && rxs.frames_rcvd != txs.frames_out) {
    r.violation("TCP carried %llu chunks but %llu arrived", (unsigned long long)txs.frames_out,
                (unsigned long long)rxs.frames_rcvd);
  }
  if (v.corrupt() > 0) {
    r.violation("%llu datagrams delivered with wrong bytes or out of order",
                (unsigned long long)v.corrupt());
  }
  r.attempted = prod->accepted;
  r.failed = failed_datagrams(r.attempted, v.ok(), rc.frames_bad, overflow);
  const double fail_ratio = static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  r.note("%s: %llu attempted, %llu delivered intact, %llu lost, %llu corrupt, frames_bad %llu, "
         "rx overflow %llu -> fail_ratio %.6f",
         spec.name, (unsigned long long)r.attempted, (unsigned long long)v.ok(),
         (unsigned long long)v.lost(), (unsigned long long)v.corrupt(),
         (unsigned long long)rc.frames_bad, (unsigned long long)overflow, fail_ratio);

  if (!opt.trace) {
    report_end_to_end(r, w, fail_ratio, setups);
    if (spec.open_loop) {
      r.note("offered %.3f MB/s; generator late p99 %.2f us over %zu submits", offered_mb_s,
             quantile(prod->late_ns, 0.99) / 1e3, prod->late_ns.size());
    }
    return r;
  }

  // ---- traced run: per-layer split
  Tracer& tr = ins->tracer;
  const auto tot = [&](SpanKind k) { return tr.totals(k); };
  const auto per = [](double total, double n) { return n > 0 ? total / n : 0.0; };
  const double traced_cpu = static_cast<double>(w.traced.cpu_ns);
  const double pushes = static_cast<double>(tot(SpanKind::kPushLine).count);
  const double pulls = static_cast<double>(tot(SpanKind::kPullFrame).count);

  LayerFigures f;
  f.transport_self_ns_per_chunk =
      per(static_cast<double>(tot(SpanKind::kPump).self_ns + tot(SpanKind::kRunOnce).self_ns),
          pushes);
  TransportSnapshot both = rxs;
  both += txs;
  f.transport_chunks_per_syscall = both.frames_per_syscall();
  f.transport_pool_recycle_ratio =
      per(static_cast<double>(both.pool_recycled), static_cast<double>(both.frames_in));
  f.transport_send_queue_hwm_kb = static_cast<double>(txs.send_queue_hwm) / 1024.0;
  f.transport_backpressure_stalls_per_kchunk =
      per(static_cast<double>(both.backpressure_stalls) * 1000.0,
          static_cast<double>(both.frames_in));
  f.transport_chunk_wait_us_p50 = median(pair->rx_dec()->chunk_waits_ns()) / 1e3;
  f.p5_tx_self_ns_per_chunk = per(static_cast<double>(tot(SpanKind::kPullFrame).self_ns), pulls);
  f.p5_rx_self_ns_per_chunk = per(static_cast<double>(tot(SpanKind::kPushLine).self_ns), pushes);
  f.p5_submit_ns_per_dgram = per(static_cast<double>(tot(SpanKind::kSubmit).total_ns),
                                 static_cast<double>(tot(SpanKind::kSubmit).count));
  f.p5_reap_ns_per_dgram =
      per(static_cast<double>(tot(SpanKind::kReap).total_ns), static_cast<double>(w.traced.dgrams));
  f.p5_line_fill_ratio =
      per(static_cast<double>(v.ok_bytes()),
          static_cast<double>(pair->tx_dec()->chunks_pulled()) *
              static_cast<double>(p5::sonet::kSts3c.payload_bytes_per_frame()));
  f.p5_submit_refused_ratio =
      per(static_cast<double>(prod->refused), static_cast<double>(prod->attempts));
  f.p5_frames_bad = static_cast<double>(rc.frames_bad);
  f.p5_rx_overflow_drops = static_cast<double>(overflow);

  // Isolated replay of what the captured slice carried.
  ReplayInput in;
  in.tx_chunks = cap->tx_batch.size();
  in.rx_chunks = std::move(cap->rx_chunks);
  in.density_payloads = &bank;
  u64 seq = ins->capture_first_seq;
  for (const std::size_t n : cap->tx_batch) {
    if (n == 0) continue;
    std::vector<Bytes> batch;
    for (std::size_t i = 0; i < n; ++i) batch.push_back(v.make(seq++));
    in.tx_batches.push_back(std::move(batch));
  }
  const ReplayResult rr = replay_layers(in);
  apply_replay(f, rr);
  f.p5_unattributed_ns_per_chunk =
      f.p5_tx_self_ns_per_chunk + f.p5_rx_self_ns_per_chunk - rr.tx_ns_per_chunk - rr.rx_ns_per_chunk;

  if (spec.open_loop) f.loadgen_late_p99_us = quantile(prod->late_ns, 0.99) / 1e3;
  f.verify_fail_ratio = fail_ratio;
  f.trace_unattributed_share =
      traced_cpu > 0 ? 1.0 - static_cast<double>(tr.top_level_ns()) / traced_cpu : 0.0;
  const SliceFigures plain = slice_figures(w.slices, false), traced = slice_figures(w.slices, true);
  f.trace_overhead_ratio = spec.open_loop ? per(traced.latency_p50_us, plain.latency_p50_us)
                                          : per(plain.goodput_mb_s, traced.goodput_mb_s);
  set_layer_metrics(r, f);
  r.note("traced: %llu pulls, %llu pushes, %zu chunks replayed in isolation (%llu tx dgrams, "
         "%llu rx frames)",
         (unsigned long long)tot(SpanKind::kPullFrame).count,
         (unsigned long long)tot(SpanKind::kPushLine).count, in.rx_chunks.size(),
         (unsigned long long)rr.tx_dgrams, (unsigned long long)rr.rx_frames);
  if (!opt.trace_out.empty() && !tr.write(opt.trace_out)) {
    r.note("could not write the span sample to %s", opt.trace_out.c_str());
  }
  return r;
}

}  // namespace

Report run_bulk_tcp(const Options& opt) {
  // 64 distinct 1500 B payloads of seeded uniform-random octets: about 0.8%
  // of them need escaping under the SONET ACCM (0x7D and 0x7E).
  const std::vector<Bytes> bank = random_payloads(64, 1500, opt.seed);
  return run_tunnel(opt, {"bulk_tcp", false, false}, bank, nullptr);
}

Report run_trace_udp_paced(const Options& opt) {
  const Trace trace = make_trace(4096, opt.seed);
  return run_tunnel(opt, {"trace_udp_paced", true, true}, trace.packets, &trace);
}

}  // namespace p5bench
