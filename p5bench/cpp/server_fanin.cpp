// server_fanin: a TunnelServer with 2 shards and 2 tenants, each tenant on
// 2 TCP connections written by one client thread. Routing is kUplink, so
// every datagram crosses the shard handoff rings and the DRR uplink into a
// sink the benchmark installs, which verifies it per connection and
// timestamps it.
//
// The loop is closed per connection at kWindow datagrams in flight (written
// but not yet settled at the sink, either delivered or booked lost by the
// verifier), on top of the connection's send watermark. The
// watermark alone does not close it: the uplink hands datagrams over through
// bounded rings and staging queues that drop, not push back, so a client
// writing to the watermark loses nearly every datagram at the uplink. With
// at most 2 x kWindow datagrams in flight per tenant the staging bound (256
// per tenant) is never reached.
//
// The connections carry chunk streams pre-encoded from the seeded trace, so
// the client spends its time on sockets, not on encoding. Each stream is
// replayed from its start when it runs out. A replay wrap restarts the
// x^43+1 descrambler's history, which garbles a few octets of idle flag
// fill at the start of the stream; the set-up checks, on a scratch endpoint,
// that this never touches a datagram.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>

#include "p5/endpoint.hpp"
#include "replay.hpp"
#include "server/server.hpp"
#include "trace.hpp"
#include "transport/conn.hpp"
#include "transport/event_loop.hpp"
#include "workloads.hpp"

namespace p5bench {
namespace {

using p5::transport::StreamConn;
using p5::transport::TransportSnapshot;

constexpr std::size_t kConns = 4;
constexpr std::size_t kShards = 2;
constexpr std::size_t kStreamChunks = 1024;
constexpr std::size_t kIdleLead = 3;  ///< idle frames the receiver syncs on
constexpr std::size_t kStampRing = 8192;
constexpr u64 kWindow = 64;  ///< datagrams in flight per connection
/// DRR quantum per tenant and round; the shipped ServerConfig default is
/// 4 KiB, so this workload does not measure the shipped setting. The 4 KiB
/// default lets the uplink emit about 13 trace datagrams per tenant per
/// shard-0 slice, and shard 0 may sleep up to 1 ms between slices while the
/// other shard's handoff ring holds work. Under this closed loop that
/// convoy, not per-packet cost, sets the pace: on a 4-vCPU Xeon VM about
/// 37 MB/s, with a p99 of 8.5-12.7 ms that differs from run to run
/// (README.md keeps these as the figures to beat). 64 KiB drains what a pass
/// stages, so the shards' own work shows.
constexpr u32 kDrrQuantum = 64 * 1024;
constexpr u32 kTenantBase = 1;
constexpr double kSetupTimeoutS = 5.0;
constexpr double kDrainTimeoutS = 5.0;
/// A connection that writes nothing for this long in the window is stalled.
constexpr u64 kStallLimitNs = 500'000'000;

u32 tenant_of(std::size_t conn) { return kTenantBase + static_cast<u32>(conn % 2); }

/// One connection's pre-encoded chunk stream and what it carries.
struct Stream {
  std::vector<Bytes> chunks;
  std::vector<Bytes> dgrams;     ///< payloads in order; tag = conn << 24 | seq
  std::vector<u32> done_after;   ///< datagram seq completes with this chunk
  std::vector<u64> done_by;      ///< datagrams complete after chunk j

  /// Datagrams completed by the first `n` chunks of the endless replay.
  [[nodiscard]] u64 through(u64 n) const {
    const u64 rest = n % chunks.size();
    return n / chunks.size() * dgrams.size() + (rest == 0 ? 0 : done_by[rest - 1]);
  }
};

Stream encode_stream(const Trace& trace, std::size_t conn, Report& r) {
  Stream s;
  auto ep = p5::core::make_sonet_endpoint(p5::core::DeviceTier::kFast, {}, p5::sonet::kSts3c);
  for (std::size_t i = 0; i < kIdleLead; ++i) s.chunks.push_back(ep->pull_frame());
  std::size_t idx = conn * 997;  // each connection starts at its own trace offset
  while (s.chunks.size() + 8 < kStreamChunks) {
    for (;;) {
      Bytes p = trace.packets[idx % trace.packets.size()];
      write_tag(p, static_cast<u32>(conn << 24 | s.dgrams.size()));
      if (!ep->tx_has_room(p.size())) break;
      s.dgrams.push_back(p);
      (void)ep->submit_datagram(kProtoIpv4, std::move(p));
      ++idx;
    }
    s.chunks.push_back(ep->pull_frame());
  }
  while (ep->tx_pending()) s.chunks.push_back(ep->pull_frame());
  for (int i = 0; i < 2; ++i) s.chunks.push_back(ep->pull_frame());  // trailing flag fill

  // Decode it twice on a scratch receiver: the first pass maps each
  // datagram to the chunk that completes it, the second proves a replay
  // wrap delivers every datagram again, in order and intact.
  auto rx = p5::core::make_sonet_endpoint(p5::core::DeviceTier::kFast, {}, p5::sonet::kSts3c);
  Verifier v(&s.dgrams, static_cast<u32>(conn << 24), s.dgrams.size());
  s.done_after.assign(s.dgrams.size(), 0);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t j = 0; j < s.chunks.size(); ++j) {
      rx->push_line(s.chunks[j]);
      while (auto d = rx->reap_datagram()) {
        const long long seq = v.check(d->payload);
        if (pass == 0 && seq >= 0) s.done_after[static_cast<std::size_t>(seq)] = static_cast<u32>(j);
      }
      if (pass == 0) s.done_by.push_back(v.ok());
    }
  }
  if (v.ok() != 2 * s.dgrams.size() || v.lost() != 0 || v.corrupt() != 0) {
    r.violation("stream %zu does not replay cleanly: %llu of %zu datagrams over two passes", conn,
                (unsigned long long)v.ok(), 2 * s.dgrams.size());
  }
  return s;
}

/// Everything the uplink sink touches. The sink runs on shard 0's thread;
/// the main thread reads the atomics live and the rest after stop().
struct SinkState {
  const std::vector<Stream>* streams = nullptr;
  std::vector<Verifier> verifiers;
  /// Client write time of each connection's chunks, by global chunk index.
  std::vector<std::vector<std::atomic<u64>>> stamps;
  std::vector<std::atomic<u64>> written;  ///< chunks written per connection
  /// Per connection, datagrams the verifier has settled: delivered, or lost
  /// because a later one arrived first. A loss so never holds the window.
  std::vector<std::atomic<u64>> conn_settled;
  std::atomic<bool> measuring{false};
  std::mutex latency_mu;  ///< guards latency_ns: the sink appends, the client takes
  std::vector<double> latency_ns = latency_buffer();  ///< since the last take_latencies()
  std::atomic<u64> delivered{0}, delivered_bytes{0};
  std::atomic<u64> first_delivery_ns{0};
  std::atomic<u64> failed{0};  ///< lost + corrupt + foreign, as the verifiers see them
  u64 foreign = 0;  ///< datagrams whose tag names no connection, or the wrong tenant

  explicit SinkState(const std::vector<Stream>& s)
      : streams(&s), stamps(kConns), written(kConns), conn_settled(kConns) {
    for (std::size_t c = 0; c < kConns; ++c) {
      verifiers.emplace_back(&s[c].dgrams, static_cast<u32>(c << 24), s[c].dgrams.size());
      stamps[c] = std::vector<std::atomic<u64>>(kStampRing);
    }
  }

  void on_datagram(u32 tenant, BytesView payload) {
    const std::size_t c = read_tag(payload) >> 24;
    if (c >= kConns || tenant != tenant_of(c)) {
      ++foreign;
      failed.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const u64 lost_before = verifiers[c].lost();
    const long long seq = verifiers[c].check(payload);
    if (seq < 0) {
      failed.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (verifiers[c].lost() != lost_before) {
      failed.fetch_add(verifiers[c].lost() - lost_before, std::memory_order_relaxed);
    }
    const u64 t = now_ns();
    u64 expected = 0;
    first_delivery_ns.compare_exchange_strong(expected, t, std::memory_order_relaxed);
    delivered.fetch_add(1, std::memory_order_relaxed);
    delivered_bytes.fetch_add(payload.size(), std::memory_order_relaxed);
    conn_settled[c].store(verifiers[c].ok() + verifiers[c].lost(), std::memory_order_release);
    if (!measuring.load(std::memory_order_relaxed)) return;
    const Stream& s = (*streams)[c];
    const u64 n = s.dgrams.size();
    const u64 chunk = static_cast<u64>(seq) / n * s.chunks.size() + s.done_after[static_cast<u64>(seq) % n];
    if (written[c].load(std::memory_order_acquire) - chunk >= kStampRing) return;  // stamp reused
    const u64 sent = stamps[c][chunk % kStampRing].load(std::memory_order_relaxed);
    if (t >= sent) {
      const std::lock_guard<std::mutex> lock(latency_mu);
      latency_ns.push_back(static_cast<double>(t - sent));
    }
  }

  /// Swap the samples gathered since the last call into `out`, which must
  /// be empty; both buffers keep their capacity.
  void take_latencies(std::vector<double>& out) {
    const std::lock_guard<std::mutex> lock(latency_mu);
    std::swap(out, latency_ns);
  }
};

/// The server, its sink and the client side, in destruction-safe order.
class Rig {
 public:
  Rig(const std::vector<Stream>& streams, Tracer* tracer)
      : sink_(streams), streams_(streams), tracer_(tracer) {
    t_start_ = now_ns();  // the sink's buffers above are the benchmark's own
    p5::server::ServerConfig cfg;
    cfg.listeners = {{0, tenant_of(0)}, {0, tenant_of(1)}};  // port tenancy
    cfg.shards = kShards;
    cfg.route = p5::server::RouteMode::kUplink;
    cfg.tier = p5::core::DeviceTier::kFast;
    cfg.drr_quantum_bytes = kDrrQuantum;
    server_ = std::make_unique<p5::server::TunnelServer>(cfg);
    server_->uplink().set_sink(
        [this](u32 tenant, u16, BytesView payload) { sink_.on_datagram(tenant, payload); });
    ok_ = server_->start();
    if (!ok_) return;
    const std::vector<pid_t> before = task_ids();
    server_->run();
    for (pid_t t : task_ids()) {
      if (!std::binary_search(before.begin(), before.end(), t)) shard_tids_.push_back(t);
    }
    // The server deals accepted connections to shards round-robin. Connect
    // one at a time, each after the previous was accepted, in an order that
    // gives every shard one connection of each tenant.
    clients_.resize(kConns);
    const std::size_t order[kConns] = {0, 1, 3, 2};
    for (std::size_t i = 0; i < kConns && ok_; ++i) {
      const std::size_t c = order[i];
      bool in_progress = false;
      p5::transport::Fd fd = p5::transport::tcp_connect(
          p5::transport::SocketAddr{"127.0.0.1", server_->port(c % 2)}, in_progress);
      clients_[c] = std::make_unique<StreamConn>(loop_, client_tel_, p5::transport::ConnConfig{},
                                                 std::move(fd), in_progress);
      const u64 t0 = now_ns();
      while (server_->accepts() < i + 1 && now_ns() - t0 < 1'000'000'000ull) loop_.run_once(0);
      ok_ = server_->accepts() == i + 1;
    }
    cursor_.assign(kConns, 0);
  }
  ~Rig() {
    clients_.clear();  // EOF toward the server before it stops
    if (server_) server_->stop();
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  [[nodiscard]] bool ok() const { return ok_; }
  /// When building the server started.
  [[nodiscard]] u64 t_start() const { return t_start_; }
  [[nodiscard]] bool all_open() const {
    return std::all_of(clients_.begin(), clients_.end(), [](const auto& c) { return c->open(); });
  }

  /// One client slice: write every chunk the window and the send watermark
  /// allow, then poll the sockets. The client busy-polls, as the open loop
  /// does: a blocking wait would put a wake-up of an idle CPU into every
  /// round trip of the closed loop.
  void client_step(bool write) {
    if (write) {
      Span span(tracer_, SpanKind::kClientFill);
      const u64 now = now_ns();
      for (std::size_t c = 0; c < kConns; ++c) {
        StreamConn& conn = *clients_[c];
        const Stream& s = streams_[c];
        const u64 settled = sink_.conn_settled[c].load(std::memory_order_acquire);
        const u64 before = cursor_[c];
        while (conn.writable() && s.through(cursor_[c] + 1) <= settled + kWindow) {
          const u64 g = cursor_[c];
          sink_.stamps[c][g % kStampRing].store(now_ns(), std::memory_order_relaxed);
          if (!conn.send_frame(s.chunks[g % s.chunks.size()])) break;
          cursor_[c] = g + 1;
          sink_.written[c].store(g + 1, std::memory_order_release);
          ++chunks_written_;
        }
        if (!last_write_ns_.empty()) {
          if (cursor_[c] != before) {
            last_write_ns_[c] = now;
          } else {
            longest_stall_ns_ = std::max(longest_stall_ns_, now - last_write_ns_[c]);
          }
        }
        conn.flush();
      }
    }
    Span span(tracer_, SpanKind::kRunOnce);
    loop_.run_once(0);
  }

  /// From now on, track the longest time a connection goes without writing
  /// a chunk: a connection whose window never opens again shows here.
  void watch_stalls() { last_write_ns_.assign(kConns, now_ns()); }
  [[nodiscard]] u64 longest_stall_ns() const { return longest_stall_ns_; }

  /// Datagrams the written chunks complete, summed over connections.
  [[nodiscard]] u64 datagrams_written() const {
    u64 n = 0;
    for (std::size_t c = 0; c < kConns; ++c) n += streams_[c].through(cursor_[c]);
    return n;
  }
  [[nodiscard]] bool clients_flushed() const {
    return std::all_of(clients_.begin(), clients_.end(),
                       [](const auto& c) { return c->queued_bytes() == 0; });
  }
  /// Close the client side and stop the server (joins the shards).
  void stop() {
    clients_.clear();
    server_->stop();
  }

  SinkState& sink() { return sink_; }
  p5::server::TunnelServer& server() { return *server_; }
  [[nodiscard]] const std::vector<pid_t>& shard_tids() const { return shard_tids_; }
  [[nodiscard]] u64 chunks_written() const { return chunks_written_; }
  [[nodiscard]] TransportSnapshot client_stats() const { return client_tel_.snapshot(); }

 private:
  SinkState sink_;
  const std::vector<Stream>& streams_;
  Tracer* tracer_;
  u64 t_start_ = 0;
  p5::transport::EventLoop loop_;
  p5::transport::TransportTelemetry client_tel_;
  std::unique_ptr<p5::server::TunnelServer> server_;
  std::vector<pid_t> shard_tids_;
  bool ok_ = false;
  std::vector<std::unique_ptr<StreamConn>> clients_;
  std::vector<u64> cursor_;
  u64 chunks_written_ = 0;
  std::vector<u64> last_write_ns_;  ///< per connection, once watch_stalls() was called
  u64 longest_stall_ns_ = 0;
};

/// Build a rig and write until the sink has its first datagram. Returns
/// the seconds from the start of building the server to that delivery.
double set_up(std::unique_ptr<Rig>& rig, const std::vector<Stream>& streams, Tracer* tracer,
              Report& r) {
  rig.reset();  // the previous set-up's teardown is not timed
  std::this_thread::sleep_for(std::chrono::duration<double>(kSetupIdleS));
  const u64 t0 = now_ns();
  rig = std::make_unique<Rig>(streams, tracer);
  if (!rig->ok()) {
    r.violation("server failed to start or accept: %s", rig->server().last_error().c_str());
    return 0.0;
  }
  while (static_cast<double>(now_ns() - t0) < kSetupTimeoutS * 1e9) {
    rig->client_step(rig->all_open());
    const u64 first = rig->sink().first_delivery_ns.load(std::memory_order_relaxed);
    if (first != 0) return static_cast<double>(first - rig->t_start()) / 1e9;
  }
  r.violation("set-up: no datagram reached the uplink within %.0f s", kSetupTimeoutS);
  return kSetupTimeoutS;
}

u64 shard_cpu_ns(const Rig& rig) {
  u64 n = 0;
  for (pid_t t : rig.shard_tids()) n += task_cpu_ns(t);
  return n;
}

}  // namespace

Report run_server_fanin(const Options& opt) {
  Report r;
  const Trace trace = make_trace(4096, opt.seed);
  std::vector<Stream> streams;
  for (std::size_t c = 0; c < kConns; ++c) streams.push_back(encode_stream(trace, c, r));
  if (!r.correct) return r;

  std::unique_ptr<Tracer> tracer = opt.trace ? std::make_unique<Tracer>() : nullptr;
  std::unique_ptr<Rig> rig;
  std::vector<double> setups;
  const int reps = opt.trace ? 1 : kSetupReps;
  for (int i = 0; i < reps && r.correct; ++i) setups.push_back(set_up(rig, streams, tracer.get(), r));
  if (!r.correct) return r;
  SinkState& sink = rig->sink();

  WindowHooks hooks;
  hooks.read = [&] {
    Counters c;
    c.wall_ns = now_ns();
    c.cpu_ns = process_cpu_ns();
    c.client_cpu_ns = thread_cpu_now_ns();  // runs on the client thread
    c.dgrams = sink.delivered.load(std::memory_order_relaxed);
    c.bytes = sink.delivered_bytes.load(std::memory_order_relaxed);
    c.failed = sink.failed.load(std::memory_order_relaxed);
    c.chunks_written = rig->chunks_written();
    if (tracer) {  // /proc reads: the traced run only
      c.shard_cpu_ns = shard_cpu_ns(*rig);
      c.chunks_rcvd = rig->server().transport_stats().frames_rcvd;
    }
    return c;
  };
  hooks.begin_slice = [&](bool traced) {
    if (!sink.measuring.load(std::memory_order_relaxed)) rig->watch_stalls();
    sink.measuring.store(true, std::memory_order_relaxed);
    if (tracer) tracer->set_enabled(traced);
  };
  hooks.take_latencies = [&](std::vector<double>& out) { sink.take_latencies(out); };
  hooks.step = [&] { rig->client_step(true); };
  const Window w = run_window(opt.seconds, tracer != nullptr, hooks);
  if (tracer) tracer->set_enabled(false);
  sink.measuring.store(false, std::memory_order_relaxed);
  if (rig->longest_stall_ns() >= kStallLimitNs) {
    r.violation("a connection wrote nothing for %.3f s: its window stayed shut",
                static_cast<double>(rig->longest_stall_ns()) / 1e9);
  }

  // Drain: flush the clients, then wait for every written datagram.
  const u64 expected = rig->datagrams_written();
  const u64 deadline = now_ns() + static_cast<u64>(kDrainTimeoutS * 1e9);
  while (now_ns() < deadline &&
         (!rig->clients_flushed() || sink.delivered.load(std::memory_order_relaxed) < expected)) {
    rig->client_step(false);
  }
  rig->stop();

  // ---- checks (the shards are joined: every counter is final)
  p5::server::TunnelServer& srv = rig->server();
  const TransportSnapshot xs = srv.transport_stats();
  if (xs.frames_in != xs.frames_out + xs.frames_lost) {
    r.violation("server chunk ledger open: in=%llu out=%llu lost=%llu",
                (unsigned long long)xs.frames_in, (unsigned long long)xs.frames_out,
                (unsigned long long)xs.frames_lost);
  }
  u64 uplink_lost = 0, policed = 0;
  std::vector<double> tenant_dgrams;
  for (u32 t = kTenantBase; t < kTenantBase + 2; ++t) {
    const p5::server::TenantSnapshot ts = srv.tenant_stats(t);
    if (!ts.ledger_exact()) {
      r.violation("tenant %u ledger open: in=%llu out=%llu lost=%llu", t,
                  (unsigned long long)ts.dgrams_in, (unsigned long long)ts.dgrams_out(),
                  (unsigned long long)ts.dgrams_lost);
    }
    uplink_lost += ts.dgrams_lost;
    policed += ts.chunks_policed;
    tenant_dgrams.push_back(static_cast<double>(ts.dgrams_uplinked));
  }
  u64 ok = 0, lost = 0, corrupt = sink.foreign;
  for (const Verifier& v : sink.verifiers) {
    ok += v.ok();
    lost += v.lost();
    corrupt += v.corrupt();
  }
  if (corrupt > 0) {
    r.violation("%llu datagrams delivered with wrong bytes, out of order or to the wrong tenant",
                (unsigned long long)corrupt);
  }
  r.attempted = expected;
  r.failed = failed_datagrams(expected, ok, 0, 0);
  const double fail_ratio = static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  r.note("server_fanin: %llu datagrams written, %llu delivered intact, %llu lost, %llu corrupt, "
         "uplink lost %llu, policed %llu -> fail_ratio %.6f",
         (unsigned long long)expected, (unsigned long long)ok, (unsigned long long)lost,
         (unsigned long long)corrupt, (unsigned long long)uplink_lost, (unsigned long long)policed,
         fail_ratio);

  if (!opt.trace) {
    report_end_to_end(r, w, fail_ratio, setups);
    r.note("%zu shard threads; longest write stall of a connection %.3f ms", rig->shard_tids().size(),
           static_cast<double>(rig->longest_stall_ns()) / 1e6);
    return r;
  }

  // ---- traced run: per-layer split from thread CPU and public snapshots
  const auto per = [](double total, double n) { return n > 0 ? total / n : 0.0; };
  const auto d = [](u64 v) { return static_cast<double>(v); };
  LayerFigures f;
  const TransportSnapshot cs = rig->client_stats();
  // The client's send path per chunk; its run_once spans are mostly polling.
  f.transport_self_ns_per_chunk =
      per(d(tracer->totals(SpanKind::kClientFill).self_ns), d(w.traced.chunks_written));
  f.transport_chunks_per_syscall = cs.frames_per_syscall();
  f.transport_pool_recycle_ratio = per(d(cs.pool_recycled), d(cs.frames_in));
  f.transport_send_queue_hwm_kb = d(cs.send_queue_hwm) / 1024.0;
  f.server_shard_busy_ratio =
      per(d(w.traced.shard_cpu_ns), d(w.traced.wall_ns) * d(rig->shard_tids().size()));
  f.server_cpu_ns_per_dgram = per(d(w.traced.shard_cpu_ns), d(w.traced.dgrams));
  f.server_client_cpu_share = per(d(w.traced.client_cpu_ns), d(w.traced.cpu_ns));
  f.server_chunks_per_syscall = xs.frames_per_syscall();
  f.server_tenant_share_skew = per(*std::max_element(tenant_dgrams.begin(), tenant_dgrams.end()),
                                   *std::min_element(tenant_dgrams.begin(), tenant_dgrams.end()));
  f.server_uplink_lost = d(uplink_lost);
  f.server_policer_drops = d(policed);
  f.verify_fail_ratio = fail_ratio;

  // Isolated replay of what the server's receivers were handed.
  ReplayInput in;
  for (std::size_t c = 0; c < kConns && in.rx_chunks.size() < 3000; ++c) {
    in.rx_chunks.insert(in.rx_chunks.end(), streams[c].chunks.begin(), streams[c].chunks.end());
  }
  std::vector<Bytes> all_dgrams;
  for (const Stream& s : streams) all_dgrams.insert(all_dgrams.end(), s.dgrams.begin(), s.dgrams.end());
  in.density_payloads = &all_dgrams;
  const ReplayResult rr = replay_layers(in);
  apply_replay(f, rr);
  // In situ on this workload is the shard threads' CPU per chunk received,
  // which also holds the server's transport, session and DRR work.
  f.p5_unattributed_ns_per_chunk = per(d(w.traced.shard_cpu_ns), d(w.traced.chunks_rcvd)) - rr.rx_ns_per_chunk;
  f.trace_unattributed_share =
      1.0 - per(d(w.traced.shard_cpu_ns + tracer->top_level_ns()), d(w.traced.cpu_ns));
  f.trace_overhead_ratio =
      per(slice_figures(w.slices, false).goodput_mb_s, slice_figures(w.slices, true).goodput_mb_s);
  set_layer_metrics(r, f);
  r.note("traced: %zu shard threads, shard CPU %.3f s, client CPU %.3f s over %.2f s traced",
         rig->shard_tids().size(), d(w.traced.shard_cpu_ns) / 1e9, d(w.traced.client_cpu_ns) / 1e9,
         d(w.traced.wall_ns) / 1e9);
  if (!opt.trace_out.empty() && !tracer->write(opt.trace_out)) {
    r.note("could not write the span sample to %s", opt.trace_out.c_str());
  }
  return r;
}

}  // namespace p5bench
