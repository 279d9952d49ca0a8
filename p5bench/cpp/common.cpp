#include "common.hpp"

#include <dirent.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/rng.hpp"
#include "net/capture/trace_gen.hpp"

namespace p5bench {

// ------------------------------------------------------------------ probes

u64 now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<u64>(ts.tv_sec) * 1'000'000'000ull + static_cast<u64>(ts.tv_nsec);
}

u64 thread_cpu_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<u64>(ts.tv_sec) * 1'000'000'000ull + static_cast<u64>(ts.tv_nsec);
}

u64 process_cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv_ns = [](const timeval& tv) {
    return static_cast<u64>(tv.tv_sec) * 1'000'000'000ull + static_cast<u64>(tv.tv_usec) * 1000ull;
  };
  return tv_ns(ru.ru_utime) + tv_ns(ru.ru_stime);
}

u64 task_cpu_ns(pid_t tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0;
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const auto close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  u64 utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  const long hz = sysconf(_SC_CLK_TCK);
  return (utime + stime) * (1'000'000'000ull / static_cast<u64>(hz > 0 ? hz : 100));
}

std::vector<pid_t> task_ids() {
  std::vector<pid_t> out;
  DIR* d = opendir("/proc/self/task");
  if (!d) return out;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] == '.') continue;
    out.push_back(static_cast<pid_t>(std::atoi(e->d_name)));
  }
  closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ------------------------------------------------------------- statistics

namespace {
/// Quantile q by nearest rank, reordering `v` in place (0 when empty).
double quantile_in_place(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::clamp(std::ceil(q * static_cast<double>(v.size())) - 1.0, 0.0,
                 static_cast<double>(v.size() - 1)));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
  return v[rank];
}
}  // namespace

double quantile(std::vector<double> v, double q) { return quantile_in_place(v, q); }

// ------------------------------------------------------------------ inputs

void write_tag(Bytes& payload, u32 tag) {
  payload[4] = static_cast<u8>(tag >> 24);
  payload[5] = static_cast<u8>(tag >> 16);
  payload[10] = static_cast<u8>(tag >> 8);
  payload[11] = static_cast<u8>(tag);
}

u32 read_tag(BytesView payload) {
  if (payload.size() < 12) return 0;
  return (u32{payload[4]} << 24) | (u32{payload[5]} << 16) | (u32{payload[10]} << 8) |
         u32{payload[11]};
}

std::vector<Bytes> random_payloads(std::size_t count, std::size_t len, u64 seed) {
  p5::Xoshiro256 rng(seed);
  std::vector<Bytes> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(rng.bytes(len));
  return out;
}

double Trace::mean_bytes() const {
  double total = 0.0;
  for (const Bytes& p : packets) total += static_cast<double>(p.size());
  return packets.empty() ? 0.0 : total / static_cast<double>(packets.size());
}

Trace make_trace(std::size_t packets, u64 seed) {
  p5::net::capture::TraceGenConfig cfg;
  cfg.flows = 6;
  cfg.packets = packets;
  cfg.seed = seed;
  const p5::net::capture::PcapFile file = p5::net::capture::synthesize_tcp_trace(cfg);
  Trace t;
  t.packets.reserve(file.records.size());
  t.offset_ns.reserve(file.records.size());
  const u64 first = file.records.empty() ? 0 : file.records.front().timestamp_ns();
  for (const auto& rec : file.records) {
    t.packets.push_back(rec.data);
    t.offset_ns.push_back(rec.timestamp_ns() - first);
  }
  // The pass repeats after one more mean gap past the last record.
  const u64 span = t.offset_ns.empty() ? 0 : t.offset_ns.back();
  t.period_ns = span + (t.packets.size() > 1 ? span / (t.packets.size() - 1) : cfg.mean_gap_ns);
  return t;
}

// ---------------------------------------------------------------- verifier

Bytes Verifier::make(u64 seq) const {
  Bytes p = (*bank_)[seq % bank_->size()];
  write_tag(p, tag_for(seq));
  return p;
}

bool Verifier::matches(BytesView payload, u64 seq) const {
  const Bytes& want = (*bank_)[seq % bank_->size()];
  if (payload.size() != want.size() || read_tag(payload) != tag_for(seq)) return false;
  // Compare around the tag octets (4,5 and 10,11).
  return std::memcmp(payload.data(), want.data(), 4) == 0 &&
         std::memcmp(payload.data() + 6, want.data() + 6, 4) == 0 &&
         std::memcmp(payload.data() + 12, want.data() + 12, want.size() - 12) == 0;
}

long long Verifier::check(BytesView payload) {
  const u32 tag = read_tag(payload);
  const u64 rel = static_cast<u32>(tag - tag_base_);
  if (payload.size() >= 12 && rel < modulus_) {
    // How far past the expected datagram this one is (0 = in order).
    const u64 skip = (rel + modulus_ - next_ % modulus_) % modulus_;
    if (skip < (u64{1} << 20) && matches(payload, next_ + skip)) {
      lost_ += skip;
      next_ += skip + 1;
      ++ok_;
      ok_bytes_ += payload.size();
      return static_cast<long long>(next_ - 1);
    }
  }
  ++corrupt_;
  return -1;
}

// ------------------------------------------------------------------ result

void Report::set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Report::note(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  notes.emplace_back(buf);
}

void Report::violation(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  correct = false;
  notes.push_back(std::string("VIOLATION: ") + buf);
}

u64 failed_datagrams(u64 attempted, u64 delivered_ok, u64 frames_bad, u64 overflow_drops) {
  const u64 missing = attempted > delivered_ok ? attempted - delivered_ok : 0;
  return std::max(missing, frames_bad + overflow_drops);
}

Counters Counters::since(const Counters& o) const {
  return {wall_ns - o.wall_ns,       cpu_ns - o.cpu_ns,
          client_cpu_ns - o.client_cpu_ns, dgrams - o.dgrams,
          bytes - o.bytes,           failed - o.failed,
          shard_cpu_ns - o.shard_cpu_ns, chunks_written - o.chunks_written,
          chunks_rcvd - o.chunks_rcvd};
}

Counters& Counters::operator+=(const Counters& o) {
  wall_ns += o.wall_ns;
  cpu_ns += o.cpu_ns;
  client_cpu_ns += o.client_cpu_ns;
  dgrams += o.dgrams;
  bytes += o.bytes;
  failed += o.failed;
  shard_cpu_ns += o.shard_cpu_ns;
  chunks_written += o.chunks_written;
  chunks_rcvd += o.chunks_rcvd;
  return *this;
}

void Slice::summarize_latency(std::vector<double>& latency_ns, u64 failed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  latency_ns.insert(latency_ns.end(), failed, kInf);
  latency_samples = latency_ns.size();
  p50_us = latency_ns.empty() ? kInf : quantile_in_place(latency_ns, 0.50) / 1e3;
  p99_us = latency_ns.empty() ? kInf : quantile_in_place(latency_ns, 0.99) / 1e3;
  latency_ns.clear();
}

std::vector<double> latency_buffer() {
  // A slice at 2M datagrams/s; the fastest workload delivers about 1M/s.
  std::vector<double> v(static_cast<std::size_t>(kSliceS * 2e6));
  v.clear();
  return v;
}

Window run_window(double seconds, bool alternate, const WindowHooks& hooks) {
  const auto n = static_cast<std::size_t>(std::max(20.0, std::round(seconds / kSliceS)));
  const auto slice_ns = static_cast<u64>(seconds * 1e9 / static_cast<double>(n));
  const u64 t_window = now_ns() + static_cast<u64>(std::min(1.0, seconds / 5.0) * 1e9);
  Window w;
  std::vector<double> latency = latency_buffer();
  Counters at_start;
  bool traced = false;
  u64 next_boundary = t_window;
  for (;;) {
    if (now_ns() >= next_boundary) {
      const Counters c = hooks.read();
      hooks.take_latencies(latency);
      if (next_boundary == t_window) {
        latency.clear();  // gathered before the window
      } else {
        Slice s;
        s.d = c.since(at_start);
        s.traced = traced;
        s.summarize_latency(latency, s.d.failed);
        if (traced) w.traced += s.d;
        w.slices.push_back(s);
        if (w.slices.size() == n) break;
      }
      traced = alternate && w.slices.size() % 2 == 1;
      hooks.begin_slice(traced);
      at_start = c;
      next_boundary = t_window + (w.slices.size() + 1) * slice_ns;
    }
    hooks.step();
  }
  return w;
}

SliceFigures slice_figures(const std::vector<Slice>& slices, bool traced) {
  Counters sum;
  std::vector<double> p50, p99;
  SliceFigures m;
  for (const Slice& s : slices) {
    if (s.traced != traced) continue;
    sum += s.d;
    p50.push_back(s.p50_us);
    p99.push_back(s.p99_us);
    m.latency_samples += s.latency_samples;
  }
  const double wall_s = static_cast<double>(sum.wall_ns) / 1e9;
  const double dgrams = static_cast<double>(sum.dgrams);
  // The client thread's CPU is read at a finer resolution than the
  // process's, so the difference is clamped.
  const double cpu_ns = static_cast<double>(sum.cpu_ns - std::min(sum.cpu_ns, sum.client_cpu_ns));
  if (wall_s > 0.0) {
    m.goodput_mb_s = static_cast<double>(sum.bytes) / 1e6 / wall_s;
    m.dgrams_per_s = dgrams / wall_s;
  }
  m.cpu_ns_per_dgram = sum.dgrams > 0 ? cpu_ns / dgrams : std::numeric_limits<double>::infinity();
  m.latency_p50_us = quantile(p50, kLatencySliceQuantile);
  m.latency_p99_us = quantile(p99, kLatencySliceQuantile);
  return m;
}

void report_end_to_end(Report& r, const Window& w, double fail_ratio,
                       const std::vector<double>& setup_s) {
  const SliceFigures m = slice_figures(w.slices, false);
  r.set("goodput_mb_s", m.goodput_mb_s, "MB/s");
  r.set("dgrams_per_s", m.dgrams_per_s, "1/s");
  r.set("cpu_ns_per_dgram", m.cpu_ns_per_dgram, "ns");
  r.set("latency_p50_us", m.latency_p50_us, "us");
  r.set("latency_p99_us", m.latency_p99_us, "us");
  r.set("delivered_ratio", 1.0 - fail_ratio, "ratio");
  const double setup = median(setup_s);
  r.set("setup_s", setup, "s");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  r.note("window in %zu slices, %zu latency samples; setup: median %.6f s over %zu set-ups "
         "(min %.6f, max %.6f)",
         w.slices.size(), m.latency_samples, setup, setup_s.size(),
         *std::min_element(setup_s.begin(), setup_s.end()),
         *std::max_element(setup_s.begin(), setup_s.end()));
}

}  // namespace p5bench
