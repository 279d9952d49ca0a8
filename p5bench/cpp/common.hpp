// Shared pieces of the benchmark: clocks, CPU and memory probes, seeded
// inputs with a per-datagram tag, the in-order verifier, and the result
// record every workload fills.
#pragma once

#include <sys/types.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace p5bench {

using p5::Bytes;
using p5::BytesView;
using p5::u16;
using p5::u32;
using p5::u64;
using p5::u8;

// ------------------------------------------------------------------ probes

/// Monotonic wall clock in nanoseconds.
[[nodiscard]] u64 now_ns();
/// CPU time of the calling thread in nanoseconds.
[[nodiscard]] u64 thread_cpu_now_ns();
/// User + system CPU of the whole process (getrusage), nanoseconds.
[[nodiscard]] u64 process_cpu_ns();
/// User + system CPU of one thread of this process, from
/// /proc/self/task/<tid>/stat (clock-tick resolution). 0 if unreadable.
[[nodiscard]] u64 task_cpu_ns(pid_t tid);
/// Thread ids of this process, from /proc/self/task.
[[nodiscard]] std::vector<pid_t> task_ids();
/// Peak resident set of this process (getrusage ru_maxrss), MB.
[[nodiscard]] double peak_rss_mb();

// ------------------------------------------------------------- statistics

/// Quantile q in [0,1] by nearest rank on a copy of `v` (0 when empty).
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ------------------------------------------------------------------ inputs

/// STS-3c, the line every shipped datapath tool models.
inline constexpr double kSts3cPayloadBytesPerS = 2340.0 * 8000.0;  // 18.72 MB/s
inline constexpr u16 kProtoIpv4 = 0x0021;

/// Every datagram carries a 32-bit tag at octets 4,5,10,11 — the IPv4
/// identification and header-checksum fields when the payload is an IPv4
/// packet, which nothing on the datapath reads. All payloads are >= 12 B.
void write_tag(Bytes& payload, u32 tag);
[[nodiscard]] u32 read_tag(BytesView payload);

/// `count` payloads of `len` seeded uniform-random octets.
[[nodiscard]] std::vector<Bytes> random_payloads(std::size_t count, std::size_t len, u64 seed);

/// The bundled deterministic TCP trace (net::capture::synthesize_tcp_trace)
/// built from `seed`: IPv4 packets of 40..552 B plus their seeded
/// inter-packet gaps.
struct Trace {
  std::vector<Bytes> packets;
  std::vector<u64> offset_ns;  ///< send offset of packet i from the trace start
  u64 period_ns = 0;           ///< offset at which the next pass starts
  [[nodiscard]] double mean_bytes() const;
};
[[nodiscard]] Trace make_trace(std::size_t packets, u64 seed);

// ---------------------------------------------------------------- verifier

/// Checks one ordered datagram stream against what was submitted. Datagram
/// `seq` is bank[seq % bank.size()] with the tag tag_base + seq % modulus.
/// A delivery that skips ahead books the skipped datagrams as lost;
/// anything else that does not match byte for byte is corrupt.
class Verifier {
 public:
  explicit Verifier(const std::vector<Bytes>* bank, u32 tag_base = 0,
                    u64 modulus = u64{1} << 32)
      : bank_(bank), tag_base_(tag_base), modulus_(modulus) {}

  /// The payload of datagram `seq`.
  [[nodiscard]] Bytes make(u64 seq) const;
  [[nodiscard]] std::size_t size_of(u64 seq) const { return (*bank_)[seq % bank_->size()].size(); }

  /// Check one delivery; returns the sequence number it was accepted as,
  /// or -1 for a corrupt delivery.
  long long check(BytesView payload);

  [[nodiscard]] u64 ok() const { return ok_; }
  [[nodiscard]] u64 ok_bytes() const { return ok_bytes_; }
  [[nodiscard]] u64 lost() const { return lost_; }
  [[nodiscard]] u64 corrupt() const { return corrupt_; }

 private:
  [[nodiscard]] u32 tag_for(u64 seq) const {
    return static_cast<u32>(tag_base_ + seq % modulus_);
  }
  [[nodiscard]] bool matches(BytesView payload, u64 seq) const;

  const std::vector<Bytes>* bank_;
  u32 tag_base_;
  u64 modulus_;
  u64 next_ = 0;
  u64 ok_ = 0;
  u64 ok_bytes_ = 0;
  u64 lost_ = 0;
  u64 corrupt_ = 0;
};

// ------------------------------------------------------------------ result

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< where the traced run writes its span sample
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload reports. The benchmark prints `metrics` as the result
/// line; `notes` are human-readable lines printed before it.
struct Report {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit);
  void note(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  /// Record a violated check: the run is incorrect and exits nonzero.
  void violation(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
};

/// Datagrams that count as failed, given the verifier's view and the
/// endpoint's own ledger: whichever is larger of the datagrams not delivered
/// intact and the frames the receiver discarded (a bad frame can hide more
/// than one datagram, a lost chunk more than one frame).
[[nodiscard]] u64 failed_datagrams(u64 attempted, u64 delivered_ok, u64 frames_bad,
                                   u64 overflow_drops);

/// Cumulative counters a workload exposes. The slice driver reads them at
/// every slice boundary; a slice is the difference of two readings.
struct Counters {
  u64 wall_ns = 0;
  u64 cpu_ns = 0;         ///< process user+sys CPU (getrusage)
  u64 client_cpu_ns = 0;  ///< a busy-polling client thread's CPU, left out of cpu_ns_per_dgram
  u64 dgrams = 0;         ///< delivered intact
  u64 bytes = 0;          ///< payload octets of those
  u64 failed = 0;         ///< lost or corrupt, as the verifiers see them
  // Read by server_fanin only.
  u64 shard_cpu_ns = 0;
  u64 chunks_written = 0;
  u64 chunks_rcvd = 0;

  [[nodiscard]] Counters since(const Counters& o) const;
  Counters& operator+=(const Counters& o);
};

/// One fixed-length measurement slice. A slice that delivered nothing has
/// infinite latency percentiles.
struct Slice {
  Counters d;  ///< counter deltas over the slice
  bool traced = false;
  // Latency percentiles of the slice, set by summarize_latency().
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::size_t latency_samples = 0;

  /// Percentiles of `latency_ns` plus `failed` datagrams, each of which
  /// counts as missing every latency limit (an infinite sample); with no
  /// sample at all both are infinite. Reorders and then empties
  /// `latency_ns`, keeping its capacity.
  void summarize_latency(std::vector<double>& latency_ns, u64 failed);
};

/// A latency sample buffer for one slice, allocated and touched up front so
/// the process's resident set does not depend on the delivery rate.
[[nodiscard]] std::vector<double> latency_buffer();

/// What the slice driver calls, all on the calling thread.
struct WindowHooks {
  std::function<Counters()> read;
  /// At the start of every slice; `traced` says whether it is a traced one.
  std::function<void(bool traced)> begin_slice;
  /// Swap the latency samples (ns) gathered since the last call into `out`,
  /// which is empty; both buffers keep their capacity.
  std::function<void(std::vector<double>& out)> take_latencies;
  /// One step of the workload.
  std::function<void()> step;
};

struct Window {
  std::vector<Slice> slices;
  Counters traced;  ///< summed over the traced slices
};

/// Set-ups per measured run; setup_s is their median.
inline constexpr int kSetupReps = 21;

/// How long the process idles between tearing down one set-up and timing
/// the next, so each starts from an idle process as a tunnel or server start
/// does. Back to back, a set-up reuses warm state its predecessor left: on
/// bulk_tcp the per-run median then fell in one of two clusters, about 80
/// and 120 us, that changed from process to process. After the pause it is
/// about 0.36 ms and moves a few percent from run to run.
inline constexpr double kSetupIdleS = 0.1;

/// Length of one measurement slice, seconds.
inline constexpr double kSliceS = 0.1;

/// Warm up for min(1 s, seconds / 5), then step through a window of
/// `seconds` cut into slices of at most kSliceS (at least 20). With
/// `alternate`, every second slice is traced, so the traced and untraced
/// slices of a traced run see the same host.
[[nodiscard]] Window run_window(double seconds, bool alternate, const WindowHooks& hooks);

/// Which quantile over the slices a latency figure is. On a shared VM,
/// hypervisor steal and slow vCPU wake-ups lift the latency tail of whole
/// stretches of slices, and how many of them varies from run to run: on
/// server_fanin the 0.5 s slice p99 of one 10 s window ranged from 0.41 to
/// 7.9 ms. The quieter slices are the ones that show the code, so latency
/// is the figure of the quietest tenth of the window.
inline constexpr double kLatencySliceQuantile = 0.10;

/// Over the slices whose traced flag equals `traced`: goodput, rate and CPU
/// per datagram of their sum, and the kLatencySliceQuantile quantile of the
/// slice latency percentiles.
struct SliceFigures {
  double goodput_mb_s = 0.0;
  double dgrams_per_s = 0.0;
  double cpu_ns_per_dgram = 0.0;
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  std::size_t latency_samples = 0;  ///< over those slices
};
[[nodiscard]] SliceFigures slice_figures(const std::vector<Slice>& slices, bool traced);

/// The end-to-end metrics of an untraced run: the slice figures, the
/// delivered share, the median of the set-up times (seconds) and the peak
/// resident set.
void report_end_to_end(Report& r, const Window& w, double fail_ratio,
                       const std::vector<double>& setup_s);

}  // namespace p5bench
