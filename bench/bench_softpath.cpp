// Old-vs-new throughput of the word-parallel software fast path
// (src/fastpath) against the seed-era scalar reference paths preserved in
// fastpath/scalar_ref.hpp:
//
//   * CRC FCS-16/FCS-32: byte-at-a-time table loop vs slicing-by-8;
//   * HDLC stuffing/destuffing: octet loop vs the runtime-dispatched escape
//     engine (scalar / SSSE3 / AVX2), with one row per tier
//     this host can pin plus the production auto-dispatch row;
//   * framing: encapsulate+stuff+copy (3 allocations) vs fused zero-alloc
//     encode_into, and a 32-frame batched encode (encode_batch_into) that
//     amortises per-frame setup — the small-frame case;
//   * SONET scramblers: bit-serial loops vs table / byte-parallel stepping;
//   * flag delineation: hdlc::Delineator's octet push vs its bulk push, over
//     one idle STS-3c SPE of flag fill and over SPEs full of 1500 B frames.
//
// Swept across escape densities {0, 1/128, 0.25, 1.0} and payload sizes
// {64 B, 1500 B, 9 KB}. Results go to stdout and to a machine-readable
// BENCH_softpath.json (format documented in README.md) so future PRs can
// track the perf trajectory; scripts/bench_compare.py gates regressions
// against the committed baseline.
//
// Row semantics: `frame_bytes` is always the *payload* size; `wire_bytes`
// is the stuffed/framed size the kernel actually moves (destuff throughput
// is measured over wire octets consumed). `dispatch` names the escape-engine
// tier the row ran; `pinned` rows force a lower tier for diagnosis — the
// speedup guarantees apply to the auto-dispatch rows only (pinned scalar rows
// run a per-octet loop like the seed's, so they carry no guarantee).
//
// Usage: bench_softpath [--smoke] [--quick] [--out <path>]
//   --smoke  tiny iteration counts (CI bit-rot check, label `bench`)
//   --quick  3 passes of 7 interleaved 1 ms window pairs per row instead of
//            one pass of 3 x 40 ms (~6x faster full sweep; used by the
//            check.sh / CI bench_compare gate, where the *ratios* matter)
//   --out    JSON output path (default BENCH_softpath.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "crc/crc_table.hpp"
#include "fastpath/escape_simd.hpp"
#include "fastpath/scalar_ref.hpp"
#include "hdlc/delineation.hpp"
#include "hdlc/frame.hpp"
#include "hdlc/stuffing.hpp"
#include "sonet/scrambler.hpp"

namespace p5::bench {
namespace {

struct Row {
  std::string kernel;        // e.g. "crc32", "stuff", "frame_batch"
  std::size_t frame_bytes;   // payload size driven through the kernel
  double escape_density;     // fraction of escape-class octets in the payload
  std::string dispatch;      // engine/tier that produced new_mb_s
  bool pinned = false;       // true: tier forced below auto-dispatch (diagnostic)
  std::size_t wire_bytes;    // stuffed/framed size the kernel moves
  double old_mb_s = 0.0;     // seed scalar path
  double new_mb_s = 0.0;     // fastpath
  [[nodiscard]] double speedup() const { return old_mb_s > 0 ? new_mb_s / old_mb_s : 0.0; }
};

double g_min_seconds = 0.04;  // per window; --smoke drops it to ~0
int g_repeats = 3;            // best-of-N window pairs; --smoke drops to 1
int g_passes = 1;             // whole sweeps, best of each row kept

/// MB/s (1e6 bytes per second) of one timed window: `fn`, which processes
/// `bytes_per_call` octets, called until g_min_seconds have passed.
double window_mb_s(std::size_t bytes_per_call, const std::function<void()>& fn) {
  using clock = std::chrono::steady_clock;
  u64 calls = 0;
  const auto start = clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++calls;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < g_min_seconds);
  return static_cast<double>(calls) * static_cast<double>(bytes_per_call) / elapsed / 1e6;
}

/// Time the seed path and the fast path over g_repeats pairs of
/// back-to-back windows, and return `row` with the best MB/s of each filled
/// in. Interleaving makes both halves of a speedup see the same host state:
/// on a shared VM the achievable rate can drift by 2x from one second to the
/// next, and a ratio whose halves were timed in different stretches reads off
/// by that factor. Best-of-N then damps the per-window noise symmetrically.
Row measure(Row row, std::size_t bytes_per_call, const std::function<void()>& old_fn,
            const std::function<void()>& new_fn) {
  // Warm-up run of each (also wakes lazily-built tables).
  old_fn();
  new_fn();
  for (int rep = 0; rep < g_repeats; ++rep) {
    row.old_mb_s = std::max(row.old_mb_s, window_mb_s(bytes_per_call, old_fn));
    row.new_mb_s = std::max(row.new_mb_s, window_mb_s(bytes_per_call, new_fn));
  }
  return row;
}

void print_row(const Row& r) {
  std::printf("  %-12s %6zu B (wire %6zu)  density %-8.4g  %-10s old %9.1f MB/s  new %9.1f MB/s  %5.2fx%s\n",
              r.kernel.c_str(), r.frame_bytes, r.wire_bytes, r.escape_density,
              r.dispatch.c_str(), r.old_mb_s, r.new_mb_s, r.speedup(),
              r.pinned ? "  [pinned]" : "");
}

bool write_json(const std::vector<Row>& rows, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"bench\": \"softpath\",\n  \"unit\": \"MB/s\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"kernel\": \"" << r.kernel << "\", \"frame_bytes\": " << r.frame_bytes
        << ", \"escape_density\": " << r.escape_density << ", \"dispatch\": \"" << r.dispatch
        << "\", \"pinned\": " << (r.pinned ? "true" : "false")
        << ", \"wire_bytes\": " << r.wire_bytes << ", \"old_mb_s\": " << r.old_mb_s
        << ", \"new_mb_s\": " << r.new_mb_s << ", \"speedup\": " << r.speedup() << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.good();
}

volatile u32 g_sink;  // defeat dead-code elimination without perturbing loops

/// One timed pass over every kernel, size and density.
std::vector<Row> sweep() {
  const fastpath::scalar::ByteTableCrc old_crc32(crc::kFcs32);
  const fastpath::scalar::ByteTableCrc old_crc16(crc::kFcs16);
  const hdlc::Accm accm = hdlc::Accm::sonet();
  const fastpath::EscapeTier auto_tier = fastpath::best_tier();
  const std::size_t sizes[] = {64, 1500, 9216};
  const double densities[] = {0.0, 1.0 / 128, 0.25, 1.0};
  std::vector<Row> rows;

  const auto add = [&](Row row, std::size_t bytes_per_call, const std::function<void()>& old_fn,
                       const std::function<void()>& new_fn) {
    rows.push_back(measure(std::move(row), bytes_per_call, old_fn, new_fn));
  };

  for (const std::size_t size : sizes) {
    for (const double density : densities) {
      const Bytes payload = density_payload(size, density, 42);
      const Bytes stuffed = hdlc::stuff(payload);

      // --- CRC (input-independent of density, but swept uniformly so every
      // row of the JSON has the same shape) ---
      add({"crc32", size, density, "slice8", false, size}, size,
          [&] { g_sink = old_crc32.crc(payload); }, [&] { g_sink = crc::fcs32().crc(payload); });
      add({"crc16", size, density, "slice8", false, size}, size,
          [&] { g_sink = old_crc16.crc(payload); }, [&] { g_sink = crc::fcs16().crc(payload); });

      // --- stuffing (throughput in *payload* octets in, wire octets out):
      // one auto-dispatch row plus one pinned row per lower tier ---
      const auto stuff_old = [&] {
        g_sink = static_cast<u32>(fastpath::scalar::stuff(payload).size());
      };
      const auto destuff_old = [&] {
        g_sink = static_cast<u32>(fastpath::scalar::destuff(stuffed).first.size());
      };
      // The engine appends into a caller-owned buffer, reused across calls
      // as FrameArena and the endpoints reuse theirs, so the row times the
      // kernel and not a malloc/free of up to 18 KB per call.
      Bytes out;
      out.reserve(2 * payload.size() + fastpath::kStuffSlack);
      for (const fastpath::EscapeTier tier : fastpath::available_tiers()) {
        const bool pinned = tier != auto_tier;
        const fastpath::EscapeEngine eng(accm, tier);
        add({"stuff", size, density, fastpath::to_string(tier), pinned, stuffed.size()}, size,
            stuff_old, [&] {
              out.clear();
              eng.stuff_append(out, payload);
              g_sink = static_cast<u32>(out.size());
            });
        add({"destuff", size, density, fastpath::to_string(tier), pinned, stuffed.size()},
            stuffed.size(), destuff_old, [&] {
              out.clear();
              g_sink = eng.destuff_append(out, stuffed) ? 1u : 0u;
              g_sink = static_cast<u32>(out.size());
            });
      }

      // --- full framer: seed three-buffer path vs fused zero-alloc path ---
      hdlc::FrameConfig cfg;
      cfg.max_payload = 9216;
      hdlc::FrameArena arena;
      const std::size_t frame_wire = hdlc::build_wire_frame(cfg, 0x0021, payload).size();
      add({"frame", size, density, fastpath::to_string(auto_tier), false, frame_wire}, size,
          [&] {
            const Bytes content = hdlc::encapsulate(cfg, 0x0021, payload);
            Bytes wire;
            wire.reserve(content.size() + 16);
            wire.push_back(hdlc::kFlag);
            const Bytes st = fastpath::scalar::stuff(content, cfg.accm);
            append(wire, st);
            wire.push_back(hdlc::kFlag);
            g_sink = static_cast<u32>(wire.size());
          },
          [&] {
            g_sink = static_cast<u32>(hdlc::encode_into(arena, cfg, 0x0021, payload).size());
          });

      // --- batched framer: 32 frames per call through encode_batch_into,
      // one reservation + one engine/CRC setup for the burst — the
      // small-frame amortisation the line-card fabric uses ---
      constexpr std::size_t kBurst = 32;
      std::vector<Bytes> burst;
      std::vector<hdlc::BatchFrame> bframes;
      for (std::size_t f = 0; f < kBurst; ++f) {
        burst.push_back(density_payload(size, density, 500 + f));
        bframes.push_back({0x0021, burst.back(), {}, {}});
      }
      hdlc::FrameArena batch_arena;
      const std::size_t batch_wire = hdlc::encode_batch_into(batch_arena, cfg, bframes).size();
      add({"frame_batch", size, density, fastpath::to_string(auto_tier), false, batch_wire},
          kBurst * size,
          [&] {
            u32 total = 0;
            for (const Bytes& p : burst) {
              const Bytes content = hdlc::encapsulate(cfg, 0x0021, p);
              Bytes wire;
              wire.reserve(content.size() + 16);
              wire.push_back(hdlc::kFlag);
              const Bytes st = fastpath::scalar::stuff(content, cfg.accm);
              append(wire, st);
              wire.push_back(hdlc::kFlag);
              total += static_cast<u32>(wire.size());
            }
            g_sink = total;
          },
          [&] {
            g_sink = static_cast<u32>(hdlc::encode_batch_into(batch_arena, cfg, bframes).size());
          });
    }

    // --- scramblers (density-independent: one row per size) ---
    Bytes buf = density_payload(size, 0.0, 7);
    u8 lfsr = 0x7F;
    sonet::FrameScrambler frame_scr;
    add({"scramble_x7", size, 0.0, "table", false, size}, size,
        [&] {
          for (u8& b : buf) b ^= fastpath::scalar::frame_keystream_bitserial(lfsr);
        },
        [&] { frame_scr.apply(buf, 0, buf.size()); });
    u64 hist = 0;
    sonet::SelfSyncScrambler43 selfsync;
    add({"scramble_x43", size, 0.0, "byte-parallel", false, size}, size,
        [&] {
          for (u8& b : buf) b = fastpath::scalar::selfsync_scramble_bitserial(hist, b);
        },
        [&] { selfsync.scramble_in_place(buf); });
  }

  // --- delineation, one STS-3c SPE (2340 octets) per push: idle flag fill,
  // and a stream of back-to-back 1500 B frames at density 1/128 cut into
  // SPEs. Throughput is counted in line octets; frame_bytes is the payload
  // size (0 for idle fill) ---
  constexpr std::size_t kSpe = 2340;
  const Bytes idle(kSpe, hdlc::kFlag);
  Bytes data;
  for (u64 f = 0; f < 16; ++f) {
    const Bytes wire =
        hdlc::build_wire_frame(hdlc::FrameConfig{}, 0x0021, density_payload(1500, 1.0 / 128, 900 + f));
    data.insert(data.end(), wire.begin() + (data.empty() ? 0 : 1), wire.end());  // shared flags
  }
  hdlc::Delineator delineator([](BytesView f) { g_sink = static_cast<u32>(f.size()); });
  const auto delineate_rows = [&](std::size_t payload_bytes, double density, const Bytes& line) {
    const BytesView view(line);
    add({"delineate", payload_bytes, density, "bulk", false, line.size()}, line.size(),
        [&] {
          for (const u8 b : line) delineator.push(b);
        },
        [&] {
          for (std::size_t at = 0; at < line.size(); at += kSpe)
            delineator.push(view.subspan(at, std::min(kSpe, line.size() - at)));
        });
  };
  delineate_rows(0, 0.0, idle);
  delineate_rows(1500, 1.0 / 128, data);
  return rows;
}

}  // namespace

int run(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_softpath.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--quick") == 0) {
      // Many short pairs over several passes rather than a few long ones:
      // the best window of each path is then far less likely to fall in a
      // slow stretch.
      g_min_seconds = 0.001;
      g_repeats = 7;
      g_passes = 3;
    }
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }
  if (smoke) {
    g_min_seconds = 0.0;  // one timed call per window
    g_repeats = 1;
  }

  banner("bench_softpath — word-parallel software fast path, old vs new",
         "host-side acceleration (no paper artifact); mirrors the paper's 8->32-bit "
         "width-scaling idea in software");
  std::printf("escape-engine dispatch: detected %s, auto tier %s\n",
              fastpath::to_string(fastpath::detected_tier()),
              fastpath::to_string(fastpath::best_tier()));

  // Each pass re-times every row and keeps each path's best, so a row whose
  // first pass fell in a slow stretch of a shared host gets more chances,
  // seconds apart.
  std::vector<Row> rows = sweep();
  for (int pass = 1; pass < g_passes; ++pass) {
    const std::vector<Row> again = sweep();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      rows[i].old_mb_s = std::max(rows[i].old_mb_s, again[i].old_mb_s);
      rows[i].new_mb_s = std::max(rows[i].new_mb_s, again[i].new_mb_s);
    }
  }

  for (const Row& r : rows) print_row(r);
  if (!write_json(rows, out_path)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu rows)%s\n", out_path.c_str(), rows.size(),
              smoke ? " [smoke mode: timings are not meaningful]" : "");

  // Headline numbers the acceptance criteria track.
  for (const Row& r : rows) {
    if (r.pinned) continue;
    if (r.frame_bytes == 1500 && r.escape_density > 0.0 && r.escape_density < 0.01 &&
        (r.kernel == "crc32" || r.kernel == "stuff"))
      we_measure(r.kernel + " speedup at 1500 B, density 1/128: " +
                 std::to_string(r.speedup()) + "x");
    if (r.frame_bytes == 1500 && r.escape_density == 0.25 && r.kernel == "destuff")
      we_measure("destuff speedup at 1500 B, density 0.25 (" + r.dispatch +
                 "): " + std::to_string(r.speedup()) + "x");
  }
  return 0;
}

}  // namespace p5::bench

int main(int argc, char** argv) { return p5::bench::run(argc, argv); }
