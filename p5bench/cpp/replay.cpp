#include "replay.hpp"

#include <functional>
#include <limits>

#include "crc/crc_table.hpp"
#include "fastpath/escape_simd.hpp"
#include "hdlc/delineation.hpp"
#include "hdlc/frame.hpp"
#include "sonet/scrambler.hpp"
#include "sonet/spe.hpp"

namespace p5bench {
namespace {

/// Where the replays' outputs end up, so none of them is dead code.
volatile u64 g_sink = 0;

/// Median wall time of `passes` runs of `fn`, nanoseconds.
u64 median_pass_ns(int passes, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < passes; ++i) {
    const u64 t0 = now_ns();
    fn();
    t.push_back(static_cast<double>(now_ns() - t0));
  }
  return static_cast<u64>(median(t));
}

double per(u64 total_ns, u64 n) {
  return n == 0 ? 0.0 : static_cast<double>(total_ns) / static_cast<double>(n);
}

/// The transmit frame format of the fast endpoint at its default P5Config:
/// Address|Control always sent, FCS-32, the SONET ACCM.
p5::hdlc::FrameConfig tx_frame_config() {
  p5::hdlc::FrameConfig f;
  f.fcs = p5::hdlc::FcsKind::kFcs32;
  f.accm = p5::hdlc::Accm::sonet();
  f.max_payload = std::numeric_limits<std::size_t>::max() / 4;
  return f;
}

}  // namespace

ReplayResult replay_layers(const ReplayInput& in, int passes) {
  const p5::sonet::StsSpec sts = p5::sonet::kSts3c;
  const std::size_t spe = sts.payload_bytes_per_frame();
  ReplayResult r;
  u64 sink = 0;  // consumed below so no replay is dead code

  // ---------------------------------------------------------------- TX
  if (in.tx_chunks > 0) {
    const p5::hdlc::FrameConfig fcfg = tx_frame_config();
    std::vector<std::vector<p5::hdlc::BatchFrame>> batches;
    for (const auto& b : in.tx_batches) {
      std::vector<p5::hdlc::BatchFrame> frames;
      for (const Bytes& p : b) {
        p5::hdlc::BatchFrame f;
        f.protocol = kProtoIpv4;
        f.payload = p;
        frames.push_back(f);
      }
      r.tx_dgrams += frames.size();
      batches.push_back(std::move(frames));
    }
    // The unscrambled line stream: the encoded batches back to back, then
    // flag fill, cut to the octets the captured chunks carried.
    Bytes stream;
    p5::hdlc::FrameArena arena;
    for (const auto& b : batches) p5::append(stream, p5::hdlc::encode_batch_into(arena, fcfg, b));
    stream.resize(in.tx_chunks * spe, p5::hdlc::kFlag);
    const u64 encode_ns = median_pass_ns(passes, [&] {
      for (const auto& b : batches) sink += p5::hdlc::encode_batch_into(arena, fcfg, b).size();
    });

    Bytes scrambled;
    {
      p5::sonet::SelfSyncScrambler43 scr;
      scr.scramble_append(scrambled, stream);
    }
    const u64 scramble_ns = median_pass_ns(passes, [&] {
      p5::sonet::SelfSyncScrambler43 scr;
      Bytes out;
      for (std::size_t off = 0; off < stream.size(); off += spe) {
        out.clear();
        out.reserve(spe);
        scr.scramble_append(out, BytesView(stream.data() + off, spe));
        sink += out[0];
      }
    });

    const u64 frame_ns = median_pass_ns(passes, [&] {
      std::size_t pos = 0;
      p5::sonet::SonetFramer framer(sts, [&](std::size_t n) {
        if (pos + n > scrambled.size()) pos = 0;
        Bytes b(scrambled.begin() + static_cast<std::ptrdiff_t>(pos),
                scrambled.begin() + static_cast<std::ptrdiff_t>(pos + n));
        pos += n;
        return b;
      });
      for (u64 i = 0; i < in.tx_chunks; ++i) sink += framer.next_frame().size();
    });

    r.encode_ns_per_dgram = per(encode_ns, r.tx_dgrams);
    r.scramble43_ns_per_chunk = per(scramble_ns, in.tx_chunks);
    r.frame_ns_per_chunk = per(frame_ns, in.tx_chunks);
    r.tx_ns_per_chunk = per(encode_ns + scramble_ns + frame_ns, in.tx_chunks);
  }

  // ---------------------------------------------------------------- RX
  if (!in.rx_chunks.empty()) {
    // One untimed pass through the chain collects each layer's input.
    std::vector<Bytes> spe_payloads, descrambled, stuffed, destuffed;
    {
      p5::sonet::SonetDeframer def(sts, [&](BytesView p) { spe_payloads.emplace_back(p.begin(), p.end()); });
      for (const Bytes& c : in.rx_chunks) def.push(c);
      p5::sonet::SelfSyncScrambler43 scr;
      Bytes out;
      for (const Bytes& p : spe_payloads) {
        scr.descramble_to(out, p);
        descrambled.push_back(out);
      }
      p5::hdlc::Delineator del([&](BytesView f) { stuffed.emplace_back(f.begin(), f.end()); },
                               4, std::size_t{1} << 20);
      for (const Bytes& p : descrambled) del.push(p);
      const p5::fastpath::EscapeEngine eng(p5::hdlc::Accm::sonet());
      for (const Bytes& s : stuffed) {
        Bytes d;
        d.reserve(s.size() + p5::fastpath::kStuffSlack);
        if (eng.destuff_append(d, s)) destuffed.push_back(std::move(d));
      }
    }
    r.rx_frames = stuffed.size();

    const u64 deframe_ns = median_pass_ns(passes, [&] {
      p5::sonet::SonetDeframer def(sts, [&](BytesView p) { sink += p.size(); });
      for (const Bytes& c : in.rx_chunks) def.push(c);
    });
    const u64 descramble_ns = median_pass_ns(passes, [&] {
      p5::sonet::SelfSyncScrambler43 scr;
      Bytes out;
      for (const Bytes& p : spe_payloads) {
        scr.descramble_to(out, p);
        sink += out[0];
      }
    });
    const u64 delineate_ns = median_pass_ns(passes, [&] {
      p5::hdlc::Delineator del([&](BytesView f) { sink += f.size(); }, 4, std::size_t{1} << 20);
      for (const Bytes& p : descrambled) del.push(p);
    });
    const u64 destuff_ns = median_pass_ns(passes, [&] {
      const p5::fastpath::EscapeEngine eng(p5::hdlc::Accm::sonet());
      Bytes out;
      for (const Bytes& s : stuffed) {
        out.clear();
        out.reserve(s.size() + p5::fastpath::kStuffSlack);
        sink += eng.destuff_append(out, s) ? out.size() : 0;
      }
    });
    const u64 fcs_ns = median_pass_ns(passes, [&] {
      const p5::crc::TableCrc& crc = p5::crc::fcs32();
      for (const Bytes& d : destuffed) sink += crc.check(d) ? 1 : 0;
    });

    const u64 chunks = in.rx_chunks.size();
    r.deframe_ns_per_chunk = per(deframe_ns, chunks);
    r.descramble43_ns_per_chunk = per(descramble_ns, chunks);
    r.delineate_ns_per_chunk = per(delineate_ns, chunks);
    r.destuff_ns_per_dgram = per(destuff_ns, r.rx_frames);
    r.fcs_check_ns_per_dgram = per(fcs_ns, r.rx_frames);
    r.rx_ns_per_chunk =
        per(deframe_ns + descramble_ns + delineate_ns + destuff_ns + fcs_ns, chunks);
  }

  if (in.density_payloads && !in.density_payloads->empty()) {
    const p5::fastpath::EscapeEngine eng(p5::hdlc::Accm::sonet());
    u64 escapes = 0, bytes = 0;
    for (const Bytes& p : *in.density_payloads) {
      escapes += eng.count_escapes(p);
      bytes += p.size();
    }
    r.escape_density = static_cast<double>(escapes) / static_cast<double>(bytes);
  }
  g_sink = sink;
  return r;
}

}  // namespace p5bench
