// HDLC-like framing substrate tests: octet stuffing (golden model), frame
// assembly/parse with the paper's programmability knobs, and the flag
// delineation state machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "hdlc/accm.hpp"
#include "hdlc/delineation.hpp"
#include "hdlc/frame.hpp"
#include "hdlc/stuffing.hpp"
#include "testing/property.hpp"

namespace p5::hdlc {
namespace {

// ---- ACCM ----

TEST(Accm, SonetEscapesOnlyFlagAndEscape) {
  const Accm a = Accm::sonet();
  EXPECT_TRUE(a.must_escape(kFlag));
  EXPECT_TRUE(a.must_escape(kEscape));
  EXPECT_FALSE(a.must_escape(0x00));
  EXPECT_FALSE(a.must_escape(0x1F));
  EXPECT_FALSE(a.must_escape('A'));
}

TEST(Accm, AsyncDefaultEscapesControls) {
  const Accm a = Accm::async_default();
  for (u8 c = 0; c < 0x20; ++c) EXPECT_TRUE(a.must_escape(c)) << int(c);
  EXPECT_FALSE(a.must_escape(0x20));
}

TEST(Accm, SelectiveMap) {
  const Accm a(u32{1} << 0x11);
  EXPECT_TRUE(a.must_escape(0x11));
  EXPECT_FALSE(a.must_escape(0x12));
}

// ---- stuffing ----

TEST(Stuffing, PaperExample) {
  // Paper Section 2: 31 33 7E 96 -> 31 33 7D 5E 96.
  const Bytes in{0x31, 0x33, 0x7E, 0x96};
  const Bytes expect{0x31, 0x33, 0x7D, 0x5E, 0x96};
  EXPECT_EQ(stuff(in), expect);
}

TEST(Stuffing, EscapesTheEscape) {
  const Bytes in{0x7D};
  const Bytes expect{0x7D, 0x5D};
  EXPECT_EQ(stuff(in), expect);
}

TEST(Stuffing, NoFlagsRemain) {
  Xoshiro256 rng(1);
  for (int t = 0; t < 50; ++t) {
    const Bytes out = stuff(rng.bytes(500));
    for (const u8 b : out) EXPECT_NE(b, kFlag);
  }
}

TEST(Stuffing, RoundTripRandom) {
  Xoshiro256 rng(2);
  for (int t = 0; t < 200; ++t) {
    const Bytes in = rng.bytes(rng.range(0, 400));
    const DestuffResult r = destuff(stuff(in));
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.data, in);
  }
}

TEST(Stuffing, RoundTripAllFlags) {
  const Bytes in(64, kFlag);
  const Bytes out = stuff(in);
  EXPECT_EQ(out.size(), 128u);  // every octet doubles
  const DestuffResult r = destuff(out);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.data, in);
}

TEST(Stuffing, RoundTripWithAccm) {
  Xoshiro256 rng(3);
  const Accm accm = Accm::async_default();
  for (int t = 0; t < 50; ++t) {
    const Bytes in = rng.bytes(200);
    const Bytes wire = stuff(in, accm);
    for (const u8 b : wire) EXPECT_FALSE(b < 0x20);  // all controls escaped
    const DestuffResult r = destuff(wire);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.data, in);
  }
}

TEST(Stuffing, ExpansionCountMatches) {
  Xoshiro256 rng(4);
  const fastpath::EscapeEngine eng(Accm::sonet());
  for (int t = 0; t < 50; ++t) {
    const Bytes in = rng.bytes(300);
    EXPECT_EQ(stuff(in).size(), in.size() + eng.count_escapes(in));
  }
}

TEST(Stuffing, DanglingEscapeFails) {
  const Bytes bad{0x12, 0x7D};
  EXPECT_FALSE(destuff(bad).ok);
}

TEST(Stuffing, EmptyInput) {
  EXPECT_TRUE(stuff({}).empty());
  EXPECT_TRUE(destuff({}).ok);
}

// ---- frames ----

TEST(Frame, EncapsulateDefaultHeader) {
  const FrameConfig cfg;
  const Bytes payload{0xAA, 0xBB};
  const Bytes content = encapsulate(cfg, 0x0021, payload);
  ASSERT_GE(content.size(), 8u);
  EXPECT_EQ(content[0], 0xFF);  // address
  EXPECT_EQ(content[1], 0x03);  // control
  EXPECT_EQ(get_be16(content, 2), 0x0021);
  EXPECT_EQ(content.size(), 2u + 2u + 2u + 4u);  // hdr + proto + payload + fcs32
}

TEST(Frame, ParseRoundTrip) {
  const FrameConfig cfg;
  Xoshiro256 rng(5);
  for (int t = 0; t < 100; ++t) {
    const Bytes payload = rng.bytes(rng.range(0, 1500));
    const Bytes content = encapsulate(cfg, 0x0021, payload);
    const ParseResult r = parse(cfg, content);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.frame->protocol, 0x0021);
    EXPECT_EQ(r.frame->payload, payload);
  }
}

TEST(Frame, Fcs16RoundTrip) {
  FrameConfig cfg;
  cfg.fcs = FcsKind::kFcs16;
  const Bytes content = encapsulate(cfg, 0xC021, Bytes{1, 2, 3});
  const ParseResult r = parse(cfg, content);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.frame->protocol, 0xC021);
}

TEST(Frame, CorruptionDetected) {
  const FrameConfig cfg;
  Bytes content = encapsulate(cfg, 0x0021, Bytes{9, 9, 9});
  content[4] ^= 0x01;
  const ParseResult r = parse(cfg, content);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error, ParseError::kBadFcs);
}

TEST(Frame, MaposAddressFilter) {
  FrameConfig tx_cfg;
  tx_cfg.address = 0x04;  // MAPOS unicast address
  FrameConfig rx_other = tx_cfg;
  rx_other.address = 0x08;
  const Bytes content = encapsulate(tx_cfg, 0x0021, Bytes{1});
  EXPECT_TRUE(parse(tx_cfg, content).ok());
  const ParseResult r = parse(rx_other, content);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error, ParseError::kBadAddress);
}

TEST(Frame, AcfcCompressedHeader) {
  FrameConfig cfg;
  cfg.acfc = true;
  const Bytes content = encapsulate(cfg, 0x0021, Bytes{5, 6});
  EXPECT_EQ(get_be16(content, 0), 0x0021);  // no addr/ctrl
  const ParseResult r = parse(cfg, content);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.frame->payload, (Bytes{5, 6}));
}

TEST(Frame, AcfcReceiverAcceptsUncompressed) {
  FrameConfig tx;
  FrameConfig rx;
  rx.acfc = true;  // ACFC negotiated, peer still sends the header
  const Bytes content = encapsulate(tx, 0x0021, Bytes{7});
  const ParseResult r = parse(rx, content);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.frame->payload, (Bytes{7}));
}

TEST(Frame, PfcSingleOctetProtocol) {
  FrameConfig cfg;
  cfg.pfc = true;
  const Bytes content = encapsulate(cfg, 0x0021, Bytes{});
  // 0x21 is odd -> compressed to one octet.
  EXPECT_EQ(content[2], 0x21);
  const ParseResult r = parse(cfg, content);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.frame->protocol, 0x21);
}

TEST(Frame, TooShortRejected) {
  const FrameConfig cfg;
  const ParseResult r = parse(cfg, Bytes{1, 2, 3});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error, ParseError::kTooShort);
}

TEST(Frame, WireFrameHasFlagsOnlyAtEnds) {
  const FrameConfig cfg;
  Xoshiro256 rng(6);
  const Bytes wire = build_wire_frame(cfg, 0x0021, rng.bytes(100));
  EXPECT_EQ(wire.front(), kFlag);
  EXPECT_EQ(wire.back(), kFlag);
  for (std::size_t i = 1; i + 1 < wire.size(); ++i) EXPECT_NE(wire[i], kFlag);
}

// ---- delineation ----

class Collector {
 public:
  std::vector<Bytes> frames;
  Delineator d{[this](BytesView f) { frames.emplace_back(f.begin(), f.end()); }};
};

TEST(Delineation, SingleFrame) {
  Collector c;
  const FrameConfig cfg;
  c.d.push(build_wire_frame(cfg, 0x0021, Bytes{1, 2, 3, 4}));
  ASSERT_EQ(c.frames.size(), 1u);
  EXPECT_TRUE(parse(cfg, destuff(c.frames[0]).data).ok());
}

TEST(Delineation, BackToBackFramesSharedFlag) {
  Collector c;
  // frame1 | shared flag | frame2
  c.d.push(Bytes{kFlag, 1, 2, 3, 4, 5, kFlag, 6, 7, 8, 9, 10, kFlag});
  ASSERT_EQ(c.frames.size(), 2u);
  EXPECT_EQ(c.frames[0], (Bytes{1, 2, 3, 4, 5}));
  EXPECT_EQ(c.frames[1], (Bytes{6, 7, 8, 9, 10}));
}

TEST(Delineation, InterFrameFillSkipped) {
  Collector c;
  c.d.push(Bytes{kFlag, kFlag, kFlag, 1, 2, 3, 4, 5, kFlag, kFlag});
  EXPECT_EQ(c.frames.size(), 1u);
  EXPECT_EQ(c.d.stats().frames, 1u);
}

TEST(Delineation, LeadingGarbageDiscarded) {
  Collector c;
  c.d.push(Bytes{0xAA, 0xBB, 0xCC, kFlag, 1, 2, 3, 4, 5, kFlag});
  ASSERT_EQ(c.frames.size(), 1u);
  EXPECT_EQ(c.frames[0].size(), 5u);
}

TEST(Delineation, AbortSequenceCounted) {
  Collector c;
  // 0x7D immediately before the closing flag = transmitter abort.
  c.d.push(Bytes{kFlag, 1, 2, 3, 4, kEscape, kFlag});
  EXPECT_EQ(c.frames.size(), 0u);
  EXPECT_EQ(c.d.stats().aborts, 1u);
}

TEST(Delineation, RuntDiscardedSilently) {
  Collector c;
  c.d.push(Bytes{kFlag, 1, 2, kFlag});
  EXPECT_EQ(c.frames.size(), 0u);
  EXPECT_EQ(c.d.stats().runts, 1u);
}

TEST(Delineation, OversizeDropsAndResyncs) {
  Collector cbig;
  Delineator d([&cbig](BytesView f) { cbig.frames.emplace_back(f.begin(), f.end()); }, 4, 64);
  Bytes stream{kFlag};
  for (int i = 0; i < 200; ++i) stream.push_back(0x11);  // runaway frame
  stream.push_back(kFlag);
  stream.insert(stream.end(), {1, 2, 3, 4, 5});
  stream.push_back(kFlag);
  d.push(stream);
  ASSERT_EQ(cbig.frames.size(), 1u);
  EXPECT_EQ(cbig.frames[0], (Bytes{1, 2, 3, 4, 5}));
  EXPECT_EQ(d.stats().oversize, 1u);
}

TEST(Delineation, FlushDropsPartial) {
  Collector c;
  c.d.push(Bytes{kFlag, 1, 2, 3});
  c.d.flush();
  EXPECT_EQ(c.frames.size(), 0u);
  EXPECT_EQ(c.d.stats().runts, 1u);
  // After flush the delineator hunts again.
  c.d.push(Bytes{4, 5, kFlag, 9, 9, 9, 9, 9, kFlag});
  EXPECT_EQ(c.frames.size(), 1u);
}

TEST(Delineation, ManyRandomFramesRecovered) {
  const FrameConfig cfg;
  Xoshiro256 rng(8);
  std::vector<Bytes> sent;
  Bytes stream;
  for (int i = 0; i < 100; ++i) {
    const Bytes payload = rng.bytes(rng.range(1, 300));
    sent.push_back(payload);
    append(stream, build_wire_frame(cfg, 0x0021, payload));
    for (u64 f = rng.below(3); f > 0; --f) stream.push_back(kFlag);
  }
  std::vector<Bytes> got;
  Delineator d([&](BytesView f) {
    const auto r = parse(cfg, destuff(f).data);
    ASSERT_TRUE(r.ok());
    got.push_back(r.frame->payload);
  });
  d.push(stream);
  EXPECT_EQ(got, sent);
}

TEST(Delineation, RecoversAfterCorruption) {
  const FrameConfig cfg;
  Bytes stream = build_wire_frame(cfg, 0x0021, Bytes(50, 0x42));
  stream[10] = kFlag;  // corruption splits the frame
  Bytes clean = build_wire_frame(cfg, 0x0021, Bytes(60, 0x17));
  append(stream, clean);
  int good = 0;
  Delineator d([&](BytesView f) {
    if (parse(cfg, destuff(f).data).ok()) ++good;
  });
  d.push(stream);
  EXPECT_EQ(good, 1);  // the clean frame still gets through
}

// ---- bulk push vs octet push ----
//
// push(u8) is the reference; push(BytesView) must match it frame for frame
// and in every DelineatorStats field, however the stream is cut.

struct DelineatorRun {
  std::vector<Bytes> frames;
  DelineatorStats stats;
};

std::string describe(const DelineatorStats& s) {
  return "frames=" + std::to_string(s.frames) + " aborts=" + std::to_string(s.aborts) +
         " runts=" + std::to_string(s.runts) + " oversize=" + std::to_string(s.oversize) +
         " octets=" + std::to_string(s.octets);
}

/// Feed `stream` octet by octet, calling flush() at each offset in
/// `flush_at` (sorted).
DelineatorRun run_octets(const Bytes& stream, std::size_t max_frame,
                         const std::vector<std::size_t>& flush_at = {}) {
  DelineatorRun r;
  Delineator d([&](BytesView f) { r.frames.emplace_back(f.begin(), f.end()); }, 4, max_frame);
  auto next_flush = flush_at.begin();
  for (std::size_t i = 0; i <= stream.size(); ++i) {
    for (; next_flush != flush_at.end() && *next_flush == i; ++next_flush) d.flush();
    if (i < stream.size()) d.push(stream[i]);
  }
  r.stats = d.stats();
  return r;
}

/// Feed `stream` through push(BytesView), cut at every offset in `cuts`
/// (sorted); flush() at each offset in `flush_at`, which must also be cuts.
DelineatorRun run_pieces(const Bytes& stream, std::size_t max_frame,
                         const std::vector<std::size_t>& cuts,
                         const std::vector<std::size_t>& flush_at = {}) {
  DelineatorRun r;
  Delineator d([&](BytesView f) { r.frames.emplace_back(f.begin(), f.end()); }, 4, max_frame);
  std::size_t from = 0;
  auto next_flush = flush_at.begin();
  auto feed_to = [&](std::size_t to) {
    d.push(BytesView(stream.data() + from, to - from));
    from = to;
    for (; next_flush != flush_at.end() && *next_flush == to; ++next_flush) d.flush();
  };
  for (const std::size_t cut : cuts) feed_to(cut);
  feed_to(stream.size());
  r.stats = d.stats();
  return r;
}

/// `n` octets that are never a flag; escapes are common.
Bytes non_flag_octets(Xoshiro256& rng, std::size_t n) {
  Bytes out;
  for (std::size_t i = 0; i < n; ++i) {
    u8 b = rng.chance(0.1) ? kEscape : rng.byte();
    if (b == kFlag) b = 0x5E;
    out.push_back(b);
  }
  return out;
}

enum class Body { kFrame, kAbort, kRunt, kOversize };

/// Frame content of the given kind (no flags) for a delineator with
/// min_frame 4 and the given max_frame.
Bytes body_of(Body kind, Xoshiro256& rng, std::size_t max_frame) {
  switch (kind) {
    case Body::kFrame: {
      Bytes b = non_flag_octets(rng, rng.range(4, max_frame));
      if (b.back() == kEscape) b.back() = 0x11;
      return b;
    }
    case Body::kAbort: {
      Bytes b = non_flag_octets(rng, rng.range(1, max_frame - 1));
      b.push_back(kEscape);
      return b;
    }
    case Body::kRunt: {
      Bytes b = non_flag_octets(rng, rng.range(1, 3));
      if (b.back() == kEscape) b.back() = 0x22;
      return b;
    }
    case Body::kOversize:
      return non_flag_octets(rng, rng.range(max_frame + 1, 2 * max_frame + 8));
  }
  return {};
}

TEST(Delineation, IdleSpeIsSilent) {
  constexpr std::size_t kSpe = 2340;  // STS-3c SPE payload octets
  const Bytes idle(kSpe, kFlag);
  const Bytes frame{1, 2, 3, 4, 5, kEscape, 0x5E, 6, kFlag};  // closed by its own flag
  for (const bool whole : {true, false}) {
    Collector c;
    if (whole) {
      c.d.push(idle);
    } else {
      std::size_t at = 0;
      for (std::size_t piece = 1; at < kSpe; piece = piece == 13 ? 1 : piece + 2) {
        const std::size_t n = std::min(piece, kSpe - at);
        c.d.push(BytesView(idle.data() + at, n));
        at += n;
      }
    }
    const DelineatorStats& s = c.d.stats();
    EXPECT_EQ(c.frames.size(), 0u) << "whole=" << whole;
    EXPECT_EQ(s.frames, 0u);
    EXPECT_EQ(s.aborts, 0u);
    EXPECT_EQ(s.runts, 0u);
    EXPECT_EQ(s.oversize, 0u);
    EXPECT_EQ(s.octets, kSpe);
    // The run's last flag opens the next frame.
    c.d.push(frame);
    ASSERT_EQ(c.frames.size(), 1u) << "whole=" << whole;
    EXPECT_EQ(c.frames[0], Bytes(frame.begin(), frame.end() - 1));
    EXPECT_EQ(c.d.stats().octets, kSpe + frame.size());
  }
}

// Every flag-run length 0..24 at every start offset mod 8, after each kind
// of frame ending, pushed whole and octet by octet.
TEST(Delineation, BulkMatchesOctetLoopOnEveryRunShape) {
  constexpr std::size_t kMaxFrame = 16;
  Xoshiro256 rng(13);
  for (const Body kind : {Body::kFrame, Body::kAbort, Body::kRunt, Body::kOversize}) {
    for (std::size_t align = 0; align < 8; ++align) {
      for (std::size_t run = 0; run <= 24; ++run) {
        const Bytes body = body_of(kind, rng, kMaxFrame);
        // Leading garbage sized so that the run starts at offset `align` mod 8.
        Bytes stream = non_flag_octets(rng, (align + 8 - (body.size() + 2) % 8) % 8);
        stream.push_back(kFlag);
        append(stream, body);
        stream.push_back(kFlag);
        ASSERT_EQ(stream.size() % 8, align);
        stream.insert(stream.end(), run, kFlag);
        append(stream, body_of(Body::kFrame, rng, kMaxFrame));
        stream.push_back(kFlag);

        const DelineatorRun ref = run_octets(stream, kMaxFrame);
        std::vector<std::size_t> every_octet;
        for (std::size_t i = 1; i < stream.size(); ++i) every_octet.push_back(i);
        for (const auto& cuts : {std::vector<std::size_t>{}, every_octet}) {
          const DelineatorRun got = run_pieces(stream, kMaxFrame, cuts);
          const std::string where = "kind " + std::to_string(static_cast<int>(kind)) +
                                    " align " + std::to_string(align) + " run " +
                                    std::to_string(run) + " cuts " +
                                    std::to_string(cuts.size());
          EXPECT_EQ(got.frames, ref.frames) << where;
          EXPECT_TRUE(got.stats == ref.stats)
              << where << ": bulk " << describe(got.stats) << " vs octet "
              << describe(ref.stats);
        }
      }
    }
  }
}

TEST(Delineation, BulkPushMatchesOctetPushProperty) {
  testing::PropertyOptions opt;
  opt.cases = 300;
  opt.seed = 0xDE11EA7Eull;
  opt.min_size = 1;
  opt.max_size = 40;
  const auto res = testing::check_property("delineator_bulk_vs_octet", opt,
                                           [](testing::CaseContext& c) {
    Xoshiro256& rng = c.rng;
    const std::size_t max_frame = rng.range(8, 40);
    Bytes stream = non_flag_octets(rng, rng.below(12));  // leading garbage
    std::vector<std::pair<std::size_t, std::size_t>> runs;  // [begin, end) of flag runs
    for (std::size_t seg = 0; seg < c.size; ++seg) {
      const u64 pick = rng.below(8);
      const Body kind = pick == 0   ? Body::kAbort
                        : pick == 1 ? Body::kRunt
                        : pick == 2 ? Body::kOversize
                                    : Body::kFrame;
      append(stream, body_of(kind, rng, max_frame));
      const std::size_t begin = stream.size();
      stream.insert(stream.end(), 1 + rng.below(25), kFlag);  // closing flag + run of 0..24
      runs.emplace_back(begin, stream.size());
    }

    std::vector<std::size_t> cuts;
    for (std::size_t i = 1; i < stream.size(); ++i)
      if (rng.chance(0.02)) cuts.push_back(i);
    std::vector<std::size_t> flush_at;
    for (const auto& [begin, end] : runs) {
      const std::size_t len = end - begin;
      if (rng.chance(0.3)) cuts.push_back(begin + rng.below(len + 1));  // inside the run
      if (rng.chance(0.15))
        for (std::size_t i = begin; i <= end; ++i) cuts.push_back(i);  // 1-octet pieces
      if (len > 1 && rng.chance(0.1)) flush_at.push_back(begin + 1 + rng.below(len - 1));
    }
    cuts.insert(cuts.end(), flush_at.begin(), flush_at.end());
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    std::sort(flush_at.begin(), flush_at.end());

    const DelineatorRun ref = run_octets(stream, max_frame, flush_at);
    const DelineatorRun got = run_pieces(stream, max_frame, cuts, flush_at);
    if (got.frames != ref.frames)
      return c.fail("delivered frames differ: bulk " + std::to_string(got.frames.size()) +
                    " vs octet " + std::to_string(ref.frames.size()));
    if (got.stats != ref.stats)
      return c.fail("stats differ: bulk " + describe(got.stats) + " vs octet " +
                    describe(ref.stats));
  });
  EXPECT_TRUE(res.ok) << res.message;
}

}  // namespace
}  // namespace p5::hdlc
