// Table-driven golden vectors: RFC 1662 FCS check values and residues,
// canonical octet-stuffing transformations, and full hardcoded wire frames.
//
// Every vector here was computed independently of this codebase (catalogue
// CRC check values; frames assembled by hand per RFC 1662 §3/§4 and checked
// against zlib's CRC-32), so these tests anchor all three datapath engines —
// scalar reference, SWAR fast path, and the cycle-level byte sorters — to
// the standard rather than to each other.
#include <gtest/gtest.h>

#include <utility>

#include "crc/crc_reference.hpp"
#include "crc/crc_table.hpp"
#include "fastpath/scalar_ref.hpp"
#include "hdlc/frame.hpp"
#include "hdlc/stuffing.hpp"
#include "testing/diff_oracle.hpp"

namespace p5::testing {
namespace {

Bytes bytes_of(std::initializer_list<int> v) {
  Bytes out;
  for (const int b : v) out.push_back(static_cast<u8>(b));
  return out;
}

Bytes ascii(const char* s) {
  Bytes out;
  for (; *s; ++s) out.push_back(static_cast<u8>(*s));
  return out;
}

// ---- FCS check values ---------------------------------------------------

struct CrcVector {
  const char* name;
  const crc::CrcSpec& spec;
  Bytes data;
  u32 expect;
};

class CrcGolden : public ::testing::TestWithParam<CrcVector> {};

TEST_P(CrcGolden, TableSlicingAndBitwiseAllMatchTheCatalogueValue) {
  const CrcVector& v = GetParam();
  // Slicing-by-8 production path.
  const crc::TableCrc table(v.spec);
  EXPECT_EQ(table.crc(v.data), v.expect) << v.name;
  // Seed byte-at-a-time path.
  const fastpath::scalar::ByteTableCrc scalar(v.spec);
  EXPECT_EQ(scalar.crc(v.data), v.expect) << v.name;
  // Bit-at-a-time reference.
  u32 state = v.spec.init;
  for (const u8 b : v.data) state = crc::bitwise_step(v.spec, state, b);
  EXPECT_EQ((state ^ v.spec.xorout) & v.spec.mask(), v.expect) << v.name;
}

TEST_P(CrcGolden, AppendingTheFcsLsbFirstYieldsTheMagicResidue) {
  const CrcVector& v = GetParam();
  const crc::TableCrc table(v.spec);
  Bytes with_fcs = v.data;
  const u32 fcs = table.crc(v.data);
  for (unsigned i = 0; i < v.spec.width / 8; ++i)
    with_fcs.push_back(static_cast<u8>(fcs >> (8 * i)));
  EXPECT_EQ(table.update(v.spec.init, with_fcs), v.spec.residue) << v.name;
  EXPECT_TRUE(table.check(with_fcs)) << v.name;
}

INSTANTIATE_TEST_SUITE_P(
    Rfc1662, CrcGolden,
    ::testing::Values(
        // CRC catalogue check inputs ("123456789").
        CrcVector{"fcs16_check", crc::kFcs16, ascii("123456789"), 0x906Eu},
        CrcVector{"fcs32_check", crc::kFcs32, ascii("123456789"), 0xCBF43926u},
        // Empty input: init ^ xorout.
        CrcVector{"fcs16_empty", crc::kFcs16, {}, 0x0000u},
        CrcVector{"fcs32_empty", crc::kFcs32, {}, 0x00000000u},
        // A default PPP IPv4 frame header+payload, FCS computed by hand.
        CrcVector{"fcs16_frame", crc::kFcs16,
                  bytes_of({0xFF, 0x03, 0x00, 0x21, 0x45, 0x00, 0x7E, 0x7D, 0x20}), 0x1046u},
        CrcVector{"fcs32_frame", crc::kFcs32,
                  bytes_of({0xFF, 0x03, 0x00, 0x21, 0x45, 0x00, 0x7E, 0x7D, 0x20}),
                  0x82BA7C85u}),
    [](const auto& info) { return info.param.name; });

TEST(CrcResidues, MagicValuesMatchRfc1662) {
  EXPECT_EQ(crc::kFcs16.residue, 0xF0B8u);
  EXPECT_EQ(crc::kFcs32.residue, 0xDEBB20E3u);
}

// ---- canonical stuffing transformations (RFC 1662 §4.2) -----------------

// GoogleTest has no printer for this struct, so it dumps the raw bytes, and
// CTest folds that dump into each case's name. The pointer-free fields come
// first and the pad is spelled out, so the head of every name is the same
// from build to build instead of an address.
struct StuffVector {
  StuffVector(const char* n, hdlc::Accm a, Bytes r, Bytes s)
      : accm(a), name(n), raw(std::move(r)), stuffed(std::move(s)) {}

  hdlc::Accm accm;
  u32 pad = 0;
  const char* name;
  Bytes raw;
  Bytes stuffed;
};

class StuffGolden : public ::testing::TestWithParam<StuffVector> {};

TEST_P(StuffGolden, AllThreeTransmitEnginesEmitTheCanonicalImage) {
  const StuffVector& v = GetParam();
  EXPECT_EQ(hdlc::stuff(v.raw, v.accm), v.stuffed) << v.name;
  EXPECT_EQ(fastpath::scalar::stuff(v.raw, v.accm), v.stuffed) << v.name;
  for (const unsigned lanes : {1u, 4u})
    EXPECT_EQ(escape_generate_stream(lanes, v.raw, v.accm), v.stuffed)
        << v.name << " lanes " << lanes;
}

TEST_P(StuffGolden, BothReceiveEnginesInvertIt) {
  const StuffVector& v = GetParam();
  const auto sw = hdlc::destuff(v.stuffed);
  EXPECT_TRUE(sw.ok) << v.name;
  EXPECT_EQ(sw.data, v.raw) << v.name;
  const auto scalar = fastpath::scalar::destuff(v.stuffed);
  EXPECT_TRUE(scalar.second) << v.name;
  EXPECT_EQ(scalar.first, v.raw) << v.name;
  const auto hw = escape_detect_stream(4, v.stuffed);
  EXPECT_FALSE(hw.abort) << v.name;
  EXPECT_EQ(hw.data, v.raw) << v.name;
}

INSTANTIATE_TEST_SUITE_P(
    Rfc1662, StuffGolden,
    ::testing::Values(
        StuffVector{"flag", hdlc::Accm::sonet(), bytes_of({0x7E}), bytes_of({0x7D, 0x5E})},
        StuffVector{"escape", hdlc::Accm::sonet(), bytes_of({0x7D}), bytes_of({0x7D, 0x5D})},
        StuffVector{"plain_7f", hdlc::Accm::sonet(), bytes_of({0x7F}), bytes_of({0x7F})},
        // On SONET links control characters pass through...
        StuffVector{"sonet_control", hdlc::Accm::sonet(), bytes_of({0x00, 0x1F, 0x11}),
                    bytes_of({0x00, 0x1F, 0x11})},
        // ...on async links the default ACCM escapes every one of them.
        StuffVector{"async_control", hdlc::Accm::async_default(), bytes_of({0x00, 0x1F, 0x11}),
                    bytes_of({0x7D, 0x20, 0x7D, 0x3F, 0x7D, 0x31})},
        StuffVector{"mixed", hdlc::Accm::sonet(), bytes_of({0x41, 0x7D, 0x42, 0x7E, 0x43}),
                    bytes_of({0x41, 0x7D, 0x5D, 0x42, 0x7D, 0x5E, 0x43})},
        StuffVector{"back_to_back", hdlc::Accm::sonet(), bytes_of({0x7E, 0x7E, 0x7D, 0x7D}),
                    bytes_of({0x7D, 0x5E, 0x7D, 0x5E, 0x7D, 0x5D, 0x7D, 0x5D})}),
    [](const auto& info) { return info.param.name; });

// ---- full wire frames ---------------------------------------------------

// Default framing (address FF, control 03), protocol 0x0021 (IPv4), payload
// 45 00 7E 7D 20. Assembled by hand: FCS over FF 03 00 21 45 00 7E 7D 20,
// appended LSB-first, then 7E/7D stuffed, flags added.
const Bytes kGoldenPayload = bytes_of({0x45, 0x00, 0x7E, 0x7D, 0x20});

TEST(WireGolden, Fcs32FrameMatchesTheHandAssembledImage) {
  const Bytes expect =
      bytes_of({0x7E, 0xFF, 0x03, 0x00, 0x21, 0x45, 0x00, 0x7D, 0x5E, 0x7D, 0x5D, 0x20, 0x85,
                0x7C, 0xBA, 0x82, 0x7E});
  hdlc::FrameConfig cfg;  // defaults: FCS-32, no compression
  EXPECT_EQ(hdlc::build_wire_frame(cfg, 0x0021, kGoldenPayload), expect);

  DiffOracle oracle(cfg);
  const auto enc = oracle.encode(0x0021, kGoldenPayload);
  EXPECT_TRUE(enc.agree) << enc.diagnosis;
  EXPECT_EQ(enc.wire, expect);
}

TEST(WireGolden, Fcs16FrameMatchesTheHandAssembledImage) {
  const Bytes expect = bytes_of(
      {0x7E, 0xFF, 0x03, 0x00, 0x21, 0x45, 0x00, 0x7D, 0x5E, 0x7D, 0x5D, 0x20, 0x46, 0x10, 0x7E});
  hdlc::FrameConfig cfg;
  cfg.fcs = hdlc::FcsKind::kFcs16;
  EXPECT_EQ(hdlc::build_wire_frame(cfg, 0x0021, kGoldenPayload), expect);

  DiffOracle oracle(cfg);
  const auto enc = oracle.encode(0x0021, kGoldenPayload);
  EXPECT_TRUE(enc.agree) << enc.diagnosis;
  EXPECT_EQ(enc.wire, expect);
}

TEST(WireGolden, GoldenFramesRoundTripThroughEveryReceiveEngine) {
  for (const auto kind : {hdlc::FcsKind::kFcs32, hdlc::FcsKind::kFcs16}) {
    hdlc::FrameConfig cfg;
    cfg.fcs = kind;
    DiffOracle oracle(cfg);
    const auto enc = oracle.encode(0x0021, kGoldenPayload);
    ASSERT_TRUE(enc.agree) << enc.diagnosis;
    const auto dec = oracle.decode(enc.stuffed);
    EXPECT_TRUE(dec.agree) << dec.diagnosis;
    EXPECT_TRUE(dec.ok);
    EXPECT_EQ(dec.recovered, enc.content);
  }
}

}  // namespace
}  // namespace p5::testing
