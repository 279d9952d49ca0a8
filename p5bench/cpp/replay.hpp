// Isolated replay: run the inputs a traced run captured through each layer's
// public call on its own, so in-situ cost can be split into kernel cost and
// what is left over (dispatch, copies, cache misses between layers).
//
//   TX: hdlc::encode_batch_into -> SelfSyncScrambler43::scramble_append
//       -> SonetFramer::next_frame
//   RX: SonetDeframer::push -> SelfSyncScrambler43::descramble_to
//       -> hdlc::Delineator::push -> EscapeEngine::destuff_append
//       -> crc::fcs32().check
#pragma once

#include <vector>

#include "common.hpp"

namespace p5bench {

struct ReplayInput {
  /// Datagram payloads in the batches the transmitter fetched them in.
  std::vector<std::vector<Bytes>> tx_batches;
  u64 tx_chunks = 0;  ///< SONET frames the transmitter built for them
  std::vector<Bytes> rx_chunks;  ///< line octets the receiver was handed
  /// Payloads whose escape density is reported.
  const std::vector<Bytes>* density_payloads = nullptr;
};

struct ReplayResult {
  double encode_ns_per_dgram = 0.0;
  double scramble43_ns_per_chunk = 0.0;
  double frame_ns_per_chunk = 0.0;
  double deframe_ns_per_chunk = 0.0;
  double descramble43_ns_per_chunk = 0.0;
  double delineate_ns_per_chunk = 0.0;
  double destuff_ns_per_dgram = 0.0;
  double fcs_check_ns_per_dgram = 0.0;
  double escape_density = 0.0;
  /// Sums of the kernels above, per transmitted / received chunk.
  double tx_ns_per_chunk = 0.0;
  double rx_ns_per_chunk = 0.0;
  u64 tx_dgrams = 0;
  u64 rx_frames = 0;
};

/// Replay each kernel `passes` times over the captured inputs and keep the
/// median pass.
[[nodiscard]] ReplayResult replay_layers(const ReplayInput& in, int passes = 5);

}  // namespace p5bench
