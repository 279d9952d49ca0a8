// The three workloads and the line-corruption self-test.
#pragma once

#include <string>

#include "common.hpp"

namespace p5bench {

/// One TCP Tunnel pair, closed loop, 1500 B seeded random datagrams.
[[nodiscard]] Report run_bulk_tcp(const Options& opt);
/// One UDP Tunnel pair, open loop replaying the bundled TCP trace at 80% of
/// the STS-3c payload rate.
[[nodiscard]] Report run_trace_udp_paced(const Options& opt);
/// TunnelServer, 2 shards, 2 tenants x 2 TCP connections, uplink routing.
[[nodiscard]] Report run_server_fanin(const Options& opt);

/// Push a clean stream and then a stream with one flipped line bit through
/// the verifier; true when the clean run counts no failure and the
/// corrupted one counts at least one. `detail` says what was seen.
[[nodiscard]] bool self_test(std::string& detail);

/// Every per-layer figure the traced run reports. Figures a workload cannot
/// observe stay 0 (see p5bench/README.md for which ones, and why).
struct LayerFigures {
  double transport_self_ns_per_chunk = 0;
  double transport_chunks_per_syscall = 0;
  double transport_pool_recycle_ratio = 0;
  double transport_send_queue_hwm_kb = 0;
  double transport_backpressure_stalls_per_kchunk = 0;
  double transport_chunk_wait_us_p50 = 0;
  double p5_tx_self_ns_per_chunk = 0;
  double p5_rx_self_ns_per_chunk = 0;
  double p5_submit_ns_per_dgram = 0;
  double p5_reap_ns_per_dgram = 0;
  double p5_unattributed_ns_per_chunk = 0;
  double p5_line_fill_ratio = 0;
  double p5_submit_refused_ratio = 0;
  double p5_frames_bad = 0;
  double p5_rx_overflow_drops = 0;
  double sonet_frame_ns_per_chunk = 0;
  double sonet_deframe_ns_per_chunk = 0;
  double sonet_scramble43_ns_per_chunk = 0;
  double sonet_descramble43_ns_per_chunk = 0;
  double hdlc_encode_ns_per_dgram = 0;
  double hdlc_delineate_ns_per_chunk = 0;
  double fastpath_destuff_ns_per_dgram = 0;
  double fastpath_escape_density = 0;
  double crc_fcs_check_ns_per_dgram = 0;
  double server_shard_busy_ratio = 0;
  double server_cpu_ns_per_dgram = 0;
  double server_client_cpu_share = 0;
  double server_chunks_per_syscall = 0;
  double server_tenant_share_skew = 0;
  double server_uplink_lost = 0;
  double server_policer_drops = 0;
  double loadgen_late_p99_us = 0;
  double verify_fail_ratio = 0;
  double trace_unattributed_share = 0;
  double trace_overhead_ratio = 0;
};
void set_layer_metrics(Report& r, const LayerFigures& f);

struct ReplayResult;
/// Copy the isolated-replay figures into `f`.
void apply_replay(LayerFigures& f, const ReplayResult& rr);

}  // namespace p5bench
