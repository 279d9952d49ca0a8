#include "replay.hpp"
#include "workloads.hpp"

namespace p5bench {

void set_layer_metrics(Report& r, const LayerFigures& f) {
  r.set("transport.self_ns_per_chunk", f.transport_self_ns_per_chunk, "ns");
  r.set("transport.chunks_per_syscall", f.transport_chunks_per_syscall, "chunks");
  r.set("transport.pool_recycle_ratio", f.transport_pool_recycle_ratio, "ratio");
  r.set("transport.send_queue_hwm_kb", f.transport_send_queue_hwm_kb, "KiB");
  r.set("transport.backpressure_stalls_per_kchunk", f.transport_backpressure_stalls_per_kchunk,
        "count");
  r.set("transport.chunk_wait_us_p50", f.transport_chunk_wait_us_p50, "us");
  r.set("p5.tx_self_ns_per_chunk", f.p5_tx_self_ns_per_chunk, "ns");
  r.set("p5.rx_self_ns_per_chunk", f.p5_rx_self_ns_per_chunk, "ns");
  r.set("p5.submit_ns_per_dgram", f.p5_submit_ns_per_dgram, "ns");
  r.set("p5.reap_ns_per_dgram", f.p5_reap_ns_per_dgram, "ns");
  r.set("p5.unattributed_ns_per_chunk", f.p5_unattributed_ns_per_chunk, "ns");
  r.set("p5.line_fill_ratio", f.p5_line_fill_ratio, "ratio");
  r.set("p5.submit_refused_ratio", f.p5_submit_refused_ratio, "ratio");
  r.set("p5.frames_bad", f.p5_frames_bad, "count");
  r.set("p5.rx_overflow_drops", f.p5_rx_overflow_drops, "count");
  r.set("sonet.frame_ns_per_chunk", f.sonet_frame_ns_per_chunk, "ns");
  r.set("sonet.deframe_ns_per_chunk", f.sonet_deframe_ns_per_chunk, "ns");
  r.set("sonet.scramble43_ns_per_chunk", f.sonet_scramble43_ns_per_chunk, "ns");
  r.set("sonet.descramble43_ns_per_chunk", f.sonet_descramble43_ns_per_chunk, "ns");
  r.set("hdlc.encode_ns_per_dgram", f.hdlc_encode_ns_per_dgram, "ns");
  r.set("hdlc.delineate_ns_per_chunk", f.hdlc_delineate_ns_per_chunk, "ns");
  r.set("fastpath.destuff_ns_per_dgram", f.fastpath_destuff_ns_per_dgram, "ns");
  r.set("fastpath.escape_density", f.fastpath_escape_density, "ratio");
  r.set("crc.fcs_check_ns_per_dgram", f.crc_fcs_check_ns_per_dgram, "ns");
  r.set("server.shard_busy_ratio", f.server_shard_busy_ratio, "ratio");
  r.set("server.cpu_ns_per_dgram", f.server_cpu_ns_per_dgram, "ns");
  r.set("server.client_cpu_share", f.server_client_cpu_share, "ratio");
  r.set("server.chunks_per_syscall", f.server_chunks_per_syscall, "chunks");
  r.set("server.tenant_share_skew", f.server_tenant_share_skew, "ratio");
  r.set("server.uplink_lost", f.server_uplink_lost, "count");
  r.set("server.policer_drops", f.server_policer_drops, "count");
  r.set("loadgen.late_p99_us", f.loadgen_late_p99_us, "us");
  r.set("verify.fail_ratio", f.verify_fail_ratio, "ratio");
  r.set("trace.unattributed_share", f.trace_unattributed_share, "ratio");
  r.set("trace.overhead_ratio", f.trace_overhead_ratio, "ratio");
}

void apply_replay(LayerFigures& f, const ReplayResult& rr) {
  f.sonet_frame_ns_per_chunk = rr.frame_ns_per_chunk;
  f.sonet_deframe_ns_per_chunk = rr.deframe_ns_per_chunk;
  f.sonet_scramble43_ns_per_chunk = rr.scramble43_ns_per_chunk;
  f.sonet_descramble43_ns_per_chunk = rr.descramble43_ns_per_chunk;
  f.hdlc_encode_ns_per_dgram = rr.encode_ns_per_dgram;
  f.hdlc_delineate_ns_per_chunk = rr.delineate_ns_per_chunk;
  f.fastpath_destuff_ns_per_dgram = rr.destuff_ns_per_dgram;
  f.fastpath_escape_density = rr.escape_density;
  f.crc_fcs_check_ns_per_dgram = rr.fcs_check_ns_per_dgram;
}

}  // namespace p5bench
