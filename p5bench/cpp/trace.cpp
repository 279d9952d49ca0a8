#include "trace.hpp"

#include <fstream>

namespace p5bench {

const char* to_string(SpanKind k) {
  switch (k) {
    case SpanKind::kPump: return "transport.Tunnel::pump";
    case SpanKind::kRunOnce: return "transport.EventLoop::run_once";
    case SpanKind::kSubmit: return "p5.submit_datagram";
    case SpanKind::kReap: return "p5.reap_datagram";
    case SpanKind::kPullFrame: return "p5.pull_frame";
    case SpanKind::kPushLine: return "p5.push_line";
    case SpanKind::kClientFill: return "transport.client_fill";
    case SpanKind::kCount: break;
  }
  return "?";
}

void Tracer::begin(SpanKind kind, u64 key) {
  if (depth_ == stack_.size()) return;  // deeper than any datapath nesting
  std::size_t index = ~std::size_t{0};
  const u64 t = now_ns();
  if (sample_.size() < kSampleSpans) {
    const long long parent =
        depth_ > 0 && stack_[depth_ - 1].sample_index != ~std::size_t{0}
            ? static_cast<long long>(stack_[depth_ - 1].sample_index)
            : -1;
    index = sample_.size();
    sample_.push_back({kind, key, t, 0, parent});
  }
  stack_[depth_++] = {kind, t, 0, index};
}

void Tracer::end() {
  if (depth_ == 0) return;
  const Open o = stack_[--depth_];
  const u64 t = now_ns();
  const u64 dur = t > o.start ? t - o.start : 0;
  Totals& tot = totals_[static_cast<std::size_t>(o.kind)];
  ++tot.count;
  tot.total_ns += dur;
  tot.self_ns += dur > o.child_ns ? dur - o.child_ns : 0;
  if (depth_ > 0) {
    stack_[depth_ - 1].child_ns += dur;
  } else {
    top_level_ns_ += dur;
  }
  if (o.sample_index != ~std::size_t{0}) sample_[o.sample_index].end = t;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < sample_.size(); ++i) {
    const Recorded& r = sample_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << to_string(r.kind) << "\",\"key\":" << r.key
        << ",\"start_ns\":" << r.start << ",\"end_ns\":" << r.end << ",\"parent\":" << r.parent << "}\n";
  }
  return static_cast<bool>(out);
}

Bytes TracingEndpoint::pull_frame() {
  const u64 seq = pulled_++;
  const bool capturing = capture_ && capture_->active;
  const std::size_t depth_before = capturing ? inner_.tx_queue_depth() : 0;
  Bytes chunk;
  {
    Span span(tracer_, SpanKind::kPullFrame, seq);
    chunk = inner_.pull_frame();
  }
  if (capturing) capture_->tx_batch.push_back(depth_before - inner_.tx_queue_depth());
  if (clock_ && tracer_ && tracer_->enabled()) clock_->stamp(seq, now_ns());
  return chunk;
}

void TracingEndpoint::push_line(BytesView octets) {
  const u64 seq = pushed_++;
  if (seq == corrupt_chunk_ && corrupt_octet_ < octets.size()) {
    scratch_.assign(octets.begin(), octets.end());
    scratch_[corrupt_octet_] ^= static_cast<u8>(1u << corrupt_bit_);
    octets = scratch_;
  }
  if (capture_ && capture_->active && !capture_->full()) {
    capture_->rx_chunks.emplace_back(octets.begin(), octets.end());
  }
  if (clock_ && tracer_ && tracer_->enabled()) {
    const double w = clock_->wait_ns(seq, now_ns());
    if (w >= 0.0) waits_.push_back(w);
  }
  Span span(tracer_, SpanKind::kPushLine, seq);
  inner_.push_line(octets);
}

}  // namespace p5bench
