#include "linecard/telemetry.hpp"

#include <algorithm>

namespace p5::linecard {

ChannelSnapshot& ChannelSnapshot::operator+=(const ChannelSnapshot& o) {
  frames_in += o.frames_in;
  frames_out += o.frames_out;
  bytes_in += o.bytes_in;
  bytes_out += o.bytes_out;
  fcs_errors += o.fcs_errors;
  frames_lost += o.frames_lost;
  ring_full_stalls += o.ring_full_stalls;
  ingress_hwm = std::max(ingress_hwm, o.ingress_hwm);
  egress_hwm = std::max(egress_hwm, o.egress_hwm);
  escape_scalar += o.escape_scalar;
  escape_simd += o.escape_simd;
  return *this;
}

ChannelSnapshot ChannelTelemetry::read_once() const {
  ChannelSnapshot s;
  s.frames_in = frames_in_.load(std::memory_order_acquire);
  s.frames_out = frames_out_.load(std::memory_order_acquire);
  s.bytes_in = bytes_in_.load(std::memory_order_acquire);
  s.bytes_out = bytes_out_.load(std::memory_order_acquire);
  s.fcs_errors = fcs_errors_.load(std::memory_order_acquire);
  s.frames_lost = frames_lost_.load(std::memory_order_acquire);
  s.ring_full_stalls = ring_full_stalls_.load(std::memory_order_acquire);
  s.ingress_hwm = ingress_hwm_.load(std::memory_order_acquire);
  s.egress_hwm = egress_hwm_.load(std::memory_order_acquire);
  s.escape_scalar = escape_scalar_.load(std::memory_order_acquire);
  s.escape_simd = escape_simd_.load(std::memory_order_acquire);
  return s;
}

ChannelSnapshot ChannelTelemetry::snapshot() const {
  ChannelSnapshot prev = read_once();
  for (int attempt = 0; attempt < 8; ++attempt) {
    ChannelSnapshot cur = read_once();
    if (cur == prev) return cur;
    prev = cur;
  }
  return prev;  // writer outran us; monotonic counters make this still valid
}

Telemetry::Telemetry(std::size_t channels) {
  per_channel_.reserve(channels);
  for (std::size_t i = 0; i < channels; ++i)
    per_channel_.push_back(std::make_unique<ChannelTelemetry>());
}

ChannelSnapshot Telemetry::snapshot(std::size_t i) const { return per_channel_[i]->snapshot(); }

ChannelSnapshot Telemetry::aggregate() const {
  ChannelSnapshot sum;
  for (const auto& ch : per_channel_) sum += ch->snapshot();
  return sum;
}

}  // namespace p5::linecard
