// The verifier's own check: the same stream is pushed twice from one
// fast-tier endpoint into another, once clean and once with a single line
// bit flipped on its way into push_line. The clean pass must count no
// failure, the corrupted one at least one failed datagram and one bad frame.
#include <cstdio>

#include "p5/endpoint.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace p5bench {
namespace {

struct Outcome {
  u64 attempted = 0;
  u64 ok = 0;
  u64 frames_bad = 0;
  u64 failed = 0;
};

Outcome push_stream(const std::vector<Bytes>& bank, bool flip) {
  constexpr u64 kDatagrams = 20;
  auto tx = p5::core::make_sonet_endpoint(p5::core::DeviceTier::kFast, {}, p5::sonet::kSts3c);
  auto rx = p5::core::make_sonet_endpoint(p5::core::DeviceTier::kFast, {}, p5::sonet::kSts3c);
  TracingEndpoint line(*rx, nullptr, nullptr, nullptr);
  // Third chunk, row 4, column 100: inside the SPE payload, which the
  // back-to-back 1500 B datagrams fill.
  const std::size_t columns = p5::sonet::kSts3c.columns();
  if (flip) line.corrupt_push(2, 4 * columns + 100, 3);
  Verifier v(&bank);
  u64 seq = 0;
  const auto reap = [&] {
    while (auto d = line.reap_datagram()) (void)v.check(d->payload);
  };
  while (seq < kDatagrams || tx->tx_pending()) {
    while (seq < kDatagrams && tx->tx_has_room(v.size_of(seq))) {
      (void)tx->submit_datagram(kProtoIpv4, v.make(seq++));
    }
    line.push_line(tx->pull_frame());
    reap();
  }
  for (int i = 0; i < 2; ++i) line.push_line(tx->pull_frame());  // trailing flags
  reap();
  Outcome o;
  o.attempted = seq;
  o.ok = v.ok();
  o.frames_bad = line.rx_counters().frames_bad;
  o.failed = failed_datagrams(seq, v.ok(), o.frames_bad, line.rx_overflow_drops());
  return o;
}

}  // namespace

bool self_test(std::string& detail) {
  const std::vector<Bytes> bank = random_payloads(8, 1500, 0x5E1F7E57);
  const Outcome clean = push_stream(bank, false);
  const Outcome bad = push_stream(bank, true);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "clean: %llu/%llu delivered, %llu failed; one line bit flipped: %llu/%llu "
                "delivered, %llu bad frames, %llu failed",
                (unsigned long long)clean.ok, (unsigned long long)clean.attempted,
                (unsigned long long)clean.failed, (unsigned long long)bad.ok,
                (unsigned long long)bad.attempted, (unsigned long long)bad.frames_bad,
                (unsigned long long)bad.failed);
  detail = buf;
  return clean.failed == 0 && clean.ok == clean.attempted && bad.failed >= 1 &&
         bad.frames_bad >= 1;
}

}  // namespace p5bench
