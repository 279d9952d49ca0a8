// p5bench — the benchmark binary. p5bench/run.py builds and runs it; by hand:
//
//   p5bench --workload bulk_tcp|trace_udp_paced|server_fanin --seed N
//           --seconds S --trace 0|1 [--trace-out spans.jsonl]
//
// Every run starts with the line-corruption self-test and exits 1 if it
// fails. It then prints a fingerprint line, human-readable notes,
// one `metric <name> <value> <unit>` line per metric, and, as the last line,
// the result object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer split of a separate traced run. A violated check (corrupt
// datagram, open ledger) exits 1.
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "fastpath/escape_simd.hpp"
#include "p5/endpoint.hpp"
#include "transport/conn.hpp"
#include "workloads.hpp"

namespace p5bench {
namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(" \t", colon + 1));
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

/// Shortest decimal form that reads back as the same double; a failure
/// that made a latency infinite prints as 1e300 (JSON has no infinity).
std::string number(double v) {
  if (!std::isfinite(v)) v = 1e300;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void print_fingerprint(const Options& opt) {
  const bool server = opt.workload == "server_fanin";
  // The server resolves P5_DEVICE_TIER itself; the tunnel pairs are
  // constructed at the fast tier literally.
  const p5::core::DeviceTier tier =
      server ? p5::core::resolve_device_tier(p5::core::DeviceTier::kFast)
             : p5::core::DeviceTier::kFast;
  std::printf(
      "fingerprint {\"nproc\": %ld, \"cpu_model\": \"%s\", \"escape_tier\": \"%s\", "
      "\"build_type\": \"%s\", \"device_tier\": \"%s\", \"sts\": \"STS-3c\", \"io_batch\": %s, "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, \"trace\": %d}\n",
      sysconf(_SC_NPROCESSORS_ONLN), json_escape(cpu_model()).c_str(),
      p5::fastpath::to_string(p5::fastpath::best_tier()), P5BENCH_BUILD_TYPE,
      p5::core::to_string(tier),
      p5::transport::resolve_io_batch(p5::transport::IoBatch::kAuto) ? "true" : "false",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      number(opt.seconds).c_str(), opt.trace ? 1 : 0);
}

void print_report(const Report& r) {
  for (const std::string& n : r.notes) std::printf("%s\n", n.c_str());
  for (const Metric& m : r.metrics) {
    std::printf("metric %-42s %16s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: p5bench --workload bulk_tcp|trace_udp_paced|server_fanin --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n");
  return 2;
}

int run(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const auto arg = [&](const char* name) {
      if (std::strcmp(argv[i], name) != 0) return static_cast<const char*>(nullptr);
      return i + 1 < argc ? argv[++i] : static_cast<const char*>(nullptr);
    };
    if (const char* v = arg("--workload")) {
      opt.workload = v;
    } else if (const char* v = arg("--seed")) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = arg("--seconds")) {
      opt.seconds = std::atof(v);
    } else if (const char* v = arg("--trace")) {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (const char* v = arg("--trace-out")) {
      opt.trace_out = v;
    } else {
      return usage();
    }
  }

  std::string detail;
  const bool self_ok = self_test(detail);
  std::printf("self-test %s: %s\n", self_ok ? "ok" : "FAILED", detail.c_str());
  if (!self_ok) return 1;

  Report (*workload)(const Options&) = nullptr;
  if (opt.workload == "bulk_tcp") workload = run_bulk_tcp;
  if (opt.workload == "trace_udp_paced") workload = run_trace_udp_paced;
  if (opt.workload == "server_fanin") workload = run_server_fanin;
  if (!workload || !(opt.seconds > 0.0)) return usage();

  print_fingerprint(opt);
  std::fflush(stdout);
  const Report r = workload(opt);
  print_report(r);
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace p5bench

int main(int argc, char** argv) { return p5bench::run(argc, argv); }
