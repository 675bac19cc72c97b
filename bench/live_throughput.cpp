/// \file live_throughput.cpp
/// Live TCP runtime throughput (docs/NET.md): an in-process loopback
/// LiveCluster at 100, 500 and 1000 nodes gossiping at a fixed interval,
/// measured over a steady-state wall-clock window. Reports frames/sec and
/// bytes/sec over the wire, gossip rounds/sec, the steady-state open-fd
/// count, and the p99 gossip-round jitter (|actual - scheduled| per round).
/// Emits BENCH_live_throughput.json. Built-in gates:
///   1. every size must actually gossip (rounds and frames advance) and keep
///      queued bytes under the configured global outbound cap;
///   2. no descriptor may leak across a full cluster lifecycle;
///   3. with --baseline <json>, frames/sec per size must stay above half the
///      recorded baseline (scripts/check.sh runs this against
///      bench/baselines/).
/// Usage: live_throughput [--quick] [--baseline <file>]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/baseline.hpp"
#include "common/mem_sampler.hpp"
#include "net/cluster.hpp"
#include "util/stats.hpp"

using namespace planetp;
using namespace planetp::net;

namespace {

struct RunResult {
  std::size_t nodes = 0;
  double wall_s = 0.0;
  double rounds_per_sec = 0.0;
  double msgs_per_sec = 0.0;   ///< frames received across all reactors
  double bytes_per_sec = 0.0;  ///< payload + framing bytes on the wire
  std::size_t fd_count = 0;    ///< open descriptors at steady state
  double p99_jitter_ms = 0.0;  ///< round scheduling error, 99th percentile
  std::uint64_t peak_queued = 0;
  std::uint64_t global_cap = 0;
  std::uint64_t rounds = 0;
  std::uint64_t frames = 0;
  bool fd_clean = false;  ///< descriptors returned to pre-cluster count
  double rss_mb = 0.0;    ///< VmRSS at steady state, whole process
  double hwm_mb = 0.0;    ///< VmHWM (peak; sizes run ascending)
};

double wall_now_s() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count()) /
         1e9;
}

LiveNodeConfig bench_config() {
  LiveNodeConfig cfg;
  cfg.bloom.bits = 65536;
  cfg.gossip.base_interval = 300 * kMillisecond;
  cfg.gossip.max_interval = 300 * kMillisecond;  // fixed: jitter is measurable
  cfg.gossip.slow_down = 0;
  cfg.reactor.per_connection_outbound_cap = 256 * 1024;
  cfg.reactor.global_outbound_cap = 16u << 20;
  cfg.reactor.idle_timeout = 750 * kMillisecond;
  cfg.reactor.maintenance_interval = 200 * kMillisecond;
  return cfg;
}

RunResult run_size(std::size_t nodes, double window_s) {
  const LiveNodeConfig cfg = bench_config();
  const std::size_t fds_before = LiveCluster::open_fd_count();
  RunResult r;
  r.nodes = nodes;
  r.global_cap = cfg.reactor.global_outbound_cap;
  {
    LiveCluster cluster(nodes, cfg);
    cluster.start();

    // Let rounds and connections reach steady state before measuring.
    std::this_thread::sleep_for(std::chrono::seconds(1));
    const NetStats s0 = cluster.total_net_stats();
    const std::uint64_t rounds0 = cluster.total_rounds();
    const double t0 = wall_now_s();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<long>(window_s * 500)));
    r.fd_count = LiveCluster::open_fd_count();  // mid-window steady state
    const benchutil::MemSample mem = benchutil::sample_memory();
    r.rss_mb = benchutil::to_mb(mem.vm_rss_kb);
    r.hwm_mb = benchutil::to_mb(mem.vm_hwm_kb);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<long>(window_s * 500)));
    const double wall = wall_now_s() - t0;
    const NetStats s1 = cluster.total_net_stats();
    const std::uint64_t rounds1 = cluster.total_rounds();

    r.wall_s = wall;
    r.rounds = rounds1 - rounds0;
    r.frames = s1.frames_in - s0.frames_in;
    r.rounds_per_sec = static_cast<double>(r.rounds) / wall;
    r.msgs_per_sec = static_cast<double>(r.frames) / wall;
    r.bytes_per_sec = static_cast<double>(s1.bytes_in - s0.bytes_in) / wall;
    r.peak_queued = s1.peak_queued_bytes;

    SampleSet jitter;
    for (const Duration d : cluster.merged_round_jitter()) {
      jitter.add(static_cast<double>(d) / static_cast<double>(kMillisecond));
    }
    r.p99_jitter_ms = jitter.empty() ? 0.0 : jitter.percentile(99.0);
    cluster.stop();
  }
  r.fd_clean = LiveCluster::open_fd_count() == fds_before;
  return r;
}

void print_result(const RunResult& r) {
  std::printf(
      "%5zu nodes   %7.0f rounds/s   %8.0f msgs/s   %10.0f bytes/s   %5zu fds   "
      "p99 jitter %7.1f ms   RSS %.0f MB%s\n",
      r.nodes, r.rounds_per_sec, r.msgs_per_sec, r.bytes_per_sec, r.fd_count, r.p99_jitter_ms,
      r.rss_mb, r.fd_clean ? "" : "   (FD LEAK)");
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    }
  }

  // Same sizes either way (the baseline keys must match); --quick only
  // shortens the measured window.
  const double window_s = quick ? 3.0 : 6.0;
  std::vector<RunResult> results;
  for (const std::size_t nodes : {std::size_t{100}, std::size_t{500}, std::size_t{1000}}) {
    results.push_back(run_size(nodes, window_s));
    print_result(results.back());
  }

  std::ostringstream os;
  os << "{\n  \"bench\": \"live_throughput\",\n  \"quick\": " << (quick ? "true" : "false")
     << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    os << "    {\"nodes\": " << r.nodes << ", \"wall_s\": " << r.wall_s
       << ", \"rounds_per_sec\": " << r.rounds_per_sec
       << ", \"msgs_per_sec\": " << r.msgs_per_sec << ", \"bytes_per_sec\": " << r.bytes_per_sec
       << ", \"fd_count\": " << r.fd_count << ", \"p99_round_jitter_ms\": " << r.p99_jitter_ms
       << ", \"peak_queued_bytes\": " << r.peak_queued << ", \"rss_mb\": " << r.rss_mb
       << ", \"hwm_mb\": " << r.hwm_mb << ", \"fd_clean\": "
       << (r.fd_clean ? "true" : "false") << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    os << "  \"msgs_per_sec_" << r.nodes << "\": " << r.msgs_per_sec
       << (i + 1 < results.size() ? ",\n" : "\n");
  }
  os << "}\n";

  std::ofstream("BENCH_live_throughput.json") << os.str();
  std::printf("wrote BENCH_live_throughput.json\n");

  int rc = 0;
  for (const RunResult& r : results) {
    if (r.rounds == 0 || r.frames == 0) {
      std::fprintf(stderr, "FAIL: %zu nodes exchanged no gossip (%llu rounds, %llu frames)\n",
                   r.nodes, static_cast<unsigned long long>(r.rounds),
                   static_cast<unsigned long long>(r.frames));
      rc = 1;
    }
    if (r.peak_queued > r.global_cap) {
      std::fprintf(stderr, "FAIL: %zu nodes peak queued %llu exceeds global cap %llu\n", r.nodes,
                   static_cast<unsigned long long>(r.peak_queued),
                   static_cast<unsigned long long>(r.global_cap));
      rc = 1;
    }
    if (!r.fd_clean) {
      std::fprintf(stderr, "FAIL: %zu nodes leaked descriptors across the cluster lifecycle\n",
                   r.nodes);
      rc = 1;
    }
  }

  if (!baseline_path.empty()) {
    const std::optional<std::string> loaded = benchutil::read_baseline(baseline_path);
    if (!loaded) return 1;
    const std::string& baseline = *loaded;
    for (const RunResult& r : results) {
      const std::string key = "msgs_per_sec_" + std::to_string(r.nodes);
      const double recorded = benchutil::parse_key(baseline, key);
      if (recorded <= 0.0) continue;
      if (r.msgs_per_sec < recorded / 2.0) {
        std::fprintf(stderr,
                     "FAIL: msgs/s at %zu nodes regressed: %.0f vs baseline %.0f (>2x drop)\n",
                     r.nodes, r.msgs_per_sec, recorded);
        rc = 1;
      } else {
        std::printf("baseline check at %zu nodes: %.0f msgs/s vs recorded %.0f — ok\n", r.nodes,
                    r.msgs_per_sec, recorded);
      }
    }
  }
  return rc;
}
