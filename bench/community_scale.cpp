/// \file community_scale.cpp
/// Community-size scaling (docs/SCALE.md): converged communities at 5k, 25k
/// and 100k simulated peers absorbing a stream of filter-change events, with
/// the shared-base directory (one immutable snapshot community-wide),
/// O(changed) summary compares, and chunk-sharded parallel round stepping.
///
/// Reports, per community size: wall-clock gossip rounds/sec, convergence
/// time of the injected events (simulated seconds), peak process RSS (VmHWM
/// — sizes run ascending so the peak attributes to the size that set it),
/// and the average directory entries scanned per executed round (the
/// O(changed) evidence: it must stay flat as N grows 20x).
///
/// Emits BENCH_community_scale.json. Built-in gates:
///   1. every injected event converges and spot-checked directories agree;
///   2. peak RSS stays under 10% of the decoded cost model — N peers each
///      holding a private copy of N records (sizeof(PeerRecord) each), the
///      pre-shared-base design — with a 256 MB floor for small runs;
///   3. entries scanned per round is N-independent: <= 8*events + 16;
///   4. with --baseline <json>: rounds/s must stay above half the recorded
///      value and peak RSS below twice the recorded value per size.
/// Usage: community_scale [--quick] [--baseline <file>]

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/baseline.hpp"
#include "common/mem_sampler.hpp"
#include "sim/community.hpp"

using namespace planetp;
using namespace planetp::sim;

namespace {

struct ScaleResult {
  std::size_t peers = 0;
  std::size_t events = 0;
  double wall_s = 0.0;
  std::uint64_t rounds = 0;
  double rounds_per_sec = 0.0;
  std::size_t converged_events = 0;
  double max_converge_s = 0.0;  ///< slowest event, simulated seconds
  double scan_per_round = 0.0;  ///< directory entries scanned per round
  double rss_mb = 0.0;          ///< VmRSS after the run
  double hwm_mb = 0.0;          ///< VmHWM (process peak, cumulative)
  bool consistent = false;
};

double wall_now_s() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count()) /
         1e9;
}

/// Spot consistency at scale: directories_consistent() is O(N^2), so compare
/// a sample of peers against peer 0's summary instead. With the shared base
/// each compare is O(changed), not O(N).
bool spot_consistent(SimCommunity& community, std::size_t peers) {
  const auto reference = community.protocol(0).directory().summary_entries();
  const std::size_t samples = peers < 64 ? peers : 64;
  const std::size_t stride = peers / (samples > 0 ? samples : 1);
  for (std::size_t i = 1; i < samples; ++i) {
    const auto id = static_cast<gossip::PeerId>(i * stride);
    if (!community.protocol(id).directory().same_as(reference)) return false;
  }
  return true;
}

ScaleResult run_size(std::size_t peers, std::size_t events) {
  SimConfig cfg;
  cfg.seed = 4242;
  cfg.parallel_round_tick = kSecond;
  cfg.parallel_threads = 0;  // hardware concurrency
  SimCommunity community(cfg);
  for (std::size_t i = 0; i < peers; ++i) {
    community.add_peer({link_speed::kLan45M, 1000});
  }
  const auto t = community.add_tracker("all", [](gossip::PeerId) { return true; });
  community.start_converged();

  const double t0 = wall_now_s();
  const std::uint64_t rounds0 = community.rounds_executed();

  TimePoint at = kMinute;
  community.run_until(at);
  for (std::size_t e = 0; e < events; ++e) {
    community.inject_filter_change(static_cast<gossip::PeerId>((e * 997) % peers), 100);
    at += 15 * kSecond;
    community.run_until(at);
  }
  community.set_tracking(false);
  community.run_until(at + 12 * kMinute);

  ScaleResult r;
  r.peers = peers;
  r.events = events;
  r.wall_s = wall_now_s() - t0;
  r.rounds = community.rounds_executed() - rounds0;
  r.rounds_per_sec = r.wall_s > 0.0 ? static_cast<double>(r.rounds) / r.wall_s : 0.0;
  const auto& durations = community.tracker(t).durations().samples();
  r.converged_events = durations.size();
  for (double d : durations) r.max_converge_s = std::max(r.max_converge_s, d);
  std::uint64_t scanned = 0;
  for (std::size_t id = 0; id < peers; ++id) {
    scanned += community.protocol(static_cast<gossip::PeerId>(id)).directory().merge_scan_entries();
  }
  r.scan_per_round = r.rounds > 0 ? static_cast<double>(scanned) / static_cast<double>(r.rounds) : 0.0;
  r.consistent = spot_consistent(community, peers);
  const benchutil::MemSample mem = benchutil::sample_memory();
  r.rss_mb = benchutil::to_mb(mem.vm_rss_kb);
  r.hwm_mb = benchutil::to_mb(mem.vm_hwm_kb);
  return r;
}

void print_result(const ScaleResult& r) {
  std::printf(
      "%6zu peers: %7.2f s wall   %9llu rounds   %9.0f rounds/s   "
      "%zu/%zu events converged (max %.0f sim-s)   %.2f scans/round   "
      "RSS %.0f MB (peak %.0f MB)%s\n",
      r.peers, r.wall_s, static_cast<unsigned long long>(r.rounds), r.rounds_per_sec,
      r.converged_events, r.events, r.max_converge_s, r.scan_per_round, r.rss_mb, r.hwm_mb,
      r.consistent ? "" : "   (INCONSISTENT)");
}

/// What the pre-shared-base design would decode: every peer holding its own
/// copy of every record.
double decoded_model_mb(std::size_t peers) {
  const double per_record = static_cast<double>(sizeof(gossip::PeerRecord));
  return static_cast<double>(peers) * static_cast<double>(peers) * per_record / (1024.0 * 1024.0);
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

  // Ascending, so VmHWM at each sample attributes to the size that set it.
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{2000, 5000} : std::vector<std::size_t>{5000, 25000, 100000};

  std::vector<ScaleResult> results;
  for (std::size_t n : sizes) {
    const std::size_t events = quick ? 4 : (n >= 100000 ? 6 : 12);
    results.push_back(run_size(n, events));
    print_result(results.back());
  }

  std::ostringstream os;
  os << "{\n  \"bench\": \"community_scale\",\n  \"quick\": " << (quick ? "true" : "false")
     << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScaleResult& r = results[i];
    os << "    {\"peers\": " << r.peers << ", \"events\": " << r.events
       << ", \"wall_s\": " << r.wall_s << ", \"rounds\": " << r.rounds
       << ", \"rounds_per_sec\": " << r.rounds_per_sec
       << ", \"converged_events\": " << r.converged_events
       << ", \"max_converge_s\": " << r.max_converge_s
       << ", \"scan_per_round\": " << r.scan_per_round << ", \"rss_mb\": " << r.rss_mb
       << ", \"hwm_mb\": " << r.hwm_mb << ", \"decoded_model_mb\": " << decoded_model_mb(r.peers)
       << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  for (const ScaleResult& r : results) {
    os << "  \"rps_" << r.peers << "\": " << r.rounds_per_sec << ",\n";
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    os << "  \"rss_hwm_mb_" << results[i].peers << "\": " << results[i].hwm_mb
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "}\n";
  std::ofstream("BENCH_community_scale.json") << os.str();
  std::printf("wrote BENCH_community_scale.json\n");

  int rc = 0;
  for (const ScaleResult& r : results) {
    if (r.converged_events != r.events || !r.consistent) {
      std::fprintf(stderr, "FAIL: %zu peers: %zu/%zu events converged, consistent=%d\n", r.peers,
                   r.converged_events, r.events, r.consistent ? 1 : 0);
      rc = 1;
    }
    const double budget_mb = std::max(decoded_model_mb(r.peers) * 0.10, 256.0);
    if (r.hwm_mb > 0.0 && r.hwm_mb > budget_mb) {
      std::fprintf(stderr,
                   "FAIL: %zu peers: peak RSS %.0f MB exceeds %.0f MB "
                   "(10%% of the decoded cost model)\n",
                   r.peers, r.hwm_mb, budget_mb);
      rc = 1;
    }
    // The O(changed) property: work per round must not scale with N.
    const double scan_budget = 8.0 * static_cast<double>(r.events) + 16.0;
    if (r.scan_per_round > scan_budget) {
      std::fprintf(stderr, "FAIL: %zu peers: %.1f entries scanned per round (budget %.1f)\n",
                   r.peers, r.scan_per_round, scan_budget);
      rc = 1;
    }
  }

  if (!baseline_path.empty()) {
    const std::optional<std::string> loaded = benchutil::read_baseline(baseline_path);
    if (!loaded) return 1;
    const std::string& baseline = *loaded;
    for (const ScaleResult& r : results) {
      const double rps = benchutil::parse_key(baseline, "rps_" + std::to_string(r.peers));
      if (rps > 0.0) {
        if (r.rounds_per_sec < rps / 2.0) {
          std::fprintf(stderr, "FAIL: %zu peers: %.0f rounds/s vs baseline %.0f (>2x drop)\n",
                       r.peers, r.rounds_per_sec, rps);
          rc = 1;
        } else {
          std::printf("baseline rps at %zu peers: %.0f vs recorded %.0f — ok\n", r.peers,
                      r.rounds_per_sec, rps);
        }
      }
      const double hwm =
          benchutil::parse_key(baseline, "rss_hwm_mb_" + std::to_string(r.peers));
      if (hwm > 0.0 && r.hwm_mb > 0.0) {
        if (r.hwm_mb > hwm * 2.0) {
          std::fprintf(stderr, "FAIL: %zu peers: peak RSS %.0f MB vs baseline %.0f MB (>2x)\n",
                       r.peers, r.hwm_mb, hwm);
          rc = 1;
        } else {
          std::printf("baseline RSS at %zu peers: %.0f MB vs recorded %.0f MB — ok\n", r.peers,
                      r.hwm_mb, hwm);
        }
      }
    }
  }
  return rc;
}
