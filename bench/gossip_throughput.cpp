/// \file gossip_throughput.cpp
/// Gossip-plane throughput (docs/PROTOCOL.md "The gossip hot path"): a
/// converged community absorbing a stream of filter-change events at 1000 and
/// 5000 peers, in these rows:
///   cached   — the epoch-cached snapshot plus merge-scan comparisons (the
///              shipping configuration, eager dissemination),
///   parallel — cached, plus deterministic parallel round stepping
///              (SimConfig::parallel_round_tick; same-tick rounds step on a
///              thread pool and commit in node-id order),
/// and, on the dissemination axis (docs/PROTOCOL.md "Lazy dissemination"),
///   eager    — the cached run, read on this axis as the blind-push baseline,
///   lazy     — GossipConfig::eager_fanout = 0: digests only, plus delta
///              anti-entropy replies,
///   hybrid   — eager_fanout = 2: Plumtree-style eager first hops, plus
///              delta anti-entropy replies.
///
/// Reports wall-clock gossip rounds/sec (numerator: SimCommunity::
/// rounds_executed), simulated bytes per round — split per message type —
/// heap allocations per round (counted by this TU's operator new), and the
/// protocol's dissemination counters. Emits BENCH_gossip_throughput.json.
/// The pre-cache cost model (every summary() rebuilt the sorted snapshot and
/// newer_in/same_as probed the hash map per entry) no longer exists; its
/// rounds/sec survive as the historical figures below. That the caches are
/// behaviourally invisible is pinned by the randomized property tests in
/// tests/test_gossip_directory.cpp.
/// Built-in gates:
///   1. cached must be >= 3x the historical uncached rounds/sec at 5000
///      peers;
///   2. hybrid must move < 1/2 the bytes/round of eager at 5000 peers with
///      every event still converging and mean convergence time within 1.5x
///      of eager;
///   3. lazy mode must push zero blind payloads and see (near-)zero
///      duplicate payload deliveries once converged;
///   4. with --baseline <json>, cached rounds/sec must stay above half the
///      recorded baseline and hybrid bytes/round must stay below twice the
///      recorded hybrid_bytes_per_round figure (scripts/check.sh runs this
///      against bench/baselines/).
/// Usage: gossip_throughput [--quick] [--lazy-smoke] [--baseline <file>]
/// --lazy-smoke runs a small lazy/hybrid-only community and checks gate 3
/// plus convergence — cheap enough for the ASan leg of scripts/check.sh.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/baseline.hpp"
#include "sim/community.hpp"

// ---------------------------------------------------------------------------
// Allocation counter: every throwing/sized/array operator new in the process
// funnels through here (this TU's definitions replace the library's), so the
// delta across a timed window counts real heap allocations on the gossip
// path. Aligned variants keep their default definitions; plain delete always
// pairs with plain new, so free() is the right inverse.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace planetp;
using namespace planetp::sim;

namespace {

enum class Mode { kCached, kParallel, kLazy, kHybrid };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kCached: return "cached";
    case Mode::kParallel: return "parallel";
    case Mode::kLazy: return "lazy";
    case Mode::kHybrid: return "hybrid";
  }
  return "?";
}

/// Rounds/sec of the pre-cache cost model at 1000 and 5000 peers, measured
/// when the epoch cache replaced it: the "uncached" rows of
/// bench/baselines/gossip_throughput.json. Gate 1 compares against them.
double historical_uncached_rps(std::size_t peers) {
  return peers == 1000 ? 10094.2 : peers == 5000 ? 1985.68 : 0.0;
}

/// Message-type names by gossip::Message variant index (the key of
/// NetworkStats::bytes_by_type).
constexpr std::array<const char*, gossip::kMessageTypeCount> kTypeNames = {
    "Rumor", "RumorAck", "SummaryRequest", "Summary",
    "PullRequest", "PullResponse", "RumorDigest", "RumorWant"};

struct RunResult {
  double wall_s = 0.0;
  std::uint64_t rounds = 0;
  double rounds_per_sec = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  std::uint64_t allocs = 0;
  std::uint64_t summary_builds = 0;
  std::vector<double> durations;  ///< convergence samples (seconds)
  bool consistent = false;
  std::size_t events = 0;
  std::array<std::uint64_t, gossip::kMessageTypeCount> bytes_by_type{};
  std::array<std::uint64_t, gossip::kMessageTypeCount> messages_by_type{};
  gossip::GossipStats gossip;  ///< dissemination counters over the window

  double bytes_per_round() const {
    return rounds > 0 ? static_cast<double>(bytes) / static_cast<double>(rounds) : 0.0;
  }
  double mean_convergence_s() const {
    if (durations.empty()) return 0.0;
    double sum = 0.0;
    for (double d : durations) sum += d;
    return sum / static_cast<double>(durations.size());
  }
};

double wall_now_s() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count()) /
         1e9;
}

/// One community absorbing `events` filter changes (one every 15 simulated
/// seconds, rotating origins), then draining until quiet. Only the absorb +
/// drain window is timed: community construction and the converged bootstrap
/// are setup, not gossip.
RunResult run_mode(Mode mode, std::size_t peers, std::size_t events) {
  SimConfig cfg;
  cfg.seed = 4242;  // identical for every mode, so the rows compare like for like
  if (mode == Mode::kParallel) {
    cfg.parallel_round_tick = kSecond;
    cfg.parallel_threads = 0;  // hardware concurrency
  }
  if (mode == Mode::kLazy) cfg.gossip.eager_fanout = 0;
  if (mode == Mode::kHybrid) cfg.gossip.eager_fanout = 2;
  SimCommunity community(cfg);
  for (std::size_t i = 0; i < peers; ++i) {
    community.add_peer({link_speed::kLan45M, 1000});
  }
  const auto t = community.add_tracker("all", [](gossip::PeerId) { return true; });
  community.start_converged();

  const std::uint64_t rounds0 = community.rounds_executed();
  const std::uint64_t bytes0 = community.stats().total_bytes();
  const std::uint64_t msgs0 = community.stats().total_messages();
  const auto types_bytes0 = community.stats().bytes_by_type();
  const auto types_msgs0 = community.stats().messages_by_type();
  const gossip::GossipStats gossip0 = community.stats().gossip_stats();
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const double t0 = wall_now_s();

  TimePoint at = kMinute;
  community.run_until(at);
  for (std::size_t e = 0; e < events; ++e) {
    community.inject_filter_change(static_cast<gossip::PeerId>((e * 997) % peers), 100);
    at += 15 * kSecond;
    community.run_until(at);
  }
  community.set_tracking(false);
  community.run_until(at + 12 * kMinute);

  RunResult r;
  r.wall_s = wall_now_s() - t0;
  r.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  r.rounds = community.rounds_executed() - rounds0;
  r.rounds_per_sec = r.wall_s > 0.0 ? static_cast<double>(r.rounds) / r.wall_s : 0.0;
  r.bytes = community.stats().total_bytes() - bytes0;
  r.messages = community.stats().total_messages() - msgs0;
  for (std::size_t i = 0; i < gossip::kMessageTypeCount; ++i) {
    r.bytes_by_type[i] = community.stats().bytes_by_type()[i] - types_bytes0[i];
    r.messages_by_type[i] = community.stats().messages_by_type()[i] - types_msgs0[i];
  }
  r.gossip = community.stats().gossip_stats();
  r.gossip -= gossip0;
  r.durations = community.tracker(t).durations().samples();
  r.consistent = community.directories_consistent();
  r.events = events;
  for (std::size_t id = 0; id < peers; ++id) {
    r.summary_builds +=
        community.protocol(static_cast<gossip::PeerId>(id)).directory().summary_builds();
  }
  return r;
}

void print_mode(Mode m, const RunResult& r) {
  std::printf(
      "  %-9s %7.2f s   %8llu rounds   %9.0f rounds/s   %7.1f B/round   %6.1f allocs/round   "
      "%llu summary builds%s\n",
      mode_name(m), r.wall_s, static_cast<unsigned long long>(r.rounds), r.rounds_per_sec,
      r.bytes_per_round(),
      r.rounds > 0 ? static_cast<double>(r.allocs) / static_cast<double>(r.rounds) : 0.0,
      static_cast<unsigned long long>(r.summary_builds), r.consistent ? "" : "   (INCONSISTENT)");
}

void print_dissemination(Mode m, const RunResult& r) {
  std::printf(
      "  %-9s payloads %llu (dup %llu)   digests %llu (%llu ids)   wants %llu (%llu ids, "
      "%llu served)   mean convergence %.1f s\n",
      mode_name(m), static_cast<unsigned long long>(r.gossip.payloads_sent),
      static_cast<unsigned long long>(r.gossip.duplicate_payloads),
      static_cast<unsigned long long>(r.gossip.digests_sent),
      static_cast<unsigned long long>(r.gossip.digest_ids_sent),
      static_cast<unsigned long long>(r.gossip.wants_sent),
      static_cast<unsigned long long>(r.gossip.want_ids_sent),
      static_cast<unsigned long long>(r.gossip.wants_served), r.mean_convergence_s());
  std::printf("  %-9s bytes by type:", mode_name(m));
  for (std::size_t i = 0; i < gossip::kMessageTypeCount; ++i) {
    if (r.bytes_by_type[i] == 0) continue;
    std::printf(" %s %.1f B/round", kTypeNames[i],
                r.rounds > 0 ? static_cast<double>(r.bytes_by_type[i]) /
                                   static_cast<double>(r.rounds)
                             : 0.0);
  }
  std::printf("\n");
}

struct SizeResult {
  std::size_t peers = 0;
  RunResult cached, parallel, lazy, hybrid;
  double speedup = 0.0;  ///< cached rounds/s ÷ historical uncached rounds/s
  double hybrid_byte_reduction = 0.0;  ///< eager bytes/round ÷ hybrid bytes/round
};

SizeResult run_size(std::size_t peers, std::size_t events) {
  SizeResult out;
  out.peers = peers;
  std::printf("%5zu peers, %zu filter-change events:\n", peers, events);
  out.cached = run_mode(Mode::kCached, peers, events);
  print_mode(Mode::kCached, out.cached);
  out.parallel = run_mode(Mode::kParallel, peers, events);
  print_mode(Mode::kParallel, out.parallel);
  out.lazy = run_mode(Mode::kLazy, peers, events);
  print_mode(Mode::kLazy, out.lazy);
  out.hybrid = run_mode(Mode::kHybrid, peers, events);
  print_mode(Mode::kHybrid, out.hybrid);
  const double uncached_rps = historical_uncached_rps(peers);
  out.speedup = uncached_rps > 0.0 ? out.cached.rounds_per_sec / uncached_rps : 0.0;
  std::printf("  cached speedup vs uncached (historical %.0f rounds/s): %.1fx\n",
              uncached_rps, out.speedup);
  print_dissemination(Mode::kCached, out.cached);
  print_dissemination(Mode::kLazy, out.lazy);
  print_dissemination(Mode::kHybrid, out.hybrid);
  out.hybrid_byte_reduction = out.hybrid.bytes_per_round() > 0.0
                                  ? out.cached.bytes_per_round() / out.hybrid.bytes_per_round()
                                  : 0.0;
  std::printf("  hybrid byte reduction vs eager: %.2fx\n\n", out.hybrid_byte_reduction);
  return out;
}

void append_mode(std::ostringstream& os, const char* name, const RunResult& r) {
  os << "\"" << name << "\": {\"wall_s\": " << r.wall_s << ", \"rounds\": " << r.rounds
     << ", \"rounds_per_sec\": " << r.rounds_per_sec
     << ", \"bytes_per_round\": " << r.bytes_per_round() << ", \"allocs_per_round\": "
     << (r.rounds > 0 ? static_cast<double>(r.allocs) / static_cast<double>(r.rounds) : 0.0)
     << ", \"summary_builds\": " << r.summary_builds
     << ", \"converged_events\": " << r.durations.size()
     << ", \"mean_convergence_s\": " << r.mean_convergence_s() << ", \"bytes_by_type\": {";
  bool first = true;
  for (std::size_t i = 0; i < gossip::kMessageTypeCount; ++i) {
    if (r.bytes_by_type[i] == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << "\"" << kTypeNames[i] << "\": " << r.bytes_by_type[i];
  }
  os << "}, \"payloads_sent\": " << r.gossip.payloads_sent
     << ", \"duplicate_payloads\": " << r.gossip.duplicate_payloads
     << ", \"digests_sent\": " << r.gossip.digests_sent
     << ", \"wants_served\": " << r.gossip.wants_served << "}";
}

/// Gate 3: lazy pushes nothing blind and a converged community re-delivers
/// (nearly) nothing. The handful of tolerated duplicates are want/pull races
/// — two peers serving the same id before either delivery lands.
int check_lazy_counters(std::size_t peers, const RunResult& lazy) {
  int rc = 0;
  if (lazy.gossip.payloads_sent != 0) {
    std::fprintf(stderr, "FAIL: lazy mode pushed %llu blind payloads at %zu peers (want 0)\n",
                 static_cast<unsigned long long>(lazy.gossip.payloads_sent), peers);
    rc = 1;
  }
  const std::uint64_t dup_budget = lazy.events * 2 + 8;
  if (lazy.gossip.duplicate_payloads > dup_budget) {
    std::fprintf(stderr,
                 "FAIL: lazy mode saw %llu duplicate payload deliveries at %zu peers "
                 "(budget %llu)\n",
                 static_cast<unsigned long long>(lazy.gossip.duplicate_payloads), peers,
                 static_cast<unsigned long long>(dup_budget));
    rc = 1;
  }
  return rc;
}

/// --lazy-smoke: a small lazy + hybrid community under the sanitizer build.
/// Exercises the digest/want/serve path and the delta-summary path end to
/// end, then applies the convergence and counter gates (not the byte-ratio
/// gate: at smoke scale the full-summary baseline is cheap anyway).
int run_lazy_smoke() {
  constexpr std::size_t kPeers = 300;
  constexpr std::size_t kEvents = 3;
  int rc = 0;
  for (Mode m : {Mode::kLazy, Mode::kHybrid}) {
    const RunResult r = run_mode(m, kPeers, kEvents);
    print_mode(m, r);
    print_dissemination(m, r);
    if (!r.consistent || r.durations.size() != kEvents) {
      std::fprintf(stderr, "FAIL: %s smoke did not converge (%zu/%zu events)\n", mode_name(m),
                   r.durations.size(), kEvents);
      rc = 1;
    }
    if (m == Mode::kLazy) rc |= check_lazy_counters(kPeers, r);
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool lazy_smoke = false;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--lazy-smoke") == 0) {
      lazy_smoke = true;
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    }
  }
  if (lazy_smoke) return run_lazy_smoke();

  const std::size_t events = quick ? 4 : 12;
  std::vector<SizeResult> results;
  results.push_back(run_size(1000, events));
  results.push_back(run_size(5000, events));

  std::ostringstream os;
  os << "{\n  \"bench\": \"gossip_throughput\",\n  \"quick\": " << (quick ? "true" : "false")
     << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    os << "    {\"peers\": " << r.peers << ", \"events\": " << r.cached.events << ", ";
    append_mode(os, "cached", r.cached);
    os << ", ";
    append_mode(os, "parallel", r.parallel);
    os << ", ";
    append_mode(os, "lazy", r.lazy);
    os << ", ";
    append_mode(os, "hybrid", r.hybrid);
    os << ", \"cached_speedup_vs_uncached\": " << r.speedup
       << ", \"hybrid_byte_reduction\": " << r.hybrid_byte_reduction << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  for (const SizeResult& r : results) {
    os << "  \"cached_rps_" << r.peers << "\": " << r.cached.rounds_per_sec << ",\n";
    os << "  \"hybrid_bytes_per_round_" << r.peers << "\": " << r.hybrid.bytes_per_round()
       << ",\n";
    os << "  \"lazy_bytes_per_round_" << r.peers << "\": " << r.lazy.bytes_per_round() << ",\n";
  }
  os << "  \"cached_speedup_5000\": " << results.back().speedup << ",\n"
     << "  \"hybrid_byte_reduction_5000\": " << results.back().hybrid_byte_reduction << "\n}\n";

  std::ofstream("BENCH_gossip_throughput.json") << os.str();
  std::printf("wrote BENCH_gossip_throughput.json\n");

  int rc = 0;
  for (const SizeResult& r : results) {
    if (r.cached.durations.size() != r.cached.events || !r.cached.consistent) {
      std::fprintf(stderr, "FAIL: cached run at %zu peers did not converge (%zu/%zu events)\n",
                   r.peers, r.cached.durations.size(), r.cached.events);
      rc = 1;
    }
    if (!r.parallel.consistent || r.parallel.durations.size() != r.parallel.events) {
      std::fprintf(stderr, "FAIL: parallel run at %zu peers did not converge (%zu/%zu events)\n",
                   r.peers, r.parallel.durations.size(), r.parallel.events);
      rc = 1;
    }
    // Every event still converges with lazy dissemination, and every
    // directory ends consistent.
    for (const RunResult* m : {&r.lazy, &r.hybrid}) {
      const char* name = m == &r.lazy ? "lazy" : "hybrid";
      if (!m->consistent || m->durations.size() != m->events) {
        std::fprintf(stderr, "FAIL: %s run at %zu peers did not converge (%zu/%zu events)\n",
                     name, r.peers, m->durations.size(), m->events);
        rc = 1;
      }
    }
    rc |= check_lazy_counters(r.peers, r.lazy);
    // Convergence time must stay in eager's ballpark — the byte savings may
    // not come from propagating slower (gate 2's second half).
    if (r.hybrid.mean_convergence_s() > r.cached.mean_convergence_s() * 1.5) {
      std::fprintf(stderr,
                   "FAIL: hybrid mean convergence %.1f s vs eager %.1f s at %zu peers "
                   "(> 1.5x)\n",
                   r.hybrid.mean_convergence_s(), r.cached.mean_convergence_s(), r.peers);
      rc = 1;
    }
  }
  if (results.back().speedup < 3.0) {
    std::fprintf(stderr,
                 "FAIL: cached only %.1fx vs historical uncached at 5000 peers "
                 "(need >= 3x)\n",
                 results.back().speedup);
    rc = 1;
  }
  if (results.back().hybrid_byte_reduction < 2.0) {
    std::fprintf(stderr,
                 "FAIL: hybrid moves only %.2fx fewer bytes/round than eager at 5000 peers "
                 "(need > 2x)\n",
                 results.back().hybrid_byte_reduction);
    rc = 1;
  }

  if (!baseline_path.empty()) {
    const std::optional<std::string> loaded = benchutil::read_baseline(baseline_path);
    if (!loaded) return 1;
    const std::string& baseline = *loaded;
    for (const SizeResult& r : results) {
      const std::string key = "cached_rps_" + std::to_string(r.peers);
      const double recorded = benchutil::parse_key(baseline, key);
      if (recorded <= 0.0) continue;
      if (r.cached.rounds_per_sec < recorded / 2.0) {
        std::fprintf(stderr,
                     "FAIL: cached rounds/s at %zu peers regressed: %.0f vs baseline %.0f "
                     "(>2x drop)\n",
                     r.peers, r.cached.rounds_per_sec, recorded);
        rc = 1;
      } else {
        std::printf("baseline check at %zu peers: %.0f rounds/s vs recorded %.0f — ok\n", r.peers,
                    r.cached.rounds_per_sec, recorded);
      }
    }
    for (const SizeResult& r : results) {
      const std::string key = "hybrid_bytes_per_round_" + std::to_string(r.peers);
      const double recorded = benchutil::parse_key(baseline, key);
      if (recorded <= 0.0) continue;
      if (r.hybrid.bytes_per_round() > recorded * 2.0) {
        std::fprintf(stderr,
                     "FAIL: hybrid bytes/round at %zu peers regressed: %.1f vs baseline %.1f "
                     "(>2x growth)\n",
                     r.peers, r.hybrid.bytes_per_round(), recorded);
        rc = 1;
      } else {
        std::printf("baseline check at %zu peers: %.1f hybrid B/round vs recorded %.1f — ok\n",
                    r.peers, r.hybrid.bytes_per_round(), recorded);
      }
    }
  }
  return rc;
}
