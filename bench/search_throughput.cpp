/// \file search_throughput.cpp
/// Query hot-path throughput (docs/SEARCH.md "Query hot path"): the eq. 3
/// "rank peers" step at 1000 and 5000 peers with paper-size 50 KB filters,
/// comparing
///   uncached — a from-scratch IpfTable scan per query (the paper's cost,
///              Table 1's dominant term at scale),
///   cold     — the same queries through a freshly primed CandidateCache
///              (first touch of each term pays the batched miss kernel),
///   warm     — a second pass over the same workload (all terms answered
///              from cached candidate sets; filters are never probed).
///
/// Emits BENCH_search_throughput.json with qps and p50/p99 latencies per
/// mode. Two built-in gates:
///   1. warm must be >= 5x uncached qps at 5000 peers (the cache is the
///      point; a run where it is not winning is a regression);
///   2. with --baseline <json>, warm qps must stay above half the recorded
///      baseline (scripts/check.sh runs this against bench/baselines/).
/// Usage: search_throughput [--quick] [--baseline <file>]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/baseline.hpp"
#include "bloom/bloom_filter.hpp"
#include "search/candidate_cache.hpp"
#include "search/distributed.hpp"
#include "search/ipf.hpp"

using namespace planetp;
using namespace planetp::search;

namespace {

constexpr std::size_t kHotTerms = 64;      ///< query vocabulary
constexpr std::size_t kHotPerPeer = 2;     ///< hot terms per peer filter (selective terms)
constexpr std::size_t kFillerPerPeer = 198;  ///< unique keys per peer filter
constexpr std::size_t kTermsPerQuery = 3;

std::string hot_term(std::size_t i) { return "hot" + std::to_string(i); }

/// Paper-size filters: each peer shares kHotPerPeer hot terms (a sliding
/// window over the hot vocabulary, so every hot term lands on ~N/8 peers)
/// plus unique filler keys that set realistic bit density.
std::vector<bloom::BloomFilter> build_population(std::size_t peers) {
  std::vector<bloom::BloomFilter> filters(peers, bloom::BloomFilter{});
  for (std::size_t p = 0; p < peers; ++p) {
    for (std::size_t j = 0; j < kHotPerPeer; ++j) {
      filters[p].insert(hot_term((p + j * (kHotTerms / kHotPerPeer)) % kHotTerms));
    }
    for (std::size_t j = 0; j < kFillerPerPeer; ++j) {
      filters[p].insert("p" + std::to_string(p) + "_k" + std::to_string(j));
    }
  }
  return filters;
}

std::vector<HashedTerms> build_queries(std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<HashedTerms> queries;
  queries.reserve(count);
  for (std::size_t q = 0; q < count; ++q) {
    std::vector<std::string> terms;
    for (std::size_t t = 0; t < kTermsPerQuery; ++t) {
      terms.push_back(hot_term(rng() % kHotTerms));
    }
    queries.push_back(HashedTerms::from(terms));
  }
  return queries;
}

double now_ns() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count());
}

struct ModeResult {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

ModeResult summarize(std::vector<double>& per_query_ns) {
  ModeResult r;
  double total = 0.0;
  for (double ns : per_query_ns) total += ns;
  r.qps = total > 0.0 ? static_cast<double>(per_query_ns.size()) * 1e9 / total : 0.0;
  std::sort(per_query_ns.begin(), per_query_ns.end());
  const auto at = [&](double q) {
    const std::size_t i = static_cast<std::size_t>(q * static_cast<double>(per_query_ns.size() - 1));
    return per_query_ns[i] / 1e3;
  };
  r.p50_us = at(0.50);
  r.p99_us = at(0.99);
  return r;
}

/// One timed pass: table() builds the IpfTable for query q; the ranked-peer
/// count feeds a sink so nothing is optimized away.
template <typename TableFn>
ModeResult timed_pass(const std::vector<HashedTerms>& queries, TableFn&& table,
                      std::size_t* sink) {
  std::vector<double> per_query_ns;
  per_query_ns.reserve(queries.size());
  for (const HashedTerms& q : queries) {
    const double t0 = now_ns();
    const IpfTable t = table(q);
    *sink += rank_peers(t).size();
    per_query_ns.push_back(now_ns() - t0);
  }
  return summarize(per_query_ns);
}

/// Byte-identity spot check between the cached and uncached paths.
bool tables_identical(const IpfTable& a, const IpfTable& b) {
  if (a.num_peers() != b.num_peers() || a.terms() != b.terms()) return false;
  for (const std::string& t : a.terms()) {
    if (a.weight(t) != b.weight(t)) return false;
    std::vector<std::uint32_t> pa = a.peers_with(t);
    std::vector<std::uint32_t> pb = b.peers_with(t);
    std::sort(pa.begin(), pa.end());
    std::sort(pb.begin(), pb.end());
    if (pa != pb) return false;
  }
  const auto ra = rank_peers(a);
  const auto rb = rank_peers(b);
  if (ra.size() != rb.size()) return false;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    if (ra[i].peer != rb[i].peer || ra[i].rank != rb[i].rank) return false;
  }
  return true;
}

struct SizeResult {
  std::size_t peers = 0;
  std::size_t queries = 0;
  ModeResult uncached, cold, warm;
  double warm_speedup = 0.0;
};

SizeResult run_size(std::size_t peers, std::size_t nqueries) {
  SizeResult out;
  out.peers = peers;
  out.queries = nqueries;

  const std::vector<bloom::BloomFilter> filters = build_population(peers);
  std::vector<PeerFilter> views;
  views.reserve(peers);
  for (std::size_t p = 0; p < peers; ++p) {
    views.push_back({static_cast<std::uint32_t>(p), &filters[p]});
  }
  const std::vector<HashedTerms> queries = build_queries(nqueries, 7 * peers + 1);

  std::size_t sink = 0;
  out.uncached = timed_pass(queries, [&](const HashedTerms& q) { return IpfTable(q, views); },
                            &sink);

  CandidateCache cache;
  for (std::size_t p = 0; p < peers; ++p) {
    // Aliasing shared_ptr: the bench owns the filters and outlives the cache.
    cache.update_peer(static_cast<std::uint32_t>(p),
                      std::shared_ptr<const bloom::BloomFilter>(std::shared_ptr<void>(),
                                                                &filters[p]),
                      1);
  }

  for (std::size_t q = 0; q < std::min<std::size_t>(3, queries.size()); ++q) {
    if (!tables_identical(cache.lookup(queries[q], views), IpfTable(queries[q], views))) {
      std::fprintf(stderr, "FAIL: cached table diverges from uncached at %zu peers\n", peers);
      std::exit(1);
    }
  }
  cache.clear();
  for (std::size_t p = 0; p < peers; ++p) {
    cache.update_peer(static_cast<std::uint32_t>(p),
                      std::shared_ptr<const bloom::BloomFilter>(std::shared_ptr<void>(),
                                                                &filters[p]),
                      1);
  }

  out.cold = timed_pass(queries, [&](const HashedTerms& q) { return cache.lookup(q, views); },
                        &sink);
  out.warm = timed_pass(queries, [&](const HashedTerms& q) { return cache.lookup(q, views); },
                        &sink);
  out.warm_speedup = out.uncached.qps > 0.0 ? out.warm.qps / out.uncached.qps : 0.0;

  std::printf("%5zu peers, %4zu queries:\n", peers, nqueries);
  std::printf("  uncached  %10.0f qps   p50 %8.1f us   p99 %8.1f us\n", out.uncached.qps,
              out.uncached.p50_us, out.uncached.p99_us);
  std::printf("  cold      %10.0f qps   p50 %8.1f us   p99 %8.1f us\n", out.cold.qps,
              out.cold.p50_us, out.cold.p99_us);
  std::printf("  warm      %10.0f qps   p50 %8.1f us   p99 %8.1f us   (%.1fx vs uncached)\n",
              out.warm.qps, out.warm.p50_us, out.warm.p99_us, out.warm_speedup);
  if (sink == 0) std::printf("  (sink empty)\n");
  return out;
}

void append_mode(std::ostringstream& os, const char* name, const ModeResult& m) {
  os << "\"" << name << "\": {\"qps\": " << m.qps << ", \"p50_us\": " << m.p50_us
     << ", \"p99_us\": " << m.p99_us << "}";
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

  const std::size_t nqueries = quick ? 64 : 256;
  std::vector<SizeResult> results;
  results.push_back(run_size(1000, nqueries));
  results.push_back(run_size(5000, nqueries));

  std::ostringstream os;
  os << "{\n  \"bench\": \"search_throughput\",\n  \"quick\": " << (quick ? "true" : "false")
     << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    os << "    {\"peers\": " << r.peers << ", \"queries\": " << r.queries << ", ";
    append_mode(os, "uncached", r.uncached);
    os << ", ";
    append_mode(os, "cold", r.cold);
    os << ", ";
    append_mode(os, "warm", r.warm);
    os << ", \"warm_speedup_vs_uncached\": " << r.warm_speedup << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  for (const SizeResult& r : results) {
    os << "  \"warm_qps_" << r.peers << "\": " << r.warm.qps << ",\n";
  }
  os << "  \"warm_speedup_5000\": " << results.back().warm_speedup << "\n}\n";

  std::ofstream("BENCH_search_throughput.json") << os.str();
  std::printf("wrote BENCH_search_throughput.json\n");

  int rc = 0;
  if (results.back().warm_speedup < 5.0) {
    std::fprintf(stderr, "FAIL: warm cache only %.1fx vs uncached at 5000 peers (need >= 5x)\n",
                 results.back().warm_speedup);
    rc = 1;
  }

  if (!baseline_path.empty()) {
    const std::optional<std::string> loaded = benchutil::read_baseline(baseline_path);
    if (!loaded) return 1;
    const std::string& baseline = *loaded;
    for (const SizeResult& r : results) {
      const std::string key = "warm_qps_" + std::to_string(r.peers);
      const double recorded = benchutil::parse_key(baseline, key);
      if (recorded <= 0.0) continue;
      if (r.warm.qps < recorded / 2.0) {
        std::fprintf(stderr,
                     "FAIL: warm qps at %zu peers regressed: %.0f vs baseline %.0f (>2x drop)\n",
                     r.peers, r.warm.qps, recorded);
        rc = 1;
      } else {
        std::printf("baseline check at %zu peers: %.0f qps vs recorded %.0f — ok\n", r.peers,
                    r.warm.qps, recorded);
      }
    }
  }
  return rc;
}
