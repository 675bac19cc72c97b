/// \file mixed_workload.cpp
/// Snapshot-isolated concurrent query serving under live publishes
/// (docs/INDEX.md "Epochs & concurrent readers"): N reader threads rank
/// TFxIDF queries against DataStore::snapshot() while one writer publishes
/// and removes documents continuously, with the background segment merge
/// folding pending epochs into the compressed base.
///
/// Two phases:
///   identity — a sequential oracle InvertedIndex replays the writer's
///              exact op-log; after EVERY commit the published epoch is
///              ranked against the oracle and must match byte-for-byte
///              (score bits and DocumentId tie-breaks). This is the headline
///              contract of the epoch design, gated, not just reported.
///   timed    — for 1, 2, 4 and 8 reader threads: aggregate queries/sec,
///              p50/p99 query latency, and epochs published by the live
///              writer during the window. Readers rank through the pruned
///              SnapshotRanker path (docs/INDEX.md "Block-max pruning"):
///              the store is warmed past kMinPrunedDocs so the merged base
///              carries block metadata, and per-reader PruneStats are
///              aggregated into the report.
///
/// Emits BENCH_mixed_workload.json. Gates:
///   1. every epoch of the identity phase ranks byte-identically to the
///      sequential oracle;
///   2. reader scaling 1 -> 8 threads, adapted to the host: with >= 8
///      hardware threads the aggregate qps must scale >= 3x; with 2-7 it
///      must reach >= 0.4x per hardware thread; on a single core (where
///      parallel speedup is physically impossible) 8-reader qps must stay
///      >= 0.4x of 1-reader qps — snapshot serving must not collapse under
///      contention;
///   3. the timed phase must actually prune: across all reader
///      configurations, pruned_queries and blocks_skipped must both be
///      nonzero (live publishes must not silently push every query onto the
///      exhaustive fallback);
///   4. with --baseline <json>, 1- and 8-reader qps must stay above half the
///      recorded baseline (scripts/check.sh wires this to
///      bench/baselines/mixed_workload.json).
/// Usage: mixed_workload [--quick] [--baseline <file>]

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/baseline.hpp"
#include "index/data_store.hpp"
#include "index/inverted_index.hpp"
#include "search/ranker.hpp"
#include "text/porter_stemmer.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

using namespace planetp;
using namespace planetp::index;
using planetp::search::ScoredDoc;

namespace {

double wall_now_s() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count()) /
         1e9;
}

// ---------------------------------------------------------------------------
// Synthetic corpus (same shape as index_throughput: Zipf popularity over a
// generated vocabulary).
// ---------------------------------------------------------------------------

std::vector<std::string> make_vocabulary(std::size_t size, Rng& rng) {
  static const char* const kSuffixes[] = {"", "", "", "s", "ing", "ed", "ation", "ly"};
  std::vector<std::string> vocab;
  vocab.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    std::string w;
    const std::size_t stem_len = 4 + rng.below(6);
    for (std::size_t c = 0; c < stem_len; ++c) {
      w.push_back(static_cast<char>('a' + rng.below(26)));
    }
    w += kSuffixes[rng.below(sizeof(kSuffixes) / sizeof(kSuffixes[0]))];
    vocab.push_back(std::move(w));
  }
  return vocab;
}

std::vector<std::string> make_corpus(std::size_t docs, const std::vector<std::string>& vocab,
                                     const ZipfSampler& zipf, Rng& rng) {
  std::vector<std::string> out;
  out.reserve(docs);
  for (std::size_t d = 0; d < docs; ++d) {
    const std::size_t words = 30 + rng.below(70);
    std::string text;
    text.reserve(words * 10);
    for (std::size_t w = 0; w < words; ++w) {
      text += vocab[zipf.sample(rng) - 1];
      text.push_back(' ');
    }
    out.push_back(wrap_text_as_xml("doc" + std::to_string(d), text));
  }
  return out;
}

/// Pre-stemmed query term lists (rankers expect analyzed terms).
std::vector<std::vector<std::string>> make_queries(std::size_t count,
                                                   const std::vector<std::string>& vocab,
                                                   const ZipfSampler& zipf, Rng& rng) {
  std::vector<std::vector<std::string>> out;
  out.reserve(count);
  for (std::size_t q = 0; q < count; ++q) {
    std::vector<std::string> terms;
    const std::size_t n = 2 + rng.below(3);
    for (std::size_t t = 0; t < n; ++t) {
      std::string term = vocab[zipf.sample(rng) - 1];
      text::porter_stem(term);
      terms.push_back(std::move(term));
    }
    out.push_back(std::move(terms));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Identity phase: oracle replay of the writer's op-log, every epoch checked.
// ---------------------------------------------------------------------------

bool rankings_identical(const std::vector<ScoredDoc>& a, const std::vector<ScoredDoc>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc != b[i].doc ||
        std::bit_cast<std::uint64_t>(a[i].score) != std::bit_cast<std::uint64_t>(b[i].score)) {
      return false;
    }
  }
  return true;
}

/// Publish/remove ops against `store` with 8 reader threads live, replaying
/// every op into a sequential oracle and ranking the published epoch against
/// it. Returns the number of mismatched epochs (0 = contract holds).
std::size_t identity_phase(std::size_t num_docs, const std::vector<std::string>& corpus,
                           const std::vector<std::vector<std::string>>& queries) {
  EpochConfig cfg;  // background merges on, small enough to fold many times in-run
  cfg.merge_min_docs = 128;
  cfg.merge_tombstone_threshold = 16;
  DataStore store(1, {}, {}, cfg);
  InvertedIndex oracle;

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < 8; ++r) {
    readers.emplace_back([&store, &queries, &done, r] {
      Rng rng(0xAB5EED00ULL + r);
      while (!done.load(std::memory_order_relaxed)) {
        const auto snap = store.snapshot();
        const auto& q = queries[rng.below(queries.size())];
        (void)search::SnapshotRanker(*snap).top_k(q, 10);
      }
    });
  }

  Rng rng(0x1DE47171ULL);
  std::size_t mismatches = 0;
  std::vector<std::uint32_t> live;
  std::uint64_t epochs = 0;
  for (std::size_t i = 0; i < num_docs; ++i) {
    const std::string& xml = corpus[i % corpus.size()];
    const DocumentId id = store.publish(std::string(xml));
    oracle.add_document(id, store.analyzer().term_frequencies(store.document(id)->text));
    live.push_back(id.local);
    ++epochs;
    if (i % 8 == 7) {
      const std::size_t pick = rng.below(live.size());
      const std::uint32_t victim = live[pick];
      live[pick] = live.back();
      live.pop_back();
      store.unpublish(DocumentId{1, victim});
      oracle.remove_document(DocumentId{1, victim});
      ++epochs;
    }
    // Rank the epoch just published against the oracle — the oracle *is* the
    // "sequential single-threaded index over the same documents".
    const auto snap = store.snapshot();
    const auto& q = queries[i % queries.size()];
    if (!rankings_identical(search::SnapshotRanker(*snap).top_k(q, 10),
                            search::TfIdfRanker(oracle).top_k(q, 10))) {
      ++mismatches;
      std::fprintf(stderr, "  epoch %llu diverged from the sequential oracle\n",
                   static_cast<unsigned long long>(snap->epoch()));
    }
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  store.epochs().wait_for_merges();

  const EpochStats stats = store.epochs().stats();
  std::printf(
      "identity phase: %llu epochs checked against the oracle under 8 live readers — %zu "
      "mismatches (%llu coalesces, %llu merges)\n",
      static_cast<unsigned long long>(epochs), mismatches,
      static_cast<unsigned long long>(stats.coalesces),
      static_cast<unsigned long long>(stats.merges_completed));
  return mismatches;
}

// ---------------------------------------------------------------------------
// Timed phase: N readers + 1 live writer.
// ---------------------------------------------------------------------------

struct MixedResult {
  std::size_t readers = 0;
  double wall_s = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t epochs = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  search::PruneStats prune;  ///< aggregated across the reader threads

  double qps() const { return wall_s > 0.0 ? static_cast<double>(queries) / wall_s : 0.0; }
  double eps() const { return wall_s > 0.0 ? static_cast<double>(epochs) / wall_s : 0.0; }
};

double percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const std::size_t at = static_cast<std::size_t>(p * static_cast<double>(sorted_us.size() - 1));
  return sorted_us[at];
}

MixedResult run_mixed(std::size_t num_readers, double seconds,
                      const std::vector<std::string>& corpus,
                      const std::vector<std::vector<std::string>>& queries) {
  EpochConfig cfg;
  cfg.merge_min_docs = 256;
  cfg.merge_tombstone_threshold = 64;
  DataStore store(1, {}, {}, cfg);
  // Warm store: a base worth of documents before the clock starts. Sized
  // past the ranker's kMinPrunedDocs floor so the merged base qualifies for
  // the pruned scan — the point of the timed phase is the pruned reader
  // path racing live publishes, not the exhaustive fallback.
  for (std::size_t i = 0; i < 1400; ++i) store.publish(std::string(corpus[i % corpus.size()]));
  store.epochs().wait_for_merges();

  std::atomic<bool> done{false};
  std::vector<std::vector<double>> latencies(num_readers);
  std::vector<std::uint64_t> counts(num_readers, 0);
  std::vector<search::PruneStats> reader_stats(num_readers);

  const std::uint64_t epochs0 = store.epochs().stats().epochs_published;
  const double t0 = wall_now_s();

  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < num_readers; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(0xFEED0000ULL + r);
      std::vector<double>& lat = latencies[r];
      lat.reserve(1 << 16);
      search::PruneStats& ps = reader_stats[r];
      while (!done.load(std::memory_order_relaxed)) {
        const auto& q = queries[rng.below(queries.size())];
        const double s = wall_now_s();
        const auto snap = store.snapshot();
        const auto top = search::SnapshotRanker(*snap).top_k(q, 10, &ps);
        lat.push_back((wall_now_s() - s) * 1e6);
        (void)top;
        ++counts[r];
      }
    });
  }

  // The live writer: publish continuously, removing an old document every
  // few publishes to keep the store bounded and tombstones flowing.
  std::thread writer([&] {
    Rng rng(0x57A7E000ULL);
    std::vector<std::uint32_t> live;
    for (const DocumentId d : store.documents()) live.push_back(d.local);
    std::size_t i = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const DocumentId id = store.publish(std::string(corpus[i % corpus.size()]));
      live.push_back(id.local);
      if (live.size() > 900) {
        const std::size_t pick = rng.below(live.size());
        store.unpublish(DocumentId{1, live[pick]});
        live[pick] = live.back();
        live.pop_back();
      }
      ++i;
    }
  });

  while (wall_now_s() - t0 < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  writer.join();

  MixedResult out;
  out.readers = num_readers;
  out.wall_s = wall_now_s() - t0;
  out.epochs = store.epochs().stats().epochs_published - epochs0;
  std::vector<double> all;
  for (std::size_t r = 0; r < num_readers; ++r) {
    out.queries += counts[r];
    out.prune += reader_stats[r];
    all.insert(all.end(), latencies[r].begin(), latencies[r].end());
  }
  std::sort(all.begin(), all.end());
  out.p50_us = percentile(all, 0.50);
  out.p99_us = percentile(all, 0.99);
  std::printf(
      "  %zu reader%s + 1 writer: %8.0f qps   p50 %7.1f us   p99 %8.1f us   %6.0f epochs/s   "
      "(%llu pruned, %llu fallbacks, %llu blocks skipped)\n",
      num_readers, num_readers == 1 ? " " : "s", out.qps(), out.p50_us, out.p99_us, out.eps(),
      static_cast<unsigned long long>(out.prune.pruned_queries),
      static_cast<unsigned long long>(out.prune.prune_fallbacks),
      static_cast<unsigned long long>(out.prune.blocks_skipped));
  return out;
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

  Rng rng(20260808);
  const std::size_t vocab_size = 8000;
  const std::vector<std::string> vocab = make_vocabulary(vocab_size, rng);
  const ZipfSampler zipf(vocab_size, 1.05);
  const std::vector<std::string> corpus = make_corpus(1200, vocab, zipf, rng);
  const auto queries = make_queries(400, vocab, zipf, rng);

  const std::size_t identity_docs = quick ? 300 : 800;
  const std::size_t identity_mismatches = identity_phase(identity_docs, corpus, queries);

  const double window_s = quick ? 0.4 : 1.2;
  std::printf("timed phase (%.1f s per configuration):\n", window_s);
  std::vector<MixedResult> results;
  for (const std::size_t n : {1u, 2u, 4u, 8u}) {
    results.push_back(run_mixed(n, window_s, corpus, queries));
  }
  const MixedResult& r1 = results.front();
  const MixedResult& r8 = results.back();
  const double scaling = r1.qps() > 0.0 ? r8.qps() / r1.qps() : 0.0;

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  // Hardware-adaptive scaling gate: parallel speedup needs parallel
  // hardware. With one core the readers timeslice it, so the gate degrades
  // to an anti-collapse check (same policy as index_throughput's pooled
  // publish, which reports worker count for the same reason).
  double required = 0.4;
  const char* regime = "single core: anti-collapse only";
  if (hw >= 8) {
    required = 3.0;
    regime = ">=8 hardware threads: full 3x gate";
  } else if (hw >= 2) {
    required = 0.4 * static_cast<double>(hw);
    regime = "2-7 hardware threads: 0.4x per thread";
  }
  std::printf("scaling 1 -> 8 readers: %.2fx (hw threads %u, %s, need >= %.2fx)\n", scaling, hw,
              regime, required);

  std::ostringstream os;
  os << "{\n  \"bench\": \"mixed_workload\",\n  \"quick\": " << (quick ? "true" : "false")
     << ",\n  \"hardware_threads\": " << hw
     << ",\n  \"identity_epochs_checked\": " << (identity_docs + identity_docs / 8)
     << ",\n  \"identity_mismatches\": " << identity_mismatches << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const MixedResult& r = results[i];
    os << "    {\"readers\": " << r.readers << ", \"wall_s\": " << r.wall_s
       << ", \"queries\": " << r.queries << ", \"qps\": " << r.qps()
       << ", \"p50_us\": " << r.p50_us << ", \"p99_us\": " << r.p99_us
       << ", \"epochs\": " << r.epochs << ", \"epochs_per_sec\": " << r.eps()
       << ", \"pruned_queries\": " << r.prune.pruned_queries
       << ", \"prune_fallbacks\": " << r.prune.prune_fallbacks
       << ", \"blocks_skipped\": " << r.prune.blocks_skipped << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  for (const MixedResult& r : results) {
    os << "  \"reader_qps_" << r.readers << "\": " << r.qps() << ",\n";
  }
  search::PruneStats prune_total;
  for (const MixedResult& r : results) prune_total += r.prune;
  os << "  \"pruned_queries_total\": " << prune_total.pruned_queries
     << ",\n  \"blocks_skipped_total\": " << prune_total.blocks_skipped << ",\n";
  os << "  \"writer_epochs_per_sec_8\": " << r8.eps() << ",\n  \"scaling_1_to_8\": " << scaling
     << "\n}\n";

  std::ofstream("BENCH_mixed_workload.json") << os.str();
  std::printf("wrote BENCH_mixed_workload.json\n");

  int rc = 0;
  if (identity_mismatches != 0) {
    std::fprintf(stderr, "FAIL: %zu epochs ranked differently from the sequential oracle\n",
                 identity_mismatches);
    rc = 1;
  }
  if (scaling < required) {
    std::fprintf(stderr, "FAIL: 1 -> 8 reader scaling %.2fx below the %.2fx gate (%s)\n",
                 scaling, required, regime);
    rc = 1;
  }
  if (prune_total.pruned_queries == 0 || prune_total.blocks_skipped == 0) {
    std::fprintf(stderr,
                 "FAIL: timed-phase readers never pruned (%llu pruned queries, %llu blocks "
                 "skipped) — every query fell back to the exhaustive scan\n",
                 static_cast<unsigned long long>(prune_total.pruned_queries),
                 static_cast<unsigned long long>(prune_total.blocks_skipped));
    rc = 1;
  }

  if (!baseline_path.empty()) {
    const std::optional<std::string> loaded = benchutil::read_baseline(baseline_path);
    if (!loaded) return 1;
    const std::string& baseline = *loaded;
    const struct {
      const char* what;
      const char* key;
      double measured;
    } checks[] = {
        {"1-reader qps", "reader_qps_1", r1.qps()},
        {"8-reader qps", "reader_qps_8", r8.qps()},
    };
    for (const auto& c : checks) {
      const double recorded = benchutil::parse_key(baseline, c.key);
      if (recorded <= 0.0) continue;
      if (c.measured < recorded / 2.0) {
        std::fprintf(stderr, "FAIL: %s regressed: %.0f vs baseline %.0f (>2x drop)\n", c.what,
                     c.measured, recorded);
        rc = 1;
      } else {
        std::printf("baseline check %s: %.0f vs recorded %.0f — ok\n", c.what, c.measured,
                    recorded);
      }
    }
  }
  return rc;
}
