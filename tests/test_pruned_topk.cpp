#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "index/compressed_postings.hpp"
#include "index/data_store.hpp"
#include "search/ranker.hpp"
#include "search/vector_model.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

/// Rank-safety property tests for the block-max pruned top-k driver
/// (docs/INDEX.md "Block-max pruning"), reached through SnapshotRanker and,
/// with shipped weights, through search::top_k. The
/// contract under test: for every k, the pruned result is byte-identical —
/// same documents, same score BITS, same tie-breaks — to exhaustive scoring,
/// both over a fully compacted base (against CompressedIndex::score and
/// against TfIdfRanker over an InvertedIndex of the same documents) and over
/// live epochs with tombstones and unmerged segments. The large cases also
/// pin blocks_skipped > 0 so the pruning provably fired.

using namespace planetp;
using namespace planetp::index;
using namespace planetp::search;

namespace {

constexpr std::size_t kInf = std::numeric_limits<std::size_t>::max();

using Freqs = std::unordered_map<std::string, std::uint32_t>;

void expect_bit_identical(const std::vector<ScoredDoc>& got,
                          const std::vector<ScoredDoc>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].doc, want[i].doc) << what << " rank " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].score),
              std::bit_cast<std::uint64_t>(want[i].score))
        << what << " rank " << i << ": " << got[i].score << " vs " << want[i].score;
  }
}

/// Inline merges that never trigger on their own: the one fold is compact().
EpochConfig compact_only() {
  EpochConfig cfg;
  cfg.background_merge = false;
  cfg.merge_min_docs = std::numeric_limits<std::size_t>::max();
  return cfg;
}

/// Zipf-distributed corpus over vocabulary "w1".."w<vocab>": realistic
/// skew — a few very long posting lists (many blocks) and a long tail.
/// The same documents land in an InvertedIndex (the exhaustive reference)
/// and in an EpochIndex compacted into one block-structured base.
struct ZipfCorpus {
  InvertedIndex idx;
  EpochIndex epochs{compact_only()};
};

void fill_zipf(ZipfCorpus& c, Rng& rng, std::uint32_t ndocs, std::size_t vocab,
               std::size_t words_per_doc) {
  const ZipfSampler zipf(vocab, 1.1);
  TermDictionary dict;
  TermCounts counts;
  for (std::uint32_t d = 0; d < ndocs; ++d) {
    Freqs freqs;
    for (std::size_t w = 0; w < words_per_doc; ++w) {
      ++freqs["w" + std::to_string(zipf.sample(rng))];
    }
    const DocumentId id{d % 5, d};
    c.idx.add_document(id, freqs);
    counts.clear();
    for (const auto& [term, freq] : freqs) counts.add(dict.intern(term), freq);
    c.epochs.commit_publish(id, dict, counts);
  }
  c.epochs.compact();
}

/// A query of \p nterms Zipf-drawn terms (duplicates collapse, so short
/// queries with popular terms are common — the pruning-friendly case).
std::vector<std::string> zipf_query(Rng& rng, const ZipfSampler& zipf, std::size_t nterms) {
  std::vector<std::string> terms;
  for (std::size_t t = 0; t < nterms; ++t) {
    terms.push_back("w" + std::to_string(zipf.sample(rng)));
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  return terms;
}

/// The exhaustive reference: full scoring of a compacted base + truncate.
/// SnapshotRanker is pinned byte-identical to this for every k.
std::vector<ScoredDoc> exhaustive_ref(const CompressedIndex& ci,
                                      const std::unordered_map<std::string, double>& weights,
                                      std::size_t k) {
  std::vector<ScoredDoc> out;
  for (const auto& [doc, score] : ci.score(weights)) out.push_back(ScoredDoc{doc, score});
  truncate_top_k(out, k);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Compacted base: SnapshotRanker vs CompressedIndex::score and TfIdfRanker
// ---------------------------------------------------------------------------

TEST(PrunedTopK, CompressedTopKBitIdenticalToExhaustive) {
  Rng rng(0xB10C);
  ZipfCorpus c;
  fill_zipf(c, rng, 6000, 800, 25);
  const auto snap = c.epochs.snapshot();
  ASSERT_NE(snap->base(), nullptr);
  const CompressedIndex& base = *snap->base();
  const SnapshotRanker ranker(*snap);
  const TfIdfRanker plain(c.idx);
  const ZipfSampler zipf(800, 1.1);

  PruneStats stats;
  for (int q = 0; q < 30; ++q) {
    // Mix short head-heavy queries (2-4 terms) and long ones (6-10 terms).
    const std::size_t nterms = q % 2 == 0 ? 2 + rng.below(3) : 6 + rng.below(5);
    const auto terms = zipf_query(rng, zipf, nterms);
    const auto weights = ranker.idf_weights(terms);
    for (const std::size_t k : {std::size_t{1}, std::size_t{10}, std::size_t{100}, kInf}) {
      const auto got = ranker.top_k(terms, k, &stats);
      expect_bit_identical(got, exhaustive_ref(base, weights, k),
                           "SnapshotRanker vs CompressedIndex::score");
      expect_bit_identical(got, plain.top_k(terms, k), "SnapshotRanker vs TfIdfRanker");
    }
  }
  // The large corpus + small k cases must actually skip blocks; k = inf must
  // fall back. Both paths were exercised.
  EXPECT_GT(stats.pruned_queries, 0u);
  EXPECT_GT(stats.prune_fallbacks, 0u);
  EXPECT_GT(stats.blocks_skipped, 0u);
  EXPECT_GT(stats.docs_evaluated, 0u);
}

TEST(PrunedTopK, CompressedTopKEdgeCases) {
  Rng rng(0xED6E);
  ZipfCorpus c;
  fill_zipf(c, rng, 300, 50, 8);
  const auto snap = c.epochs.snapshot();
  const SnapshotRanker ranker(*snap);

  // k = 0 returns nothing; absent and repeated terms are ignored.
  const std::vector<std::string> terms{"w1", "absent", "w2", "w1"};
  EXPECT_TRUE(ranker.top_k(terms, 0).empty());
  expect_bit_identical(ranker.top_k(terms, 5),
                       exhaustive_ref(*snap->base(), ranker.idf_weights(terms), 5),
                       "absent+repeated terms");
  expect_bit_identical(ranker.top_k(terms, 5), TfIdfRanker(c.idx).top_k(terms, 5),
                       "absent+repeated terms vs TfIdfRanker");

  // Query matching nothing at all.
  EXPECT_TRUE(ranker.top_k({"nope"}, 10).empty());

  // Empty store, before and after compaction.
  EpochIndex empty;
  EXPECT_TRUE(SnapshotRanker(*empty.snapshot()).top_k(terms, 10).empty());
  empty.compact();
  EXPECT_TRUE(SnapshotRanker(*empty.snapshot()).top_k(terms, 10).empty());
}

TEST(PrunedTopK, SnapshotRankerBitIdenticalToTfIdfRanker) {
  Rng rng(0xACCE1);
  ZipfCorpus c;
  fill_zipf(c, rng, 5000, 600, 20);
  const auto snap = c.epochs.snapshot();
  const ZipfSampler zipf(600, 1.1);

  const TfIdfRanker plain(c.idx);
  const SnapshotRanker pruned(*snap);

  PruneStats stats;
  for (int q = 0; q < 25; ++q) {
    auto terms = zipf_query(rng, zipf, 2 + rng.below(8));
    if (q % 5 == 0) terms.push_back("not-in-corpus");  // absent terms mid-query
    for (const std::size_t k : {std::size_t{1}, std::size_t{10}, std::size_t{100}, kInf}) {
      expect_bit_identical(pruned.top_k(terms, k, &stats), plain.top_k(terms, k),
                           "SnapshotRanker vs TfIdfRanker");
    }
    expect_bit_identical(score_snapshot(*snap, pruned.idf_weights(terms)),
                         score_documents(c.idx, plain.idf_weights(terms)), "score_snapshot");
  }
  EXPECT_GT(stats.pruned_queries, 0u);
  EXPECT_GT(stats.blocks_skipped, 0u);
}

// ---------------------------------------------------------------------------
// Live epochs: pending segments and tombstones over a pruned base
// ---------------------------------------------------------------------------

namespace {

/// Deterministic pseudo-word vocabulary that survives the analyzer (no
/// stopwords, no digits): syllable pairs like "kazo", "lumi", ...
std::vector<std::string> make_vocab(std::size_t n) {
  static const char* kSyl[] = {"ka", "lo", "mi", "zu", "ver", "tan", "pel", "dro",
                               "sia", "nor", "gat", "bex", "qui", "fam", "ryn", "tol"};
  constexpr std::size_t kSylCount = sizeof(kSyl) / sizeof(kSyl[0]);
  std::vector<std::string> vocab;
  vocab.reserve(n);
  for (std::size_t i = 0; vocab.size() < n; ++i) {
    std::string w = std::string(kSyl[i % kSylCount]) + kSyl[(i / kSylCount) % kSylCount] +
                    kSyl[(i / (kSylCount * kSylCount)) % kSylCount];
    vocab.push_back(std::move(w));
  }
  return vocab;
}

std::string zipf_body(Rng& rng, const ZipfSampler& zipf,
                      const std::vector<std::string>& vocab, std::size_t words) {
  std::string body;
  for (std::size_t w = 0; w < words; ++w) {
    if (w != 0) body += ' ';
    body += vocab[zipf.sample(rng) - 1];
  }
  return body;
}

/// Byte-identity of the pruned snapshot top-k against full snapshot scoring,
/// for two inputs per query: the snapshot's IDF weights through
/// SnapshotRanker (the §7.3 baseline's entry point), and shipped positive
/// weights unrelated to IDF — as a searcher's IPF weights are — through
/// top_k (every peer contact's entry point), counted in \p shipped_stats.
void verify_snapshot_pruned(const DataStore& store, Rng& rng, const ZipfSampler& zipf,
                            const std::vector<std::string>& vocab, PruneStats& stats,
                            PruneStats& shipped_stats) {
  const auto snap = store.snapshot();
  const SnapshotRanker ranker(*snap);
  for (int q = 0; q < 6; ++q) {
    std::string query = vocab[zipf.sample(rng) - 1];
    const std::size_t extra = rng.below(6);
    for (std::size_t t = 0; t < extra; ++t) query += ' ' + vocab[zipf.sample(rng) - 1];
    const auto analyzed = store.analyzer().analyze(query);
    const std::vector<std::string> terms(analyzed.begin(), analyzed.end());

    const auto weights = ranker.idf_weights(terms);
    auto full = score_snapshot(*snap, weights);
    for (const std::size_t k : {std::size_t{1}, std::size_t{10}, std::size_t{100}, kInf}) {
      auto want = full;
      truncate_top_k(want, k);
      expect_bit_identical(ranker.top_k(terms, k, &stats), want, "SnapshotRanker");
    }

    // Own stream, so the store's publish/removal draws stay as they were.
    Rng wrng(0x1F00 + static_cast<std::uint64_t>(q) * 7919 + snap->epoch());
    std::unordered_map<std::string, double> shipped;
    for (const std::string& t : terms) shipped[t] = 0.05 + 3.0 * wrng.uniform();
    const auto shipped_full = score_snapshot(*snap, shipped);
    for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{10},
                                std::size_t{100}, snap->num_documents()}) {
      auto want = shipped_full;
      truncate_top_k(want, k);
      expect_bit_identical(top_k(*snap, shipped, k, &shipped_stats), want, "top_k shipped");
    }
  }
}

}  // namespace

TEST(PrunedTopK, SnapshotRankerLiveEpochsBitIdentical) {
  // Inline merges so the structural regimes are deterministic. The snapshot
  // crosses: no base at all (fallback), a freshly compacted block-structured
  // base (pruned), then pending segments + tombstones over that base —
  // publishes and removals mid-stream between every verification.
  EpochConfig cfg;
  cfg.background_merge = false;
  DataStore store(3, {}, {}, cfg);

  Rng rng(0x5EED);
  const std::vector<std::string> vocab = make_vocab(300);
  const ZipfSampler zipf(300, 1.1);

  PruneStats stats;
  PruneStats shipped;
  std::vector<DocumentId> live;

  // Phase 1: small store, no compacted base yet — everything falls back.
  for (int d = 0; d < 60; ++d) {
    live.push_back(store.publish_text(vocab[d % vocab.size()], zipf_body(rng, zipf, vocab, 20)));
  }
  verify_snapshot_pruned(store, rng, zipf, vocab, stats, shipped);

  // Phase 2: grow to a corpus whose hot posting lists span many blocks,
  // then compact so the published base carries skip metadata everywhere.
  for (int d = 0; d < 2500; ++d) {
    live.push_back(store.publish_text(vocab[d % vocab.size()], zipf_body(rng, zipf, vocab, 30)));
  }
  store.compact();
  verify_snapshot_pruned(store, rng, zipf, vocab, stats, shipped);
  const std::uint64_t skipped_after_compact = stats.blocks_skipped;
  EXPECT_GT(skipped_after_compact, 0u);  // large case: pruning provably fired

  // Phase 3: removals over the base (tombstones the pruned scan must honor
  // per candidate) plus fresh publishes (unmerged segments seeded exactly).
  for (int step = 0; step < 200; ++step) {
    if (step % 3 != 0 && !live.empty()) {
      const std::size_t victim = rng.below(live.size());
      ASSERT_TRUE(store.unpublish(live[victim]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      live.push_back(store.publish_text(vocab[rng.below(vocab.size())],
                                        zipf_body(rng, zipf, vocab, 25)));
    }
  }
  verify_snapshot_pruned(store, rng, zipf, vocab, stats, shipped);
  EXPECT_GT(stats.blocks_skipped, skipped_after_compact);
  EXPECT_GT(stats.pruned_queries, 0u);
  EXPECT_GT(stats.prune_fallbacks, 0u);  // phase 1 + k = inf queries
  // The shipped weights took both paths of the same driver too.
  EXPECT_GT(shipped.pruned_queries, 0u);
  EXPECT_GT(shipped.blocks_skipped, 0u);
  EXPECT_GT(shipped.prune_fallbacks, 0u);
}

// ---------------------------------------------------------------------------
// Concurrency: readers prune while the writer publishes (TSan-targeted; the
// name is matched by scripts/check.sh's race-test regex)
// ---------------------------------------------------------------------------

TEST(PrunedTopK, ConcurrentPrunedReadersWhileWriterMutates) {
  DataStore store(9);  // default config: background merges on
  Rng setup_rng(0xC0CC);
  const std::vector<std::string> vocab = make_vocab(200);
  const ZipfSampler zipf(200, 1.1);

  std::vector<DocumentId> initial;
  for (int d = 0; d < 1200; ++d) {
    initial.push_back(store.publish_text(vocab[d % vocab.size()],
                                         zipf_body(setup_rng, zipf, vocab, 25)));
  }
  store.compact();  // block-structured base for the readers to prune against

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total_skipped{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&store, &stop, &total_skipped, &vocab, r] {
      Rng rng(0xF00D + static_cast<std::uint64_t>(r));
      const ZipfSampler qzipf(200, 1.1);
      PruneStats stats;
      while (!stop.load(std::memory_order_relaxed)) {
        std::string query = vocab[qzipf.sample(rng) - 1];
        const std::size_t extra = rng.below(4);
        for (std::size_t t = 0; t < extra; ++t) query += ' ' + vocab[qzipf.sample(rng) - 1];
        const auto snap = store.snapshot();
        const SnapshotRanker ranker(*snap);
        const auto analyzed = store.analyzer().analyze(query);
        const std::vector<std::string> terms(analyzed.begin(), analyzed.end());
        const auto ranked = ranker.top_k(terms, 10, &stats);
        // Local invariant (full identity is pinned by the tests above; here
        // the point is racing the pruned read path against the writer).
        for (std::size_t i = 1; i < ranked.size(); ++i) {
          ASSERT_TRUE(ranks_before(ranked[i - 1], ranked[i]));
        }
      }
      total_skipped.fetch_add(stats.blocks_skipped, std::memory_order_relaxed);
    });
  }

  Rng wrng(0xDEAD);
  std::vector<DocumentId> live = initial;
  for (int step = 0; step < 250; ++step) {
    if (step % 4 == 0 && !live.empty()) {
      const std::size_t victim = wrng.below(live.size());
      store.unpublish(live[victim]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      live.push_back(store.publish_text(vocab[wrng.below(vocab.size())],
                                        zipf_body(wrng, zipf, vocab, 20)));
    }
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(total_skipped.load(), 0u);  // readers really pruned while racing
}
