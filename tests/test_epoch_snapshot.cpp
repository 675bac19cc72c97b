#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "index/data_store.hpp"
#include "search/ranker.hpp"

using namespace planetp;
using namespace planetp::index;
using namespace planetp::search;

namespace {

constexpr std::uint32_t kPeer = 7;

/// Small vocabulary so postings overlap heavily and removals shift IDF
/// inputs for live queries.
const char* kVocab[] = {"gossip", "bloom", "filter", "peer",   "index",  "query",
                        "rank",   "epoch", "merge",  "planet", "search", "term"};
constexpr std::size_t kVocabSize = sizeof(kVocab) / sizeof(kVocab[0]);

std::string make_body(std::mt19937_64& rng, std::size_t words) {
  std::string body;
  for (std::size_t w = 0; w < words; ++w) {
    if (w != 0) body += ' ';
    body += kVocab[rng() % kVocabSize];
  }
  return body;
}

/// Analyzed (stemmed) query terms, exactly what the rankers expect.
std::vector<std::string> analyzed(const DataStore& store, std::string_view query) {
  const auto terms = store.analyzer().analyze(query);
  return {terms.begin(), terms.end()};
}

/// Byte-identity check: same documents, same score BITS, same order.
void expect_identical_ranking(const std::vector<ScoredDoc>& snapshot_ranked,
                              const std::vector<ScoredDoc>& oracle_ranked) {
  ASSERT_EQ(snapshot_ranked.size(), oracle_ranked.size());
  for (std::size_t i = 0; i < snapshot_ranked.size(); ++i) {
    EXPECT_EQ(snapshot_ranked[i].doc, oracle_ranked[i].doc) << "rank position " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(snapshot_ranked[i].score),
              std::bit_cast<std::uint64_t>(oracle_ranked[i].score))
        << "rank position " << i << ": " << snapshot_ranked[i].score << " vs "
        << oracle_ranked[i].score;
  }
}

/// Index one document into the oracle exactly as its text analyzes.
void add_to_oracle(InvertedIndex& oracle, const DataStore& store, DocumentId id,
                   const std::string& xml) {
  oracle.add_document(id, store.analyzer().term_frequencies(make_document(id, xml).text));
}

/// The sequential single-threaded oracle: an InvertedIndex holding exactly
/// the live documents, analyzed with the store's analyzer. The headline
/// contract says every published epoch must rank byte-identically to it.
InvertedIndex make_oracle(const DataStore& store,
                          const std::unordered_map<std::uint32_t, std::string>& live_docs) {
  InvertedIndex oracle;
  // Ascending local id: any order gives identical scores (per-document sums
  // accumulate in lexicographic term order on every path), but a fixed one
  // keeps the oracle itself deterministic.
  std::vector<std::uint32_t> ids;
  ids.reserve(live_docs.size());
  for (const auto& [local, xml] : live_docs) ids.push_back(local);
  std::sort(ids.begin(), ids.end());
  for (const std::uint32_t local : ids) {
    add_to_oracle(oracle, store, DocumentId{kPeer, local}, live_docs.at(local));
  }
  return oracle;
}

void verify_epoch_against_oracle(const DataStore& store,
                                 const std::unordered_map<std::uint32_t, std::string>& live_docs,
                                 std::mt19937_64& rng) {
  const auto snap = store.snapshot();
  const InvertedIndex oracle = make_oracle(store, live_docs);
  ASSERT_EQ(snap->num_documents(), oracle.num_documents());

  // A handful of random queries per verification, mixing 1-3 vocabulary
  // terms, ranked both top-k and full.
  for (int q = 0; q < 4; ++q) {
    std::string query(kVocab[rng() % kVocabSize]);
    if (rng() % 2 == 0) query += std::string(" ") + kVocab[rng() % kVocabSize];
    if (rng() % 3 == 0) query += std::string(" ") + kVocab[rng() % kVocabSize];
    const std::vector<std::string> terms = analyzed(store, query);
    const std::size_t k = 1 + rng() % 8;

    const SnapshotRanker snap_ranker(*snap);
    const TfIdfRanker oracle_ranker(oracle);
    expect_identical_ranking(snap_ranker.top_k(terms, k), oracle_ranker.top_k(terms, k));

    // Full scoring with the oracle's own IDF weights must agree bitwise too
    // (the snapshot's exact statistics are what makes the weights equal).
    const auto weights = oracle_ranker.idf_weights(terms);
    const auto snap_weights = snap_ranker.idf_weights(terms);
    ASSERT_EQ(weights.size(), snap_weights.size());
    for (const auto& [term, w] : weights) {
      auto it = snap_weights.find(term);
      ASSERT_NE(it, snap_weights.end()) << term;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(w), std::bit_cast<std::uint64_t>(it->second))
          << term;
    }
    expect_identical_ranking(score_snapshot(*snap, weights),
                             score_documents(oracle, weights));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Randomized interleavings vs. the sequential oracle
// ---------------------------------------------------------------------------

TEST(EpochSnapshot, RandomizedOpsMatchSequentialOracle) {
  // Inline merges with tiny thresholds: every structural regime — fresh
  // level-0 segments, coalesced tiers, merged bases, pending tombstones over
  // each — is crossed many times in one run.
  EpochConfig cfg;
  cfg.background_merge = false;
  cfg.coalesce_fanin = 3;
  cfg.merge_min_docs = 16;
  cfg.merge_base_fraction = 0.5;
  cfg.merge_tombstone_threshold = 5;
  DataStore store(kPeer, {}, {}, cfg);

  std::mt19937_64 rng(0xEA0C5EEDULL);
  std::unordered_map<std::uint32_t, std::string> live_docs;  // local id -> xml

  for (int step = 0; step < 120; ++step) {
    const std::uint64_t op = rng() % 10;
    if (op < 5 || live_docs.empty()) {
      // publish one document
      const std::string xml =
          wrap_text_as_xml("doc" + std::to_string(step), make_body(rng, 4 + rng() % 12));
      const DocumentId id = store.publish(std::string(xml));
      live_docs[id.local] = xml;
    } else if (op < 7) {
      // publish a small run of documents back to back
      const std::size_t n = 2 + rng() % 3;
      for (std::size_t i = 0; i < n; ++i) {
        const std::string xml =
            wrap_text_as_xml("batch" + std::to_string(step) + "_" + std::to_string(i),
                             make_body(rng, 4 + rng() % 12));
        live_docs[store.publish(std::string(xml)).local] = xml;
      }
    } else {
      // remove a random live document
      std::vector<std::uint32_t> ids;
      ids.reserve(live_docs.size());
      for (const auto& [local, xml] : live_docs) ids.push_back(local);
      const std::uint32_t victim = ids[rng() % ids.size()];
      ASSERT_TRUE(store.unpublish(DocumentId{kPeer, victim}));
      live_docs.erase(victim);
    }
    if (step % 3 == 0) {
      verify_epoch_against_oracle(store, live_docs, rng);
    }
  }
  verify_epoch_against_oracle(store, live_docs, rng);

  // The run must actually have exercised the folding machinery.
  const EpochStats stats = store.epochs().stats();
  EXPECT_GT(stats.coalesces, 0u);
  EXPECT_GT(stats.merges_completed, 0u);
  EXPECT_GT(stats.tombstones_created, 0u);
}

// ---------------------------------------------------------------------------
// Deterministic counter pins
// ---------------------------------------------------------------------------

TEST(EpochSnapshot, EpochAndMergeCountersPinned) {
  EpochConfig cfg;
  cfg.background_merge = false;
  cfg.coalesce_fanin = 2;
  cfg.merge_min_docs = 4;
  cfg.merge_base_fraction = 0.5;
  cfg.merge_tombstone_threshold = 100;
  DataStore store(kPeer, {}, {}, cfg);

  // One epoch per commit, starting from the empty epoch 0.
  EXPECT_EQ(store.snapshot()->epoch(), 0u);
  std::vector<DocumentId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(store.publish_text("t" + std::to_string(i), "alpha beta gamma"));
    EXPECT_EQ(store.snapshot()->epoch(), static_cast<std::uint64_t>(i + 1));
  }

  // fanin=2 folds like a binary counter: publishes 2 and 4 coalesce (4 twice:
  // L0+L0 -> L1, then L1+L1 -> L2), and publish 4 reaches merge_min_docs.
  EpochStats stats = store.epochs().stats();
  EXPECT_EQ(stats.epochs_published, 4u);
  EXPECT_EQ(stats.segments_created, 4u);
  EXPECT_EQ(stats.coalesces, 3u);
  EXPECT_EQ(stats.merges_completed, 1u);
  EXPECT_EQ(stats.segments_merged, 1u);  // the single fully coalesced L2 segment
  EXPECT_EQ(stats.docs_merged, 4u);
  EXPECT_EQ(stats.tombstones_created, 0u);

  auto snap = store.snapshot();
  EXPECT_EQ(snap->segment_count(), 0u);  // everything folded into the base
  EXPECT_EQ(snap->tombstone_count(), 0u);
  ASSERT_NE(snap->base(), nullptr);
  EXPECT_EQ(snap->base()->num_documents(), 4u);

  // A removal is one epoch and one pending tombstone; with no pending docs
  // it must not trigger a merge.
  ASSERT_TRUE(store.unpublish(ids[1]));
  stats = store.epochs().stats();
  EXPECT_EQ(stats.epochs_published, 5u);
  EXPECT_EQ(stats.tombstones_created, 1u);
  EXPECT_EQ(stats.merges_completed, 1u);
  snap = store.snapshot();
  EXPECT_EQ(snap->epoch(), 5u);
  EXPECT_EQ(snap->num_documents(), 3u);
  EXPECT_EQ(snap->tombstone_count(), 1u);

  // The next merge consumes the tombstone and drops the dead postings.
  for (int i = 0; i < 4; ++i) store.publish_text("u" + std::to_string(i), "delta alpha");
  stats = store.epochs().stats();
  EXPECT_EQ(stats.merges_completed, 2u);
  EXPECT_EQ(stats.tombstones_merged, 1u);
  snap = store.snapshot();
  EXPECT_EQ(snap->tombstone_count(), 0u);
  EXPECT_EQ(snap->num_documents(), 7u);
  ASSERT_NE(snap->base(), nullptr);
  EXPECT_EQ(snap->base()->num_documents(), 7u);
}

// ---------------------------------------------------------------------------
// Removal visibility: the latent-bug regression
// ---------------------------------------------------------------------------

TEST(EpochSnapshot, ReaderHoldingOldSnapshotStillScoresRemovedDocument) {
  DataStore store(kPeer);
  const DocumentId kept = store.publish_text("kept", "alpha beta alpha");
  const DocumentId removed = store.publish_text("removed", "alpha gamma");

  const auto before = store.snapshot();
  const std::vector<std::string> terms = analyzed(store, "alpha");
  const auto ranked_before = SnapshotRanker(*before).top_k(terms, 10);
  ASSERT_EQ(ranked_before.size(), 2u);

  // The removal must not be visible mid-epoch: a reader that pinned the old
  // snapshot keeps scoring the removed document, bit-for-bit unchanged,
  // until it drops the snapshot.
  ASSERT_TRUE(store.unpublish(removed));
  const auto ranked_after = SnapshotRanker(*before).top_k(terms, 10);
  expect_identical_ranking(ranked_after, ranked_before);
  EXPECT_EQ(before->num_documents(), 2u);

  // A fresh snapshot (the next epoch) no longer sees it, and its ranking is
  // byte-identical to a store that never held the document.
  const auto after = store.snapshot();
  EXPECT_EQ(after->num_documents(), 1u);
  const auto ranked_new = SnapshotRanker(*after).top_k(terms, 10);
  ASSERT_EQ(ranked_new.size(), 1u);
  EXPECT_EQ(ranked_new[0].doc, kept);

  InvertedIndex oracle;
  add_to_oracle(oracle, store, kept, wrap_text_as_xml("kept", "alpha beta alpha"));
  expect_identical_ranking(ranked_new, TfIdfRanker(oracle).top_k(terms, 10));
}

// ---------------------------------------------------------------------------
// MixedWorkload: TSan-covered stress — 8 readers ranking live snapshots
// while a writer publishes/merges >= 2000 documents
// ---------------------------------------------------------------------------

TEST(MixedWorkloadStress, ConcurrentReadersSeeConsistentEpochs) {
  constexpr std::size_t kReaders = 8;
  constexpr std::size_t kDocs = 2000;
  constexpr std::size_t kRemoveEvery = 16;
  constexpr std::size_t kMaxEpochs = 2 * kDocs + 2;

  EpochConfig cfg;  // background merges on (the default), small enough to fire many times
  cfg.merge_min_docs = 128;
  cfg.merge_tombstone_threshold = 16;
  DataStore store(kPeer, {}, {}, cfg);

  // Every document carries the marker term exactly once, so a reader can
  // checksum an entire snapshot — base, segments, and tombstone liveness —
  // by walking one posting list. expected_* is indexed by epoch and written
  // by the writer *before* the commit that publishes that epoch; the
  // mutex-published snapshot pointer makes it visible to any reader that
  // can observe the epoch.
  static constexpr const char* kMarker = "zmarkerz";
  std::vector<std::uint64_t> expected_checksum(kMaxEpochs, 0);
  std::vector<std::uint64_t> expected_docs(kMaxEpochs, 0);

  std::atomic<bool> done{false};
  const std::vector<std::string> marker_terms = analyzed(store, kMarker);
  ASSERT_EQ(marker_terms.size(), 1u);
  const std::string marker = marker_terms[0];
  const std::vector<std::string> mixed_terms = analyzed(store, "gossip bloom zmarkerz");

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937_64 rng(0xC0FFEE00ULL + r);
      std::uint64_t iterations = 0;
      std::uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_relaxed) || iterations == 0) {
        ++iterations;
        const auto snap = store.snapshot();
        const std::uint64_t epoch = snap->epoch();
        ASSERT_LT(epoch, kMaxEpochs);
        // Epochs are monotone per reader: the writer only publishes forward.
        ASSERT_GE(epoch, last_epoch);
        last_epoch = epoch;

        // Torn-read detector: the marker posting list must reproduce this
        // epoch's exact live-document census.
        std::uint64_t checksum = 0;
        std::uint64_t count = 0;
        snap->for_each_posting(marker, [&](std::uint32_t slot, std::uint32_t freq) {
          checksum += static_cast<std::uint64_t>(snap->doc_at_slot(slot).local + 1) * freq;
          ++count;
        });
        ASSERT_EQ(count, expected_docs[epoch]) << "epoch " << epoch;
        ASSERT_EQ(checksum, expected_checksum[epoch]) << "epoch " << epoch;
        ASSERT_EQ(snap->num_documents(), expected_docs[epoch]);

        // And rank: exercises the full snapshot scoring path under TSan.
        const auto ranked = SnapshotRanker(*snap).top_k(mixed_terms, 10);
        for (std::size_t i = 1; i < ranked.size(); ++i) {
          ASSERT_TRUE(ranks_before(ranked[i - 1], ranked[i]));
        }
        if (rng() % 64 == 0) std::this_thread::yield();
      }
    });
  }

  // Writer: publish kDocs documents, removing an earlier one every
  // kRemoveEvery publishes. expected_* entries are written pre-commit.
  std::mt19937_64 rng(0xDEAD5EEDULL);
  std::uint64_t epoch = 0;
  std::uint64_t checksum = 0;
  std::unordered_map<std::uint32_t, std::string> live_docs;
  std::vector<std::uint32_t> live_ids;
  for (std::size_t i = 0; i < kDocs; ++i) {
    const std::string xml =
        wrap_text_as_xml("d" + std::to_string(i), make_body(rng, 3 + rng() % 6) + " zmarkerz");
    const std::uint32_t local = store.next_local_id();
    ++epoch;
    checksum += local + 1;
    expected_checksum[epoch] = checksum;
    expected_docs[epoch] = live_docs.size() + 1;
    const DocumentId id = store.publish(std::string(xml));
    ASSERT_EQ(id.local, local);
    live_docs[local] = xml;
    live_ids.push_back(local);

    if (i % kRemoveEvery == kRemoveEvery - 1) {
      const std::size_t pick = rng() % live_ids.size();
      const std::uint32_t victim = live_ids[pick];
      live_ids[pick] = live_ids.back();
      live_ids.pop_back();
      ++epoch;
      checksum -= victim + 1;
      expected_checksum[epoch] = checksum;
      expected_docs[epoch] = live_docs.size() - 1;
      ASSERT_TRUE(store.unpublish(DocumentId{kPeer, victim}));
      live_docs.erase(victim);
    }
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  // Quiesce and replay: the final epoch must rank byte-identically to the
  // sequential oracle over the surviving documents.
  store.epochs().wait_for_merges();
  const auto final_snap = store.snapshot();
  EXPECT_EQ(final_snap->epoch(), epoch);
  EXPECT_EQ(final_snap->num_documents(), live_docs.size());
  EXPECT_GT(store.epochs().stats().merges_completed, 0u);

  const InvertedIndex oracle = make_oracle(store, live_docs);
  for (const char* word : kVocab) {
    const std::vector<std::string> terms = analyzed(store, std::string(word) + " zmarkerz");
    expect_identical_ranking(SnapshotRanker(*final_snap).top_k(terms, 20),
                             TfIdfRanker(oracle).top_k(terms, 20));
  }
}
