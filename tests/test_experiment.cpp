#include "search/experiment.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

namespace planetp::search {
namespace {

class ExperimentFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    collection_ = corpus::generate(corpus::preset_tiny());
    setup_ = distribute_collection(collection_, 20, corpus::PlacementOptions{});
  }

  corpus::SynthCollection collection_;
  RetrievalSetup setup_;
};

TEST_F(ExperimentFixture, SetupIndexesEveryDocumentOnce) {
  std::size_t indexed = 0;
  for (const auto& snap : setup_.peer_snapshots) indexed += snap.num_documents();
  EXPECT_EQ(indexed, collection_.docs.size());
  EXPECT_EQ(setup_.global_snapshot.num_documents(), collection_.docs.size());
  EXPECT_EQ(setup_.owner_of.size(), collection_.docs.size());
}

TEST_F(ExperimentFixture, FiltersCoverPeerTerms) {
  // Every term of every document must hit its owner's Bloom filter (no
  // false negatives anywhere in the pipeline).
  for (const auto& doc : collection_.docs) {
    const std::uint32_t peer = setup_.owner_of.at(index::DocumentId{0, doc.id});
    for (const auto& [term, freq] : doc.terms) {
      EXPECT_TRUE(setup_.peer_filters[peer].contains(
          corpus::SynthCollection::term_string(term)));
    }
  }
}

TEST_F(ExperimentFixture, IpfTracksIdfRecall) {
  // The paper's headline claim (Fig 6a): TFxIPF with adaptive stopping
  // tracks centralized TFxIDF closely.
  RetrievalOptions opts;
  const auto p = evaluate_at_k(collection_, setup_, 20, opts);
  EXPECT_GT(p.idf_recall, 0.1);
  EXPECT_NEAR(p.ipf_recall, p.idf_recall, 0.08);
  EXPECT_NEAR(p.ipf_precision, p.idf_precision, 0.08);
}

TEST_F(ExperimentFixture, RecallGrowsWithK) {
  RetrievalOptions opts;
  const auto p10 = evaluate_at_k(collection_, setup_, 10, opts);
  const auto p40 = evaluate_at_k(collection_, setup_, 40, opts);
  EXPECT_GE(p40.idf_recall, p10.idf_recall);
  EXPECT_GE(p40.ipf_recall, p10.ipf_recall);
  // Precision typically decreases (or stays) as k grows.
  EXPECT_LE(p40.ipf_precision, p10.ipf_precision + 0.05);
}

TEST_F(ExperimentFixture, BestIsLowerBoundOnPeersContacted) {
  RetrievalOptions opts;
  for (std::size_t k : {10u, 20u, 40u}) {
    const auto p = evaluate_at_k(collection_, setup_, k, opts);
    EXPECT_LE(p.best_peers, p.ipf_peers + 1e-9) << k;
  }
}

TEST_F(ExperimentFixture, KSweepReturnsAllPoints) {
  RetrievalOptions opts;
  opts.ks = {5, 10, 20};
  const auto points = run_k_sweep(collection_, setup_, opts);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].k, 5u);
  EXPECT_EQ(points[2].k, 20u);
}

TEST(Experiment, CommunitySweepRecallIsStable) {
  // Fig 6b: recall at fixed k should be roughly flat across community sizes.
  const auto collection = corpus::generate(corpus::preset_tiny());
  RetrievalOptions opts;
  const auto points = run_community_sweep(collection, {5, 10, 20, 40}, 20,
                                          corpus::PlacementOptions{}, opts);
  ASSERT_EQ(points.size(), 4u);
  double min_recall = 1.0, max_recall = 0.0;
  for (const auto& p : points) {
    min_recall = std::min(min_recall, p.ipf_recall);
    max_recall = std::max(max_recall, p.ipf_recall);
  }
  EXPECT_GT(min_recall, 0.0);
  EXPECT_LT(max_recall - min_recall, 0.15);
}

TEST(Experiment, UniformPlacementAlsoWorks) {
  const auto collection = corpus::generate(corpus::preset_tiny());
  corpus::PlacementOptions uniform;
  uniform.kind = corpus::PlacementKind::kUniform;
  const auto setup = distribute_collection(collection, 20, uniform);
  RetrievalOptions opts;
  const auto p = evaluate_at_k(collection, setup, 20, opts);
  EXPECT_NEAR(p.ipf_recall, p.idf_recall, 0.1);
}

TEST(Experiment, RetrievalPointsArePinned) {
  // Every §7.3 retrieval point field, exactly, for preset_tiny over 20
  // peers, as ranked by exhaustive InvertedIndex scoring. The harness must
  // reproduce them through the top-k driver; any change to the corpus,
  // placement, baseline or distributed search shows up here.
  struct Pinned {
    corpus::PlacementKind placement;
    RetrievalPoint point;
  };
  constexpr auto kWeibull = corpus::PlacementKind::kWeibull;
  constexpr auto kUniform = corpus::PlacementKind::kUniform;
  const Pinned pinned[] = {
      {kWeibull, {10, 0.40487851573377887, 0.78333333333333355, 6.5, 0.40830988828279863,
                  0.79166666666666663, 8.4166666666666661, 2.25}},
      {kWeibull, {20, 0.66819612347863122, 0.69895833333333324, 9.1666666666666661,
                  0.6802209772798008, 0.7114583333333333, 9.6666666666666661,
                  8.3333333333333339}},
      {kWeibull, {100, 0.81774708421380249, 0.64236492481166374, 10.25, 0.81774708421380249,
                  0.64236492481166374, 10.25, 8.75}},
      {kUniform, {10, 0.40487851573377887, 0.78333333333333355, 8, 0.40507692843219162,
                  0.78333333333333333, 10.5, 4.833333333333333}},
      {kUniform, {20, 0.66819612347863122, 0.69895833333333324, 12.25, 0.67978238078857289,
                  0.7114583333333333, 13.666666666666666, 12.583333333333334}},
      {kUniform, {100, 0.81774708421380249, 0.64236492481166374, 14.25, 0.81774708421380249,
                  0.64236492481166374, 14.25, 13}},
  };
  const auto collection = corpus::generate(corpus::preset_tiny());
  for (const auto kind : {kWeibull, kUniform}) {
    corpus::PlacementOptions placement;
    placement.kind = kind;
    const auto setup = distribute_collection(collection, 20, placement);
    for (const Pinned& want : pinned) {
      if (want.placement != kind) continue;
      const RetrievalPoint& w = want.point;
      const auto p = evaluate_at_k(collection, setup, w.k, RetrievalOptions{});
      const char* name = kind == kWeibull ? "weibull" : "uniform";
      EXPECT_EQ(p.k, w.k) << name;
      EXPECT_EQ(p.idf_recall, w.idf_recall) << name << " k=" << w.k;
      EXPECT_EQ(p.idf_precision, w.idf_precision) << name << " k=" << w.k;
      EXPECT_EQ(p.idf_peers, w.idf_peers) << name << " k=" << w.k;
      EXPECT_EQ(p.ipf_recall, w.ipf_recall) << name << " k=" << w.k;
      EXPECT_EQ(p.ipf_precision, w.ipf_precision) << name << " k=" << w.k;
      EXPECT_EQ(p.ipf_peers, w.ipf_peers) << name << " k=" << w.k;
      EXPECT_EQ(p.best_peers, w.best_peers) << name << " k=" << w.k;
    }
  }
}

/// Differential check of the peer-side top-k argument (docs/SEARCH.md §1):
/// every query of \p collection, at each k, searched twice over one setup —
/// once with contacts returning the peer's every match (score_snapshot),
/// once with contacts returning the peer's own top k (the driver). Results
/// must agree bit for bit, contact for contact. Also requires that some
/// contacts really were cut (a peer matched more than k documents). Returns
/// the driver's counters over all contacts.
PruneStats expect_peer_top_k_invisible(const corpus::SynthCollection& collection,
                                       const RetrievalSetup& setup) {
  const auto views = setup.filter_views();
  PruneStats stats;
  std::size_t cut_contacts = 0;
  for (const std::size_t k : {std::size_t{1}, std::size_t{10}, std::size_t{20},
                              std::size_t{100}, collection.docs.size()}) {
    const PeerSearchFn every_match = [&, k](std::uint32_t peer,
                                            const std::unordered_map<std::string, double>& w) {
      auto docs = score_snapshot(setup.peer_snapshots[peer], w);
      if (docs.size() > k) ++cut_contacts;
      return PeerSearchResult(std::move(docs));
    };
    const PeerSearchFn own_top_k = [&, k](std::uint32_t peer,
                                          const std::unordered_map<std::string, double>& w) {
      return PeerSearchResult(top_k(setup.peer_snapshots[peer], w, k, &stats));
    };
    DistributedSearchOptions opts;
    opts.k = k;
    for (const auto& query : collection.queries) {
      const auto terms = query_term_strings(query);
      const auto want = tfipf_search(terms, views, every_match, opts);
      const auto got = tfipf_search(terms, views, own_top_k, opts);
      const std::string at = "query " + std::to_string(query.id) + " k=" + std::to_string(k);
      EXPECT_EQ(got.contacted, want.contacted) << at;
      EXPECT_EQ(got.candidate_peers, want.candidate_peers) << at;
      EXPECT_EQ(got.outcomes.size(), want.outcomes.size()) << at;
      for (std::size_t i = 0; i < std::min(got.outcomes.size(), want.outcomes.size()); ++i) {
        EXPECT_EQ(got.outcomes[i].peer, want.outcomes[i].peer) << at;
        EXPECT_EQ(got.outcomes[i].status, want.outcomes[i].status) << at;
        EXPECT_EQ(got.outcomes[i].attempts, want.outcomes[i].attempts) << at;
        EXPECT_EQ(got.outcomes[i].latency, want.outcomes[i].latency) << at;
        EXPECT_EQ(got.outcomes[i].hedged, want.outcomes[i].hedged) << at;
      }
      EXPECT_EQ(got.docs.size(), want.docs.size()) << at;
      for (std::size_t i = 0; i < std::min(got.docs.size(), want.docs.size()); ++i) {
        EXPECT_EQ(got.docs[i].doc, want.docs[i].doc) << at << " rank " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.docs[i].score),
                  std::bit_cast<std::uint64_t>(want.docs[i].score))
            << at << " rank " << i;
      }
    }
  }
  EXPECT_GT(cut_contacts, 0u);
  return stats;
}

TEST(Experiment, PeerTopKIsInvisibleToTheSearcher) {
  const auto tiny = corpus::generate(corpus::preset_tiny());
  for (const auto kind : {corpus::PlacementKind::kWeibull, corpus::PlacementKind::kUniform}) {
    corpus::PlacementOptions placement;
    placement.kind = kind;
    expect_peer_top_k_invisible(tiny, distribute_collection(tiny, 40, placement));
  }
  // The whole collection on one peer: its own top k is the answer, so a
  // contact that ships even one document short is caught.
  expect_peer_top_k_invisible(tiny, distribute_collection(tiny, 1, corpus::PlacementOptions{}));

  // Fig 6 --quick's corpus and community.
  const auto cacm = corpus::generate(corpus::preset_cacm());
  expect_peer_top_k_invisible(cacm,
                              distribute_collection(cacm, 400, corpus::PlacementOptions{}));

  // A heavy corpus on few peers, whose large peers the driver must prune:
  // 6,000 documents over an 800-term vocabulary on 4 Weibull peers.
  corpus::CollectionSpec heavy_spec;
  heavy_spec.name = "HEAVY";
  heavy_spec.num_docs = 6000;
  heavy_spec.vocab_size = 800;
  heavy_spec.num_queries = 20;
  const auto heavy = corpus::generate(heavy_spec);
  const PruneStats stats = expect_peer_top_k_invisible(
      heavy, distribute_collection(heavy, 4, corpus::PlacementOptions{}));
  EXPECT_GT(stats.pruned_queries, 0u);
  EXPECT_GT(stats.blocks_skipped, 0u);
}

TEST(Experiment, QueryHelpers) {
  corpus::SynthQuery q;
  q.terms = {1, 2};
  q.relevant_docs = {10, 20};
  const auto terms = query_term_strings(q);
  EXPECT_EQ(terms, (std::vector<std::string>{"t000001", "t000002"}));
  const auto rel = judgment_set(q);
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_TRUE(rel.contains(index::DocumentId{0, 10}));
}

}  // namespace
}  // namespace planetp::search
