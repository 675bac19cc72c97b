#pragma once

#include <vector>

#include "bloom/bloom_filter.hpp"
#include "corpus/placement.hpp"
#include "corpus/synthetic.hpp"
#include "index/epoch_index.hpp"
#include "search/distributed.hpp"
#include "search/evaluation.hpp"

/// \file experiment.hpp
/// The §7.3 retrieval experiments (Fig 6a-c): distribute a collection over a
/// simulated community, then compare the centralized TFxIDF baseline with
/// PlanetP's TFxIPF + adaptive stopping, measuring recall, precision and
/// peers contacted against the collection's relevance judgments. Both sides
/// rank compacted epoch snapshots through the peers' top-k driver
/// (search/ranker.hpp), so Fig 6 measures the code a contacted peer runs.

namespace planetp::search {

/// A collection distributed over a community: per-peer snapshots and Bloom
/// filters plus the merged global snapshot the TFxIDF baseline assumes.
/// Each snapshot is one block-structured CompressedIndex base with nothing
/// pending. Documents keep their global ids (DocumentId{0, doc}); owner_of
/// maps each to its hosting peer.
struct RetrievalSetup {
  std::size_t num_peers = 0;
  std::vector<index::EpochSnapshot> peer_snapshots;
  std::vector<bloom::BloomFilter> peer_filters;
  index::EpochSnapshot global_snapshot;
  std::unordered_map<index::DocumentId, std::uint32_t, index::DocumentIdHash> owner_of;

  /// Directory view handed to the distributed search.
  std::vector<PeerFilter> filter_views() const;

  /// Contact function for a search with result budget \p k: each peer
  /// ranks its own snapshot through search::top_k and returns its top k.
  PeerSearchFn local_contact(std::size_t k) const;
};

/// Build the setup: place documents, index them per peer, build filters.
RetrievalSetup distribute_collection(const corpus::SynthCollection& collection,
                                     std::size_t num_peers,
                                     const corpus::PlacementOptions& placement,
                                     const bloom::BloomParams& bloom_params = {});

/// Per-query-averaged metrics at one value of k.
struct RetrievalPoint {
  std::size_t k = 0;
  double idf_recall = 0.0;
  double idf_precision = 0.0;
  double idf_peers = 0.0;   ///< exact owners of the baseline's top-k
  double ipf_recall = 0.0;
  double ipf_precision = 0.0;
  double ipf_peers = 0.0;   ///< peers contacted by the adaptive heuristic
  double best_peers = 0.0;  ///< Fig 6c's oracle lower bound
};

struct RetrievalOptions {
  std::vector<std::size_t> ks = {10, 20, 50, 100, 150, 200, 300, 400, 500};
  std::size_t group_size = 1;
  StoppingHeuristic stopping;
};

/// Evaluate one k across all queries of the collection.
RetrievalPoint evaluate_at_k(const corpus::SynthCollection& collection,
                             const RetrievalSetup& setup, std::size_t k,
                             const RetrievalOptions& opts);

/// Fig 6a / 6c: sweep k.
std::vector<RetrievalPoint> run_k_sweep(const corpus::SynthCollection& collection,
                                        const RetrievalSetup& setup,
                                        const RetrievalOptions& opts);

/// Fig 6b: recall at fixed k across community sizes. Rebuilds the placement
/// for each size (same collection, same seed policy).
struct CommunityPoint {
  std::size_t community_size = 0;
  double ipf_recall = 0.0;
  double idf_recall = 0.0;
  double ipf_peers = 0.0;
};
std::vector<CommunityPoint> run_community_sweep(const corpus::SynthCollection& collection,
                                                const std::vector<std::size_t>& sizes,
                                                std::size_t k,
                                                const corpus::PlacementOptions& placement,
                                                const RetrievalOptions& opts);

/// Query terms as analyzable strings.
std::vector<std::string> query_term_strings(const corpus::SynthQuery& query);

/// Relevance judgments as DocumentId sets.
RelevantSet judgment_set(const corpus::SynthQuery& query);

}  // namespace planetp::search
