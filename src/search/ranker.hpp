#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "index/epoch_index.hpp"
#include "index/inverted_index.hpp"

/// \file ranker.hpp
/// Document scoring (eq. 2). One top-k driver ranks every epoch snapshot in
/// the program: a contacted peer's local evaluation of a remote query (term
/// weights = IPF shipped by the searcher, through top_k) and the §7.3
/// centralized TFxIDF baseline (term weights = IDF over the global
/// snapshot, through SnapshotRanker::top_k). Both entry points hand their
/// prepared terms to the same core.
///
/// Scoring follows Witten, Moffat & Bell's accumulator-array organization:
/// postings carry dense document slots, so per-query work is additions into
/// a flat double array (no string- or id-keyed hash map), and top-k
/// selection uses a bounded min-heap instead of sorting every matched
/// document. The heap's tie-break (equal scores -> ascending DocumentId) is
/// pinned to be byte-identical to the full-sort path.
///
/// Over a snapshot whose base is a block-structured CompressedIndex the
/// driver prunes (docs/INDEX.md "Block-max pruning"): terms are ordered by
/// score upper bound, a bounded min-heap maintains the entry threshold, and
/// blocks whose maxima cannot beat the threshold are skipped outright
/// (MaxScore / Block-Max-WAND). The driver is rank-safe: its output is
/// byte-identical — scores, documents, tie-breaks — to exhaustive scoring
/// for every k. Pending epoch segments and tombstones are handled exactly
/// (segments scored unpruned, tombstoned documents dropped per candidate),
/// and correctness-critical corner cases fall back to exhaustive scoring.
///
/// score_documents and TfIdfRanker rank a mutable InvertedIndex
/// exhaustively. Nothing in the program ranks through them: they are the
/// independent references the identity tests and index_throughput's
/// exhaustive rows compare the driver against.

namespace planetp::search {

struct ScoredDoc {
  index::DocumentId doc;
  double score = 0.0;
};

/// Strict ranking order: descending score, ties by ascending DocumentId.
inline bool ranks_before(const ScoredDoc& a, const ScoredDoc& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.doc < b.doc;
}

/// Counters from the pruned top-k driver (monotone; callers zero them).
/// blocks_skipped > 0 proves the pruning actually fired.
struct PruneStats {
  std::uint64_t pruned_queries = 0;    ///< queries served by the pruned driver
  std::uint64_t prune_fallbacks = 0;   ///< queries served exhaustively instead
  std::uint64_t blocks_skipped = 0;    ///< blocks jumped over or refused by block-max
  std::uint64_t postings_decoded = 0;  ///< postings decoded on the pruned path
  std::uint64_t docs_evaluated = 0;    ///< candidates fully scored
  std::uint64_t docs_abandoned = 0;    ///< candidates dropped by a bound mid-score

  PruneStats& operator+=(const PruneStats& o) {
    pruned_queries += o.pruned_queries;
    prune_fallbacks += o.prune_fallbacks;
    blocks_skipped += o.blocks_skipped;
    postings_decoded += o.postings_decoded;
    docs_evaluated += o.docs_evaluated;
    docs_abandoned += o.docs_abandoned;
    return *this;
  }
};

/// Score all documents of \p idx against the weighted query terms:
///   score(D) = sum_t w_{D,t} * weight_t / sqrt(|D|)
/// Documents matching no term are omitted. Results are sorted by descending
/// score (ties broken by DocumentId for determinism). Reference only.
std::vector<ScoredDoc> score_documents(
    const index::InvertedIndex& idx,
    const std::unordered_map<std::string, double>& term_weights);

/// The top-k driver: the best \p k live documents of an immutable epoch
/// snapshot under the caller's term weights (terms with weight <= 0 are
/// ignored), in ranks_before order. Pruned over a qualifying base,
/// exhaustive otherwise; byte-identical to score_documents over an
/// InvertedIndex holding the same documents, truncated to k — both
/// accumulate score_contribution in lexicographic term order and tie-break
/// with ranks_before. Lock-free against concurrent publishes
/// (DataStore::snapshot()).
std::vector<ScoredDoc> top_k(const index::EpochSnapshot& snap,
                             const std::unordered_map<std::string, double>& term_weights,
                             std::size_t k, PruneStats* stats = nullptr);

/// Every live document the weighted terms match: the driver at k = every
/// match.
inline std::vector<ScoredDoc> score_snapshot(
    const index::EpochSnapshot& snap,
    const std::unordered_map<std::string, double>& term_weights) {
  return top_k(snap, term_weights, std::numeric_limits<std::size_t>::max());
}

/// TFxIDF over a mutable InvertedIndex with a bounded min-heap, identical
/// to full scoring + truncate_top_k. Reference only: the §7.3 baseline ranks
/// through SnapshotRanker.
class TfIdfRanker {
 public:
  explicit TfIdfRanker(const index::InvertedIndex& global_index)
      : index_(&global_index) {}

  /// IDF weights for the query terms over the global collection.
  std::unordered_map<std::string, double> idf_weights(
      const std::vector<std::string>& terms) const;

  /// Top-k documents by eq. 2: the dense accumulator plus a bounded
  /// min-heap, identical to full scoring + truncate_top_k.
  std::vector<ScoredDoc> top_k(const std::vector<std::string>& terms, std::size_t k) const;

 private:
  const index::InvertedIndex* index_;
};

/// TFxIDF ranking over an immutable epoch snapshot: the §7.3 centralized
/// baseline's entry point into the driver. IDF inputs come from the
/// snapshot's exact live statistics, so results are byte-identical (scores,
/// documents, tie-breaks) to TfIdfRanker over an InvertedIndex holding the
/// same documents.
class SnapshotRanker {
 public:
  explicit SnapshotRanker(const index::EpochSnapshot& snap) : snap_(&snap) {}

  /// IDF weights for the query terms over the snapshot's live collection.
  std::unordered_map<std::string, double> idf_weights(
      const std::vector<std::string>& terms) const;

  /// Top-k documents by eq. 2 under IDF weights. Each term probes the
  /// base once for both its weight and its cursor, then the prepared terms
  /// go to the same core as search::top_k.
  std::vector<ScoredDoc> top_k(const std::vector<std::string>& terms, std::size_t k,
                               PruneStats* stats = nullptr) const;

 private:
  const index::EpochSnapshot* snap_;
};

/// Keep the top-k of a scored list (already sorted descending).
void truncate_top_k(std::vector<ScoredDoc>& docs, std::size_t k);

}  // namespace planetp::search
