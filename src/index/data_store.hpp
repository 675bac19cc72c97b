#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bloom/counting_bloom.hpp"
#include "index/document.hpp"
#include "index/epoch_index.hpp"
#include "index/term_dictionary.hpp"
#include "text/analyzer.hpp"

/// \file data_store.hpp
/// The per-peer local data store of §2: published XML documents, the local
/// inverted index over them, and the (counting) Bloom filter summarizing the
/// index's term set. The plain projection of that filter is what the peer
/// gossips; a monotonically increasing version number tracks changes so the
/// directory can tell stale summaries from fresh ones.
///
/// The index is the epoch pipeline (epoch_index.hpp) and nothing else:
/// every commit (one published or removed document) publishes an immutable
/// EpochSnapshot, and both ranked queries and search_all_terms read from
/// it. Concurrent readers call snapshot() — thread-safe, a bounded pointer
/// copy — and rank against it while further publishes and removals
/// proceed. See docs/INDEX.md "Epochs & concurrent readers".
///
/// Besides the epochs, the store keeps only the writer-side bookkeeping a
/// commit needs: the interned term dictionary (text streams through the
/// analyzer's allocation-free pipeline straight into it, and the counting
/// Bloom filter is fed from its pre-computed hashes, so each distinct term
/// is hashed once per store lifetime), each document's (term, frequency)
/// list so unpublish can write an exact tombstone and un-count the filter
/// without touching any posting list, and per-term live-document counts
/// behind num_terms(). Mutation is single-writer.

namespace planetp::index {

class DataStore {
 public:
  explicit DataStore(std::uint32_t peer_id, bloom::BloomParams bloom_params = {},
                     text::AnalyzerOptions analyzer_opts = {}, EpochConfig epoch_config = {});

  /// Publish an XML document; indexes its text and updates the Bloom filter.
  /// Returns the new document's id. Throws on malformed XML.
  DocumentId publish(std::string xml_source);

  /// Publish pre-extracted plain text under a title (convenience wrapper
  /// that builds the XML envelope).
  DocumentId publish_text(std::string_view title, std::string_view body);

  /// Publish under a caller-chosen local id (snapshot restore: documents
  /// must keep their community-visible ids). Throws if the id is taken.
  DocumentId publish_as(std::uint32_t local_id, std::string xml_source);

  /// The next local id publish() would assign (snapshot metadata).
  std::uint32_t next_local_id() const { return next_local_id_; }

  /// Ensure future publishes use ids >= \p next (snapshot restore: ids of
  /// documents unpublished before the snapshot must never be reused).
  void reserve_local_ids(std::uint32_t next) {
    if (next > next_local_id_) next_local_id_ = next;
  }

  /// Remove a published document. Returns false if unknown.
  bool unpublish(DocumentId id);

  /// Replace a published document's content in place (same id, new XML):
  /// reindexes and updates the filter. Returns false if the id is unknown.
  /// Throws on malformed XML, leaving the old version intact.
  bool republish(DocumentId id, std::string xml_source);

  /// The stored document, or nullptr.
  const Document* document(DocumentId id) const;

  /// Documents whose text contains *all* query terms (local exhaustive
  /// search; terms are analyzed with the same pipeline as documents),
  /// ids ascending. Answered from the current snapshot.
  std::vector<DocumentId> search_all_terms(std::string_view query) const;

  /// Current Bloom filter (plain projection of the counting filter).
  bloom::BloomFilter bloom_filter() const { return counting_filter_.to_bloom_filter(); }

  /// Version incremented on every publish/unpublish that changes the term
  /// set summary.
  std::uint64_t filter_version() const { return filter_version_; }

  /// Distinct terms across the live documents: the key count the peer
  /// gossips alongside its filter.
  std::size_t num_terms() const { return num_terms_; }

  /// The store-local term dictionary (append-only; ids never leave the
  /// process, see term_dictionary.hpp).
  const TermDictionary& dictionary() const { return dict_; }

  /// The current published index epoch. Thread-safe against concurrent
  /// publishes/removals (the wait is bounded by a pointer copy); the
  /// snapshot is immutable and stays valid for as long as the caller holds
  /// it.
  std::shared_ptr<const EpochSnapshot> snapshot() const { return epochs_->snapshot(); }

  /// The epoch pipeline (stats, merge waits; writer-side configuration).
  EpochIndex& epochs() { return *epochs_; }
  const EpochIndex& epochs() const { return *epochs_; }

  /// Fold all pending segments/tombstones into a fresh read-optimized base
  /// epoch (writer-side, blocking). After compact() the published
  /// snapshot's base carries block-max skip metadata for every stored
  /// document, so ranked queries take the pruned top-k path.
  void compact() { epochs_->compact(); }

  const text::Analyzer& analyzer() const { return analyzer_; }
  std::uint32_t peer_id() const { return peer_id_; }
  std::size_t num_documents() const { return docs_.size(); }

  /// All stored documents (ids ascending).
  std::vector<DocumentId> documents() const;

 private:
  /// A stored document with its distinct terms and their frequencies, in
  /// first-occurrence order (the exact postings its commit wrote).
  struct StoredDoc {
    Document doc;
    std::vector<std::pair<TermId, std::uint32_t>> terms;
  };

  /// Index an already-parsed document: dictionary, term counts, filter and
  /// one epoch commit.
  void index_document(Document doc);

  std::uint32_t peer_id_;
  std::uint32_t next_local_id_ = 0;
  text::Analyzer analyzer_;
  TermDictionary dict_;
  /// Live documents containing each term, by TermId.
  std::vector<std::uint32_t> term_docs_;
  std::size_t num_terms_ = 0;
  bloom::CountingBloomFilter counting_filter_;
  std::uint64_t filter_version_ = 0;
  std::unordered_map<DocumentId, StoredDoc, DocumentIdHash> docs_;
  /// Reusable analysis buffers (publishing is single-threaded).
  text::AnalyzerScratch scratch_;
  TermCounts counts_;
  /// Epoch pipeline (owns the background merge thread and the published
  /// snapshot). unique_ptr keeps DataStore movable.
  std::unique_ptr<EpochIndex> epochs_;
};

}  // namespace planetp::index
