#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "index/document.hpp"
#include "index/term_dictionary.hpp"

/// \file inverted_index.hpp
/// Mutable inverted index over a static collection: term -> postings
/// (document, term frequency), supplying the f_{D,t} and |D| statistics of
/// the ranking equations (§5.2). It is the sequential reference the
/// identity tests rank against; nothing in the program ranks through it. A
/// peer's own store indexes through the epoch pipeline (data_store.hpp,
/// epoch_index.hpp), and the §7.3 harness ranks compacted snapshots.
///
/// Internally the index is keyed by dense store-local TermIds from an
/// interned TermDictionary, and every document gets a dense *slot* so the
/// ranker can accumulate scores into a flat array instead of a hash map
/// (Witten, Moffat & Bell's term-number + accumulator-array organization).
/// The string-keyed API below is a thin adapter over the TermId core.
/// TermIds and slots are index-local and must never leak into wire or disk
/// formats; see docs/INDEX.md.

namespace planetp::index {

struct Posting {
  DocumentId doc;
  std::uint32_t term_freq = 0;  ///< f_{D,t}

  bool operator==(const Posting&) const = default;
};

/// Reusable TermId -> frequency accumulator ("flat map"): counts live in a
/// dense array indexed by TermId, with the touched ids kept in
/// first-occurrence order. clear() is O(distinct terms touched), so one
/// buffer serves an entire publish batch without reallocating.
class TermCounts {
 public:
  /// Add \p n occurrences of \p term.
  void add(TermId term, std::uint32_t n = 1) {
    if (term >= counts_.size()) counts_.resize(term + 1, 0);
    if (counts_[term] == 0) order_.push_back(term);
    counts_[term] += n;
  }

  /// Distinct terms in first-occurrence order.
  const std::vector<TermId>& terms() const { return order_; }
  std::uint32_t count(TermId term) const {
    return term < counts_.size() ? counts_[term] : 0;
  }
  bool empty() const { return order_.empty(); }

  /// Reset for reuse, keeping capacity.
  void clear() {
    for (TermId t : order_) counts_[t] = 0;
    order_.clear();
  }

 private:
  std::vector<std::uint32_t> counts_;
  std::vector<TermId> order_;
};

class InvertedIndex {
 public:
  /// Sentinel for "document has no slot".
  static constexpr std::uint32_t kNoSlot = 0xFFFF'FFFFu;

  // --- string-keyed API (adapters over the TermId core) -------------------

  /// Insert a document given its term -> frequency map. The document must
  /// not already be present.
  void add_document(DocumentId doc,
                    const std::unordered_map<std::string, std::uint32_t>& term_freqs);

  /// Remove a document and all its postings. Returns false if unknown.
  bool remove_document(DocumentId doc);

  /// Postings for a term (empty when absent).
  const std::vector<Posting>& postings(std::string_view term) const {
    return postings_by_id(term_id(term));
  }

  /// Whether any document contains the term.
  bool contains_term(std::string_view term) const {
    return document_frequency_by_id(term_id(term)) > 0;
  }

  /// f_{D,t}: frequency of \p term in \p doc (0 when absent).
  std::uint32_t term_frequency(std::string_view term, DocumentId doc) const;

  /// |D|: total number of term occurrences in the document (the paper's
  /// "number of terms in document D" used in the sqrt(|D|) normalizer).
  std::uint32_t document_length(DocumentId doc) const;

  /// f_t: total occurrences of \p term across the collection (for IDF).
  std::uint64_t collection_frequency(std::string_view term) const {
    return collection_frequency_by_id(term_id(term));
  }

  /// Number of documents containing \p term.
  std::uint32_t document_frequency(std::string_view term) const {
    return document_frequency_by_id(term_id(term));
  }

  std::size_t num_documents() const { return slot_of_.size(); }
  /// Number of distinct terms with at least one posting.
  std::size_t num_terms() const { return nonempty_terms_; }

  /// Iterate all distinct terms with live postings (used to build the Bloom
  /// filter and compressed snapshots). Materializes a std::string per term;
  /// hot paths should use for_each_term_id instead.
  void for_each_term(const std::function<void(const std::string&)>& fn) const;

  /// All documents currently indexed (ids ascending).
  std::vector<DocumentId> documents() const;

  // --- TermId hot-path API ------------------------------------------------

  /// The store-local term dictionary (append-only; ids are dense).
  const TermDictionary& dictionary() const { return dict_; }

  /// Intern \p term, creating an id (and an empty posting list) if new.
  TermId intern_term(std::string_view term);

  /// Id of \p term, or kInvalidTermId when never interned.
  TermId term_id(std::string_view term) const { return dict_.find(term); }

  /// Postings by term id (empty for kInvalidTermId or never-posted terms).
  const std::vector<Posting>& postings_by_id(TermId term) const {
    return term < terms_.size() ? terms_[term].postings : empty_postings_();
  }

  /// Dense doc slots parallel to postings_by_id(term): slots()[i] is the
  /// accumulator index of postings()[i].doc.
  const std::vector<std::uint32_t>& posting_slots(TermId term) const {
    return term < terms_.size() ? terms_[term].slots : empty_slots_();
  }

  std::uint64_t collection_frequency_by_id(TermId term) const {
    return term < terms_.size() ? terms_[term].collection_freq : 0;
  }
  std::uint32_t document_frequency_by_id(TermId term) const {
    return term < terms_.size() ? static_cast<std::uint32_t>(terms_[term].postings.size()) : 0;
  }

  /// Insert a document from a TermCounts accumulator (the hot publish path:
  /// no string keys, postings appended in first-occurrence order). The
  /// document must not already be present; every TermId must come from this
  /// index's dictionary.
  void add_document_counts(DocumentId doc, const TermCounts& counts);

  /// Distinct term ids of \p doc in insertion order (empty when unknown).
  /// Valid until the document is removed.
  const std::vector<TermId>& document_term_ids(DocumentId doc) const;

  // --- dense document slots (ranker accumulator domain) -------------------

  /// Upper bound (exclusive) on live slot numbers. Freed slots are reused,
  /// so this tracks the high-water mark of concurrently live documents.
  std::size_t doc_slot_count() const { return slot_docs_.size(); }

  /// Slot of \p doc, or kNoSlot.
  std::uint32_t doc_slot(DocumentId doc) const {
    auto it = slot_of_.find(doc);
    return it == slot_of_.end() ? kNoSlot : it->second;
  }

  /// Document occupying \p slot (unspecified for freed slots — only slots
  /// reached through live postings are meaningful).
  DocumentId doc_at_slot(std::uint32_t slot) const { return slot_docs_[slot]; }

  /// |D| of the document occupying \p slot.
  std::uint32_t doc_length_at_slot(std::uint32_t slot) const { return slot_lengths_[slot]; }

 private:
  struct TermEntry {
    std::vector<Posting> postings;
    std::vector<std::uint32_t> slots;  ///< parallel to postings
    std::uint64_t collection_freq = 0;
  };

  static const std::vector<Posting>& empty_postings_();
  static const std::vector<std::uint32_t>& empty_slots_();

  TermDictionary dict_;
  std::vector<TermEntry> terms_;  ///< by TermId (dense, parallel to dict_)
  std::size_t nonempty_terms_ = 0;

  std::vector<DocumentId> slot_docs_;       ///< by slot
  std::vector<std::uint32_t> slot_lengths_; ///< by slot
  std::vector<std::vector<TermId>> slot_terms_;  ///< by slot, insertion order
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<DocumentId, std::uint32_t, DocumentIdHash> slot_of_;
};

}  // namespace planetp::index
