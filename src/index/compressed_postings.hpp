#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "index/inverted_index.hpp"
#include "util/hash.hpp"
#include "util/varint.hpp"

/// \file compressed_postings.hpp
/// Compressed, immutable posting lists in the style of Witten, Moffat &
/// Bell's "Managing Gigabytes" — the same reference the paper takes its
/// ranking equations from. A CompressedIndex is a compact, read-optimized,
/// immutable index — built by the epoch pipeline's merges, or from an
/// InvertedIndex with build():
///
///   - documents are numbered densely; ids are delta-coded varints,
///   - term frequencies are varints,
///   - each term's postings live in one contiguous byte run,
///   - postings are grouped into fixed-size blocks of kBlockPostings with a
///     skip entry per block (byte offset, last dense id, dense-id resume
///     base) plus the block's maximum score contribution, and a per-term
///     global upper bound (docs/INDEX.md "Block-max pruning").
///
/// Peers with large, slowly changing stores (the common case per §2's file
/// system citations) serve queries from a base several times smaller than
/// a hash-map index, rebuilding it only when enough changes accumulate.
///
/// A CompressedIndex is the read-optimized *base* of the epoch snapshots
/// in epoch_index.hpp, a peer's one index: the background segment merge
/// folds pending in-memory segments into a fresh CompressedIndex via
/// Builder, and readers
/// walk base postings through PostingCursor (dense() doubles as the
/// snapshot's accumulator slot). The skip entries let the pruned top-k
/// driver (search/ranker.cpp) jump a lagging cursor forward without
/// decoding through, and the block/term maxima bound what a document can
/// still score — the MaxScore/Block-Max-WAND organization.

namespace planetp::index {

/// Hostile-blob rejection (throws std::runtime_error). Out of line so the
/// inlined cursor fast path stays small.
[[noreturn]] void corrupt_blob(const char* what);

class CompressedIndex {
 public:
  CompressedIndex() = default;

  /// Postings per block. Small enough that a block decode is cheap, large
  /// enough that skip metadata stays ~1% of blob bytes.
  static constexpr std::uint32_t kBlockPostings = 128;

  /// Terms whose document frequency reaches 1/kDirectFraction of the corpus
  /// additionally keep a dense frequency array (slot -> term frequency,
  /// 0 = absent): the pruned driver's survivor probes hit such stop-word
  /// tier lists for candidates scattered across the whole dense range, and
  /// seeking a compressed cursor to each would decode essentially the
  /// entire list — the array answers in O(1) with no decoding. Derived
  /// (never serialized) and capped at u16 frequencies; rarer terms or
  /// burstier frequencies fall back to cursor seeks.
  static constexpr std::uint32_t kDirectFraction = 32;

  /// Direct arrays only exist at corpus sizes where survivor probes
  /// actually hurt: below this many documents a whole posting list decodes
  /// in a few blocks anyway, and the dense rows would dominate
  /// memory_bytes() — the compression that motivates this class.
  static constexpr std::uint32_t kDirectMinDocs = 4096;

  /// Per-block skip metadata. Offsets are relative to the term's byte run,
  /// so entries survive blob concatenation order changes (persistence
  /// round-trips rebuild the global blob in a different order).
  struct SkipEntry {
    std::uint32_t offset = 0;      ///< byte offset of the block's first posting
    std::uint32_t last_dense = 0;  ///< dense id of the block's last posting
    std::uint32_t base_dense = 0;  ///< delta-decode resume value (previous
                                   ///< block's last_dense; unused for block 0)
    /// max over the block's postings of w_{D,t} * 1/sqrt(|D|) — the largest
    /// score contribution a unit query weight can collect from this block.
    double max_contrib = 0.0;
    /// max term frequency in the block. Candidates with a known length give
    /// the tighter norm-aware bound w(max_freq) * 1/sqrt(|D_cand|), which
    /// max_contrib (worst norm over the whole block) cannot.
    std::uint32_t max_freq = 0;
  };

  /// Snapshot \p source. Document ids are remapped densely; the mapping is
  /// kept for translating results back.
  static CompressedIndex build(const InvertedIndex& source);

  /// Iterate a term's postings without materializing them.
  class PostingCursor {
   public:
    bool done() const { return remaining_ == 0; }
    /// Advance to the next posting; must not be called when done(). Inline:
    /// the pruned driver's accumulation pass decodes whole lists through
    /// this, and an out-of-line call per posting costs as much as the
    /// varint decode itself.
    void next() {
      --remaining_;
      if (remaining_ == 0) return;
      const std::uint32_t gap = static_cast<std::uint32_t>(get_varint(data_, size_, pos_));
      freq_ = static_cast<std::uint32_t>(get_varint(data_, size_, pos_));
      dense_ += gap + 1;
      if (dense_ >= owner_->docs_.size()) corrupt_blob("dense id out of range");
      doc_ = owner_->docs_[dense_];
      ++decoded_;
    }
    DocumentId doc() const { return doc_; }
    std::uint32_t term_freq() const { return freq_; }
    /// Dense id of doc() (ascending along the cursor; the epoch snapshot's
    /// accumulator slot for base documents).
    std::uint32_t dense() const { return dense_; }
    /// Total postings in the list (document frequency).
    std::uint32_t size() const { return count_; }
    /// Term statistics captured at lookup, so the query path hashes each
    /// term exactly once (the HashedTerms idiom of search/ipf.hpp).
    std::uint64_t collection_freq() const { return cf_; }
    /// The term's global score upper bound (max_contribution).
    double list_max() const { return list_max_; }
    /// The term's largest frequency in any document (norm-aware bounds).
    std::uint32_t list_max_freq() const { return list_max_freq_; }

    /// True when the list carries a dense frequency array (high-df terms;
    /// see kDirectFraction) — freq_at() then answers membership probes in
    /// O(1) without moving the cursor or decoding postings.
    bool direct() const { return direct_ != nullptr; }
    /// Term frequency at \p dense (0 = no posting). Only when direct().
    std::uint32_t freq_at(std::uint32_t dense) const { return direct_[dense]; }

    // --- skip-capable navigation (docs/INDEX.md "Block-max pruning") ---

    std::uint32_t num_blocks() const { return num_blocks_; }
    /// Block holding the currently loaded posting.
    std::uint32_t current_block() const { return (count_ - remaining_) / kBlockPostings; }
    /// The block's maximum score contribution (build-time exact).
    double block_max(std::uint32_t block) const { return skips_[block].max_contrib; }
    /// The block's maximum term frequency (build-time exact).
    std::uint32_t block_max_freq(std::uint32_t block) const { return skips_[block].max_freq; }
    /// Dense id of the block's last posting.
    std::uint32_t block_last(std::uint32_t block) const { return skips_[block].last_dense; }

    /// First block >= current_block() whose last posting's dense id reaches
    /// \p target (pure skip-entry scan, no decoding); num_blocks() when the
    /// list holds no such posting.
    std::uint32_t find_block(std::uint32_t target) const;

    /// Advance (forward only) until dense() >= \p target, jumping whole
    /// blocks via skip entries; exhausts the cursor when no posting
    /// reaches \p target. No-op when already at or past \p target.
    void seek_to(std::uint32_t target);

    // --- instrumentation (PruneStats feeding) ---
    std::uint64_t postings_decoded() const { return decoded_; }
    std::uint64_t blocks_jumped() const { return jumped_; }

   private:
    friend class CompressedIndex;
    PostingCursor(const CompressedIndex* owner, const std::uint8_t* data, std::size_t size,
                  std::uint32_t count, const SkipEntry* skips, std::uint32_t num_blocks,
                  std::uint64_t cf, double list_max, std::uint32_t list_max_freq,
                  const std::uint16_t* direct);

    /// Decode the block's first posting (delta base comes from the skip
    /// entry rather than the running dense id).
    void load_first_(std::uint32_t block) {
      const std::uint32_t gap = static_cast<std::uint32_t>(get_varint(data_, size_, pos_));
      freq_ = static_cast<std::uint32_t>(get_varint(data_, size_, pos_));
      dense_ = block == 0 ? gap : skips_[block].base_dense + gap + 1;
      if (dense_ >= owner_->docs_.size()) corrupt_blob("dense id out of range");
      doc_ = owner_->docs_[dense_];
      ++decoded_;
    }
    void jump_to_block_(std::uint32_t block);

    const CompressedIndex* owner_ = nullptr;
    const std::uint8_t* data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t pos_ = 0;
    std::uint32_t count_ = 0;      ///< total postings
    std::uint32_t remaining_ = 0;  ///< loaded posting + unread postings
    std::uint32_t dense_ = 0;      ///< running dense doc id
    DocumentId doc_;
    std::uint32_t freq_ = 0;
    const SkipEntry* skips_ = nullptr;
    std::uint32_t num_blocks_ = 0;
    std::uint64_t cf_ = 0;       ///< term collection frequency
    double list_max_ = 0.0;      ///< term-level max_contribution
    std::uint32_t list_max_freq_ = 0;  ///< term-level max frequency
    const std::uint16_t* direct_ = nullptr;  ///< dense freq array (high-df terms)
    std::uint64_t decoded_ = 0;  ///< postings decoded through this cursor
    std::uint64_t jumped_ = 0;   ///< blocks stepped over via skip entries
  };

  /// Cursor over \p term's postings (empty cursor when absent).
  PostingCursor postings(std::string_view term) const;

  /// Decode a full posting list (convenience for tests and scoring).
  std::vector<Posting> decode(std::string_view term) const;

  std::uint32_t document_frequency(std::string_view term) const;
  std::uint64_t collection_frequency(std::string_view term) const;
  /// Per-term global score upper bound: max over the term's postings of
  /// w_{D,t} * 1/sqrt(|D|) (0 when absent). Multiplied by the query weight
  /// this bounds the term's contribution to any document's score.
  double max_contribution(std::string_view term) const;
  std::uint32_t document_length(DocumentId doc) const;
  std::size_t num_documents() const { return docs_.size(); }
  std::size_t num_terms() const { return terms_.size(); }

  /// Dense-id accessors (the epoch snapshot's slot domain for base docs).
  const std::vector<DocumentId>& documents() const { return docs_; }
  DocumentId doc_at(std::uint32_t dense) const { return docs_[dense]; }
  std::uint32_t doc_length_at(std::uint32_t dense) const { return doc_lengths_[dense]; }
  /// Precomputed 1/sqrt(|D|) (identical bits to search::length_norm of the
  /// stored length — the pruned driver screens candidates with it, so it
  /// must not pay a sqrt per candidate).
  double doc_norm_at(std::uint32_t dense) const { return doc_norms_[dense]; }

  /// Visit every term once (unspecified order; used by the segment merge to
  /// build the term-set union).
  void for_each_term(const std::function<void(std::string_view)>& fn) const;

  /// Everything persistence needs to serialize one term: statistics, the
  /// raw byte run, and the block metadata.
  struct TermView {
    std::string_view term;
    std::uint32_t doc_freq = 0;
    std::uint64_t collection_freq = 0;
    const std::uint8_t* run = nullptr;  ///< delta-coded (gap, freq) varints
    std::uint32_t run_bytes = 0;
    const SkipEntry* skips = nullptr;
    std::uint32_t num_blocks = 0;
    double max_contrib = 0.0;
    std::uint32_t max_freq = 0;
  };
  void for_each_term_entry(const std::function<void(const TermView&)>& fn) const;

  /// Assemble a CompressedIndex directly from merge output (dense postings
  /// per term), bypassing an intermediate InvertedIndex. Produces exactly
  /// the layout build() would for the same logical content. Defined after
  /// the class (it holds a CompressedIndex by value).
  class Builder;

  /// Total bytes of the compressed structure (postings + dictionaries +
  /// skip metadata).
  std::size_t memory_bytes() const;

  /// Score documents against weighted query terms, identical semantics to
  /// search::score_documents over the source index. Exhaustive — the
  /// correctness reference the pruned driver is pinned against.
  std::vector<std::pair<DocumentId, double>> score(
      const std::unordered_map<std::string, double>& term_weights) const;

 private:
  struct TermEntry {
    std::uint32_t offset = 0;      ///< into blob_
    std::uint32_t length = 0;      ///< bytes
    std::uint32_t doc_freq = 0;    ///< postings count
    std::uint64_t collection_freq = 0;
    std::uint32_t skip_begin = 0;  ///< into skips_
    std::uint32_t num_blocks = 0;  ///< ceil(doc_freq / kBlockPostings)
    double max_contrib = 0.0;      ///< max over blocks of SkipEntry::max_contrib
    std::uint32_t max_freq = 0;    ///< max over blocks of SkipEntry::max_freq
    /// Start of the term's dense frequency array in direct_freqs_
    /// (num_documents entries), or kNoDirect for cursor-only terms.
    std::uint32_t direct_begin = kNoDirect;
  };
  static constexpr std::uint32_t kNoDirect = 0xFFFFFFFFu;

  /// Encode one term's postings (dense ascending) into blob_ + skips_ and
  /// register the TermEntry. Shared by build() and Builder::add_term so the
  /// layout and the block metadata are computed in exactly one place.
  void append_term_(std::string term,
                    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& postings);

  /// Transparent hashing: the epoch read path looks terms up by
  /// string_view, so find() must not materialize a std::string per probe.
  std::unordered_map<std::string, TermEntry, StringHash, std::equal_to<>> terms_;
  std::vector<std::uint8_t> blob_;         ///< all posting runs, concatenated
  std::vector<SkipEntry> skips_;           ///< all terms' block entries, concatenated
  std::vector<std::uint16_t> direct_freqs_;  ///< high-df terms' dense freq arrays
  std::vector<DocumentId> docs_;           ///< dense id -> original id
  std::vector<std::uint32_t> doc_lengths_; ///< by dense id
  std::vector<double> doc_norms_;          ///< 1/sqrt(length), by dense id
  std::unordered_map<DocumentId, std::uint32_t, DocumentIdHash> dense_of_;
};

class CompressedIndex::Builder {
 public:
  /// \p docs ascending by DocumentId, \p lengths parallel.
  Builder(std::vector<DocumentId> docs, std::vector<std::uint32_t> lengths);

  /// Add one term's postings as (dense id, freq), sorted ascending by
  /// dense id. Must be called at most once per term.
  void add_term(std::string_view term,
                const std::vector<std::pair<std::uint32_t, std::uint32_t>>& postings);

  CompressedIndex take() { return std::move(out_); }

 private:
  CompressedIndex out_;
};

}  // namespace planetp::index
