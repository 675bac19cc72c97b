#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "index/compressed_postings.hpp"
#include "index/inverted_index.hpp"

/// \file epoch_index.hpp
/// Immutable published index epochs: the concurrency layer that lets one hot
/// peer serve thousands of ranked queries while documents stream in
/// (docs/INDEX.md "Epochs & concurrent readers").
///
/// The epoch pipeline is a DataStore's only index. Every commit (one
/// published/removed document, single-writer) appends an immutable delta —
/// a small in-memory IndexSegment, or an EpochTombstone carrying the removed
/// document's exact term frequencies — and publishes a new EpochSnapshot:
/// base CompressedIndex + pending segments + pending tombstones behind one
/// `shared_ptr`. Readers copy the snapshot pointer
/// (a mutex-guarded two-refcount-op critical section — see snapshot()) and
/// rank entirely outside any lock; the snapshot pins everything it
/// needs, so it stays valid (and keeps scoring removed documents) for as
/// long as any reader holds it, no matter what the writer does next.
///
/// Two folding mechanisms keep per-query segment fan-in logarithmic
/// (Witten, Moffat & Bell's segment-merge organization, the same reference
/// compressed_postings.hpp builds on):
///   - writer-side *coalescing*: whenever `coalesce_fanin` trailing pending
///     segments reach the same level, they are concatenated into one
///     segment of the next level (pure concatenation — per-document commit
///     sequence numbers are preserved, so liveness checks stay exact);
///   - a *base merge* (background thread by default) that folds every
///     pending segment and tombstone up to a cut into a fresh read-optimized
///     CompressedIndex, dropping dead postings for good.
///
/// The correctness contract is byte-identity: ranking any EpochSnapshot
/// (search::top_k / SnapshotRanker) produces bit-for-bit the same
/// scores, documents, and tie-breaks as ranking a sequential single-threaded
/// index holding the same documents — regardless of segment layout, merge
/// timing, or how many removals are still unfolded. The arithmetic argument:
/// scoring accumulates per-document sums in lexicographic term order on both
/// paths, collection statistics are exact integers (tombstones carry the
/// removed document's term frequencies, so IDF inputs match the sequential
/// store's), and dead postings are skipped via exact commit-sequence
/// comparisons. tests/test_epoch_snapshot.cpp pins this per epoch against a
/// sequential oracle, including under TSan with live concurrent publishes.

namespace planetp::index {

/// An immutable slice of the index: the documents of one or more commits,
/// term-major. Segments are small (one document per commit, coalesced
/// geometrically); everything is plain vectors so readers touch contiguous
/// memory.
struct IndexSegment {
  struct TermEntry {
    std::string term;
    std::vector<std::uint32_t> dense;  ///< index into docs, ascending
    std::vector<std::uint32_t> freqs;  ///< parallel to dense
    std::uint64_t collection_freq = 0;
  };

  std::vector<DocumentId> docs;             ///< in commit order
  std::vector<std::uint32_t> doc_lengths;   ///< parallel to docs
  /// Commit sequence (== epoch) of each document. A posting for docs[i] is
  /// dead in a snapshot iff that snapshot holds a tombstone for the document
  /// with a larger sequence — exact per-occurrence liveness even after
  /// coalescing mixes commits into one segment.
  std::vector<std::uint64_t> doc_seqs;
  std::vector<TermEntry> terms;             ///< sorted by term
  std::uint64_t min_seq = 0;                ///< smallest doc commit sequence
  std::uint64_t max_seq = 0;                ///< largest doc commit sequence
  std::uint32_t level = 0;                  ///< coalescing tier (0 = fresh commit)

  /// Binary search; nullptr when the term is absent.
  const TermEntry* find(std::string_view term) const;
  std::uint64_t collection_frequency(std::string_view term) const {
    const TermEntry* e = find(term);
    return e == nullptr ? 0 : e->collection_freq;
  }
};

/// The removal record of one unpublished document: its exact term
/// frequencies at removal time, so snapshot-wide collection statistics stay
/// equal to a sequential store that never indexed the document at all.
struct EpochTombstone {
  std::uint64_t seq = 0;  ///< commit sequence (== epoch) of the removal
  DocumentId doc;
  std::uint32_t doc_length = 0;
  std::vector<std::pair<std::string, std::uint32_t>> term_freqs;
};

/// One published epoch: an immutable, self-contained view of the store's
/// index. Readers rank against it lock-free; the shared_ptr members pin the
/// base and every segment/tombstone, so a held snapshot never changes and
/// never dangles. Accessors expose the statistics the ranking equations
/// need, adjusted exactly for unfolded removals.
class EpochSnapshot {
 public:
  /// A snapshot of an already-built base with nothing pending: how a static
  /// collection (the §7.3 harness's peers and global index) is ranked by the
  /// same driver as a live store, without a DataStore commit per document.
  static EpochSnapshot of(std::shared_ptr<const CompressedIndex> base);

  std::uint64_t epoch() const { return epoch_; }

  /// Live documents (postings of removed documents are skipped, exactly as
  /// a sequential store that removed them).
  std::size_t num_documents() const { return num_docs_; }

  /// f_t across live documents (IDF input; exact integer arithmetic).
  std::uint64_t collection_frequency(std::string_view term) const {
    return collection_frequency(term, base_ == nullptr ? 0 : base_->collection_frequency(term));
  }
  /// The same, for a caller that already holds the base's f_t (a base
  /// posting cursor carries it): adds pending segments and subtracts
  /// pending tombstones without probing the base again.
  std::uint64_t collection_frequency(std::string_view term, std::uint64_t base_cf) const;

  /// Accumulator domain: dense base ids then segment documents, in order.
  /// Dead occurrences own a (never-touched) slot too.
  std::size_t slot_count() const { return slot_count_; }

  DocumentId doc_at_slot(std::uint32_t slot) const;
  std::uint32_t doc_length_at_slot(std::uint32_t slot) const;

  /// Visit every *live* posting of \p term as fn(slot, term_freq). Postings
  /// of documents removed by a pinned tombstone are skipped via exact
  /// commit-sequence comparison.
  template <typename Fn>
  void for_each_posting(std::string_view term, Fn&& fn) const {
    if (base_ != nullptr) {
      for (auto c = base_->postings(term); !c.done(); c.next()) {
        if (!dead_(c.doc(), base_seq_)) fn(c.dense(), c.term_freq());
      }
    }
    for (std::size_t s = 0; s < segments_.size(); ++s) {
      const IndexSegment& seg = *segments_[s];
      const IndexSegment::TermEntry* e = seg.find(term);
      if (e == nullptr) continue;
      const std::uint32_t offset = segment_slot_offsets_[s];
      for (std::size_t i = 0; i < e->dense.size(); ++i) {
        const std::uint32_t d = e->dense[i];
        if (!dead_(seg.docs[d], seg.doc_seqs[d])) fn(offset + d, e->freqs[i]);
      }
    }
  }

  /// Visit only the *segment* live postings of \p term (absolute slots, as
  /// for_each_posting). The pruned top-k driver scores pending segments
  /// exhaustively with this and drives the base through skip-capable
  /// cursors instead of for_each_posting's linear walk.
  template <typename Fn>
  void for_each_segment_posting(std::string_view term, Fn&& fn) const {
    for (std::size_t s = 0; s < segments_.size(); ++s) {
      const IndexSegment& seg = *segments_[s];
      const IndexSegment::TermEntry* e = seg.find(term);
      if (e == nullptr) continue;
      const std::uint32_t offset = segment_slot_offsets_[s];
      for (std::size_t i = 0; i < e->dense.size(); ++i) {
        const std::uint32_t d = e->dense[i];
        if (!dead_(seg.docs[d], seg.doc_seqs[d])) fn(offset + d, e->freqs[i]);
      }
    }
  }

  /// True when a pending tombstone kills \p doc's *base* occurrence — the
  /// liveness predicate the pruned base scan applies per candidate (the
  /// exact commit-sequence comparison for_each_posting uses).
  bool base_dead(DocumentId doc) const { return dead_(doc, base_seq_); }

  // Introspection (tests, stats).
  std::size_t segment_count() const { return segments_.size(); }
  std::size_t tombstone_count() const { return tombstones_.size(); }
  const CompressedIndex* base() const { return base_.get(); }

 private:
  friend class EpochIndex;

  bool dead_(DocumentId doc, std::uint64_t occurrence_seq) const {
    if (latest_tombstone_.empty()) return false;
    auto it = latest_tombstone_.find(doc);
    return it != latest_tombstone_.end() && it->second > occurrence_seq;
  }

  std::uint64_t epoch_ = 0;
  std::shared_ptr<const CompressedIndex> base_;  ///< may be null (no merge yet)
  /// Documents in base_ were live as of this commit sequence; a tombstone
  /// with a larger sequence kills the base occurrence.
  std::uint64_t base_seq_ = 0;
  std::vector<std::shared_ptr<const IndexSegment>> segments_;
  std::vector<std::shared_ptr<const EpochTombstone>> tombstones_;

  // Derived at snapshot build (O(pending), small by the folding policy):
  std::size_t num_docs_ = 0;
  std::size_t slot_count_ = 0;
  std::vector<std::uint32_t> segment_slot_offsets_;  ///< parallel to segments_
  /// doc -> largest pending tombstone sequence.
  std::unordered_map<DocumentId, std::uint64_t, DocumentIdHash> latest_tombstone_;
  /// term -> frequency mass removed by pending tombstones (cf adjustment).
  /// Transparent hashing: probed by string_view on the query hot path.
  std::unordered_map<std::string, std::uint64_t, StringHash, std::equal_to<>> dead_cf_;
};

struct EpochConfig {
  /// Trailing same-level pending segments that trigger a writer-side
  /// coalesce into one next-level segment (logarithmic fan-in).
  std::size_t coalesce_fanin = 8;
  /// A base merge is scheduled when pending segment documents (dead
  /// included) exceed max(merge_min_docs, merge_base_fraction * base docs) —
  /// geometric growth keeps total merge work linear-ish in documents
  /// published.
  std::size_t merge_min_docs = 1024;
  double merge_base_fraction = 0.5;
  /// ... or when this many removals are pending (bounds dead postings and
  /// the per-snapshot adjustment maps).
  std::size_t merge_tombstone_threshold = 64;
  /// Fold on a background thread (started lazily at the first merge). With
  /// false, merges run inline on the committing thread — deterministic, for
  /// tests that pin counters.
  bool background_merge = true;
};

/// Monotonic counters; read them to pin epoch behaviour in tests.
struct EpochStats {
  std::uint64_t epochs_published = 0;   ///< commits (one per document/removal)
  std::uint64_t segments_created = 0;   ///< fresh level-0 segments
  std::uint64_t tombstones_created = 0;
  std::uint64_t coalesces = 0;          ///< writer-side segment concatenations
  std::uint64_t merges_completed = 0;   ///< base rebuilds
  std::uint64_t segments_merged = 0;    ///< segments folded into bases
  std::uint64_t tombstones_merged = 0;  ///< tombstones consumed by merges
  std::uint64_t docs_merged = 0;        ///< live documents written into bases
};

/// Owns the epoch pipeline of one DataStore: the single-writer commit API,
/// the published current snapshot, writer-side coalescing, and
/// the (optionally background) base merge. Readers only ever call
/// snapshot(); every other method is writer-side, in DataStore's existing
/// single-writer contract.
class EpochIndex {
 public:
  explicit EpochIndex(EpochConfig config = {});
  ~EpochIndex();

  EpochIndex(const EpochIndex&) = delete;
  EpochIndex& operator=(const EpochIndex&) = delete;

  /// The current published epoch. Thread-safe against the writer: the only
  /// shared state is the pointer itself, guarded by a dedicated mutex whose
  /// critical section is a shared_ptr copy (two refcount ops) — ranking then
  /// proceeds entirely outside any lock. libstdc++'s atomic<shared_ptr> is
  /// internally the same spinlock-sized critical section but its reader
  /// unlock is relaxed, which is a formal (TSan-visible) race on the stored
  /// pointer; a plain mutex costs the same and is race-free.
  std::shared_ptr<const EpochSnapshot> snapshot() const {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    return snapshot_;
  }

  /// Commit one published document (writer thread): terms from the store's
  /// TermCounts/dictionary, exactly as indexed. Publishes epoch+1.
  void commit_publish(DocumentId doc, const TermDictionary& dict, const TermCounts& counts);

  /// Commit one removal (writer thread): \p term_freqs must be the removed
  /// document's exact postings. Publishes epoch+1.
  void commit_remove(DocumentId doc, std::uint32_t doc_length,
                     std::vector<std::pair<std::string, std::uint32_t>> term_freqs);

  /// Block until no base merge is running or scheduled (tests, benches).
  void wait_for_merges();

  /// Fold *everything* pending (all segments and tombstones) into a fresh
  /// read-optimized base and publish the resulting snapshot, regardless of
  /// the merge thresholds. Writer-side; blocks until done. Benches and
  /// tests call this to deterministically reach a block-structured base for
  /// the pruned top-k path.
  void compact();

  EpochStats stats() const;
  const EpochConfig& config() const { return config_; }

 private:
  void publish_snapshot_locked();
  void coalesce_locked();
  void maybe_merge_locked(std::unique_lock<std::mutex>& lock);
  /// Fold base + pending items with seq <= cut into a new base. Inputs are
  /// immutable; runs without the lock held.
  struct MergeJob;
  std::shared_ptr<const CompressedIndex> run_merge_(const MergeJob& job) const;
  void install_merge_locked(const MergeJob& job, std::shared_ptr<const CompressedIndex> base);
  void merge_worker_();

  EpochConfig config_;
  /// Guards only snapshot_ (never held while building or merging), so a
  /// reader's wait is bounded by another thread's pointer copy.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const EpochSnapshot> snapshot_;

  /// Guards all writer/merge state below. Readers never take it.
  mutable std::mutex mu_;
  std::uint64_t epoch_ = 0;
  std::shared_ptr<const CompressedIndex> base_;
  std::uint64_t base_seq_ = 0;
  std::size_t base_docs_ = 0;
  std::vector<std::shared_ptr<const IndexSegment>> segments_;
  std::vector<std::shared_ptr<const EpochTombstone>> tombstones_;
  std::size_t pending_docs_ = 0;  ///< documents across segments_ (dead included)
  EpochStats stats_;

  // Background merge machinery (thread started lazily at the first merge).
  std::thread merge_thread_;
  std::condition_variable merge_cv_;   ///< wakes the worker
  std::condition_variable idle_cv_;    ///< wakes wait_for_merges
  std::unique_ptr<MergeJob> requested_;
  bool merge_inflight_ = false;
  std::uint64_t merge_cut_ = 0;  ///< coalescing must not cross this while inflight
  bool stop_ = false;
};

}  // namespace planetp::index
