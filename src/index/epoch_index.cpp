#include "index/epoch_index.hpp"

#include <algorithm>

namespace planetp::index {

const IndexSegment::TermEntry* IndexSegment::find(std::string_view term) const {
  auto it = std::lower_bound(
      terms.begin(), terms.end(), term,
      [](const TermEntry& e, std::string_view t) { return e.term < t; });
  if (it == terms.end() || it->term != term) return nullptr;
  return &*it;
}

EpochSnapshot EpochSnapshot::of(std::shared_ptr<const CompressedIndex> base) {
  EpochSnapshot snap;
  snap.num_docs_ = base->num_documents();
  snap.slot_count_ = base->num_documents();
  snap.base_ = std::move(base);
  return snap;
}

std::uint64_t EpochSnapshot::collection_frequency(std::string_view term,
                                                  std::uint64_t base_cf) const {
  std::uint64_t cf = base_cf;
  for (const auto& seg : segments_) cf += seg->collection_frequency(term);
  if (!dead_cf_.empty()) {
    auto it = dead_cf_.find(term);
    if (it != dead_cf_.end()) cf -= it->second;
  }
  return cf;
}

DocumentId EpochSnapshot::doc_at_slot(std::uint32_t slot) const {
  const std::uint32_t nbase =
      base_ == nullptr ? 0 : static_cast<std::uint32_t>(base_->num_documents());
  if (slot < nbase) return base_->doc_at(slot);
  auto it = std::upper_bound(segment_slot_offsets_.begin(), segment_slot_offsets_.end(), slot);
  const std::size_t s = static_cast<std::size_t>(it - segment_slot_offsets_.begin()) - 1;
  return segments_[s]->docs[slot - segment_slot_offsets_[s]];
}

std::uint32_t EpochSnapshot::doc_length_at_slot(std::uint32_t slot) const {
  const std::uint32_t nbase =
      base_ == nullptr ? 0 : static_cast<std::uint32_t>(base_->num_documents());
  if (slot < nbase) return base_->doc_length_at(slot);
  auto it = std::upper_bound(segment_slot_offsets_.begin(), segment_slot_offsets_.end(), slot);
  const std::size_t s = static_cast<std::size_t>(it - segment_slot_offsets_.begin()) - 1;
  return segments_[s]->doc_lengths[slot - segment_slot_offsets_[s]];
}

/// Everything a base merge reads, captured immutably under the lock so the
/// fold can run without it.
struct EpochIndex::MergeJob {
  std::shared_ptr<const CompressedIndex> base;
  std::uint64_t base_seq = 0;
  std::vector<std::shared_ptr<const IndexSegment>> segments;
  std::vector<std::shared_ptr<const EpochTombstone>> tombstones;
  std::uint64_t cut = 0;  ///< epoch at capture; folds every item with seq <= cut
};

EpochIndex::EpochIndex(EpochConfig config) : config_(config) {
  // Epoch 0: empty but never null, so readers can always load-and-rank.
  publish_snapshot_locked();
}

EpochIndex::~EpochIndex() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  merge_cv_.notify_all();
  if (merge_thread_.joinable()) merge_thread_.join();
}

void EpochIndex::commit_publish(DocumentId doc, const TermDictionary& dict,
                                const TermCounts& counts) {
  std::unique_lock<std::mutex> lock(mu_);
  const std::uint64_t seq = ++epoch_;

  auto seg = std::make_shared<IndexSegment>();
  // (term, freq) sorted by term string: segment entries support the binary
  // search in IndexSegment::find.
  std::vector<std::pair<std::string_view, std::uint32_t>> tf;
  tf.reserve(counts.terms().size());
  std::uint32_t length = 0;
  for (TermId t : counts.terms()) {
    const std::uint32_t f = counts.count(t);
    tf.emplace_back(dict.term(t), f);
    length += f;
  }
  std::sort(tf.begin(), tf.end());
  seg->docs.push_back(doc);
  seg->doc_lengths.push_back(length);
  seg->doc_seqs.push_back(seq);
  seg->min_seq = seg->max_seq = seq;
  seg->level = 0;
  seg->terms.reserve(tf.size());
  for (const auto& [term, f] : tf) {
    IndexSegment::TermEntry e;
    e.term.assign(term);
    e.dense.push_back(0);
    e.freqs.push_back(f);
    e.collection_freq = f;
    seg->terms.push_back(std::move(e));
  }
  segments_.push_back(std::move(seg));
  ++pending_docs_;
  ++stats_.segments_created;
  ++stats_.epochs_published;

  coalesce_locked();
  publish_snapshot_locked();
  maybe_merge_locked(lock);
}

void EpochIndex::commit_remove(DocumentId doc, std::uint32_t doc_length,
                               std::vector<std::pair<std::string, std::uint32_t>> term_freqs) {
  std::unique_lock<std::mutex> lock(mu_);
  auto tomb = std::make_shared<EpochTombstone>();
  tomb->seq = ++epoch_;
  tomb->doc = doc;
  tomb->doc_length = doc_length;
  tomb->term_freqs = std::move(term_freqs);
  tombstones_.push_back(std::move(tomb));
  ++stats_.tombstones_created;
  ++stats_.epochs_published;

  publish_snapshot_locked();
  maybe_merge_locked(lock);
}

void EpochIndex::publish_snapshot_locked() {
  auto snap = std::make_shared<EpochSnapshot>();
  snap->epoch_ = epoch_;
  snap->base_ = base_;
  snap->base_seq_ = base_seq_;
  snap->segments_ = segments_;
  snap->tombstones_ = tombstones_;

  std::size_t slots = base_ == nullptr ? 0 : base_->num_documents();
  snap->segment_slot_offsets_.reserve(segments_.size());
  for (const auto& seg : segments_) {
    snap->segment_slot_offsets_.push_back(static_cast<std::uint32_t>(slots));
    slots += seg->docs.size();
  }
  snap->slot_count_ = slots;
  // Every pending tombstone kills exactly one publish occurrence still held
  // by base_ or segments_, so live documents count exactly.
  snap->num_docs_ = base_docs_ + pending_docs_ - tombstones_.size();
  for (const auto& t : tombstones_) {
    auto [it, inserted] = snap->latest_tombstone_.try_emplace(t->doc, t->seq);
    if (!inserted && it->second < t->seq) it->second = t->seq;
    for (const auto& [term, f] : t->term_freqs) {
      auto [cit, cins] = snap->dead_cf_.try_emplace(std::string(term), f);
      if (!cins) cit->second += f;
    }
  }
  // The snapshot is fully built before the critical section; the mutex both
  // publishes its contents to readers and totally orders epochs, so each
  // reader observes a non-decreasing epoch sequence.
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(snap);
}

void EpochIndex::coalesce_locked() {
  if (config_.coalesce_fanin < 2) return;
  const std::size_t fanin = config_.coalesce_fanin;
  while (segments_.size() >= fanin) {
    const std::size_t n = segments_.size();
    const std::uint32_t level = segments_[n - 1]->level;
    bool eligible = true;
    for (std::size_t i = n - fanin; i < n; ++i) {
      // Same tier only (geometric growth), and never a segment a pending
      // merge has captured — the fold drops exactly the captured prefix.
      if (segments_[i]->level != level ||
          (merge_cut_ != 0 && segments_[i]->min_seq <= merge_cut_)) {
        eligible = false;
        break;
      }
    }
    if (!eligible) return;

    // Pure concatenation: per-document commit sequences ride along, so
    // liveness checks (and the collection-frequency arithmetic, which
    // assumes dead postings survive until a base merge) stay exact.
    auto merged = std::make_shared<IndexSegment>();
    merged->level = level + 1;
    merged->min_seq = segments_[n - fanin]->min_seq;
    merged->max_seq = segments_[n - 1]->max_seq;
    std::size_t total_docs = 0;
    for (std::size_t i = n - fanin; i < n; ++i) total_docs += segments_[i]->docs.size();
    merged->docs.reserve(total_docs);
    merged->doc_lengths.reserve(total_docs);
    merged->doc_seqs.reserve(total_docs);
    std::vector<std::uint32_t> doc_offsets;
    doc_offsets.reserve(fanin);
    for (std::size_t i = n - fanin; i < n; ++i) {
      const IndexSegment& s = *segments_[i];
      doc_offsets.push_back(static_cast<std::uint32_t>(merged->docs.size()));
      merged->docs.insert(merged->docs.end(), s.docs.begin(), s.docs.end());
      merged->doc_lengths.insert(merged->doc_lengths.end(), s.doc_lengths.begin(),
                                 s.doc_lengths.end());
      merged->doc_seqs.insert(merged->doc_seqs.end(), s.doc_seqs.begin(), s.doc_seqs.end());
    }

    // K-way merge of the sorted per-segment term lists. Entries are tagged
    // with their group position so concatenated dense ids stay ascending.
    struct Tagged {
      const IndexSegment::TermEntry* entry;
      std::uint32_t group;  ///< position within the coalesced group
    };
    std::vector<std::pair<std::string_view, Tagged>> all;
    for (std::size_t i = n - fanin; i < n; ++i) {
      for (const auto& e : segments_[i]->terms) {
        all.emplace_back(e.term, Tagged{&e, static_cast<std::uint32_t>(i - (n - fanin))});
      }
    }
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first < b.first;
      return a.second.group < b.second.group;
    });
    for (std::size_t i = 0; i < all.size();) {
      std::size_t j = i;
      while (j < all.size() && all[j].first == all[i].first) ++j;
      IndexSegment::TermEntry e;
      e.term.assign(all[i].first);
      for (std::size_t k = i; k < j; ++k) {
        const Tagged& tag = all[k].second;
        const std::uint32_t offset = doc_offsets[tag.group];
        for (std::size_t p = 0; p < tag.entry->dense.size(); ++p) {
          e.dense.push_back(offset + tag.entry->dense[p]);
          e.freqs.push_back(tag.entry->freqs[p]);
        }
        e.collection_freq += tag.entry->collection_freq;
      }
      merged->terms.push_back(std::move(e));
      i = j;
    }

    segments_.erase(segments_.begin() + static_cast<std::ptrdiff_t>(n - fanin), segments_.end());
    segments_.push_back(std::move(merged));
    ++stats_.coalesces;
  }
}

void EpochIndex::maybe_merge_locked(std::unique_lock<std::mutex>& lock) {
  if (requested_ != nullptr || merge_inflight_) return;
  const std::size_t doc_threshold = std::max(
      config_.merge_min_docs,
      static_cast<std::size_t>(config_.merge_base_fraction * static_cast<double>(base_docs_)));
  const bool docs_due = pending_docs_ >= doc_threshold && pending_docs_ > 0;
  const bool tombstones_due =
      !tombstones_.empty() && tombstones_.size() >= config_.merge_tombstone_threshold;
  if (!docs_due && !tombstones_due) return;

  auto job = std::make_unique<MergeJob>();
  job->base = base_;
  job->base_seq = base_seq_;
  job->segments = segments_;
  job->tombstones = tombstones_;
  job->cut = epoch_;
  merge_cut_ = job->cut;

  if (config_.background_merge) {
    requested_ = std::move(job);
    if (!merge_thread_.joinable()) {
      merge_thread_ = std::thread([this] { merge_worker_(); });
    }
    merge_cv_.notify_one();
    return;
  }

  // Inline mode: deterministic for tests that pin counters. The lock stays
  // held — readers never contend for it, and the writer is the caller.
  merge_inflight_ = true;
  std::shared_ptr<const CompressedIndex> merged = run_merge_(*job);
  install_merge_locked(*job, std::move(merged));
  merge_inflight_ = false;
  idle_cv_.notify_all();
  (void)lock;
}

std::shared_ptr<const CompressedIndex> EpochIndex::run_merge_(const MergeJob& job) const {
  // Liveness at the cut, judged only by captured tombstones: a tombstone
  // with seq > cut stays pending and keeps killing the (then merged-as-live)
  // occurrence through the snapshot's exact sequence comparison.
  std::unordered_map<DocumentId, std::uint64_t, DocumentIdHash> latest;
  for (const auto& t : job.tombstones) {
    auto [it, inserted] = latest.try_emplace(t->doc, t->seq);
    if (!inserted && it->second < t->seq) it->second = t->seq;
  }
  auto dead = [&latest](DocumentId doc, std::uint64_t seq) {
    auto it = latest.find(doc);
    return it != latest.end() && it->second > seq;
  };

  // Live documents, renumbered densely in ascending DocumentId order — the
  // exact layout CompressedIndex::build would produce.
  std::vector<std::pair<DocumentId, std::uint32_t>> live;
  if (job.base != nullptr) {
    for (std::uint32_t d = 0; d < job.base->num_documents(); ++d) {
      const DocumentId doc = job.base->doc_at(d);
      if (!dead(doc, job.base_seq)) live.emplace_back(doc, job.base->doc_length_at(d));
    }
  }
  for (const auto& seg : job.segments) {
    for (std::size_t i = 0; i < seg->docs.size(); ++i) {
      if (!dead(seg->docs[i], seg->doc_seqs[i])) {
        live.emplace_back(seg->docs[i], seg->doc_lengths[i]);
      }
    }
  }
  std::sort(live.begin(), live.end());
  std::vector<DocumentId> docs;
  std::vector<std::uint32_t> lengths;
  std::unordered_map<DocumentId, std::uint32_t, DocumentIdHash> dense_of;
  docs.reserve(live.size());
  lengths.reserve(live.size());
  dense_of.reserve(live.size());
  for (const auto& [doc, length] : live) {
    dense_of.emplace(doc, static_cast<std::uint32_t>(docs.size()));
    docs.push_back(doc);
    lengths.push_back(length);
  }

  CompressedIndex::Builder builder(std::move(docs), std::move(lengths));

  std::vector<std::string> terms;
  if (job.base != nullptr) {
    job.base->for_each_term([&terms](std::string_view t) { terms.emplace_back(t); });
  }
  for (const auto& seg : job.segments) {
    for (const auto& e : seg->terms) terms.push_back(e.term);
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());

  std::vector<std::pair<std::uint32_t, std::uint32_t>> postings;
  for (const std::string& term : terms) {
    postings.clear();
    if (job.base != nullptr) {
      for (auto c = job.base->postings(term); !c.done(); c.next()) {
        if (!dead(c.doc(), job.base_seq)) postings.emplace_back(dense_of.at(c.doc()), c.term_freq());
      }
    }
    for (const auto& seg : job.segments) {
      const IndexSegment::TermEntry* e = seg->find(term);
      if (e == nullptr) continue;
      for (std::size_t i = 0; i < e->dense.size(); ++i) {
        const std::uint32_t d = e->dense[i];
        if (!dead(seg->docs[d], seg->doc_seqs[d])) {
          postings.emplace_back(dense_of.at(seg->docs[d]), e->freqs[i]);
        }
      }
    }
    std::sort(postings.begin(), postings.end());
    builder.add_term(term, postings);
  }
  return std::make_shared<const CompressedIndex>(builder.take());
}

void EpochIndex::install_merge_locked(const MergeJob& job,
                                      std::shared_ptr<const CompressedIndex> merged) {
  base_ = std::move(merged);
  base_seq_ = job.cut;
  base_docs_ = base_->num_documents();

  // The captured items are exactly the prefixes with seq <= cut: commits
  // after capture have larger sequences and coalescing never crossed the
  // cut.
  std::size_t folded_segments = 0;
  while (folded_segments < segments_.size() && segments_[folded_segments]->max_seq <= job.cut) {
    ++folded_segments;
  }
  segments_.erase(segments_.begin(), segments_.begin() + static_cast<std::ptrdiff_t>(folded_segments));
  std::size_t folded_tombstones = 0;
  while (folded_tombstones < tombstones_.size() && tombstones_[folded_tombstones]->seq <= job.cut) {
    ++folded_tombstones;
  }
  tombstones_.erase(tombstones_.begin(),
                    tombstones_.begin() + static_cast<std::ptrdiff_t>(folded_tombstones));
  pending_docs_ = 0;
  for (const auto& seg : segments_) pending_docs_ += seg->docs.size();
  merge_cut_ = 0;

  ++stats_.merges_completed;
  stats_.segments_merged += job.segments.size();
  stats_.tombstones_merged += job.tombstones.size();
  stats_.docs_merged += base_docs_;

  publish_snapshot_locked();
}

void EpochIndex::merge_worker_() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    merge_cv_.wait(lock, [this] { return stop_ || requested_ != nullptr; });
    if (stop_) return;
    std::unique_ptr<MergeJob> job = std::move(requested_);
    merge_inflight_ = true;
    lock.unlock();
    std::shared_ptr<const CompressedIndex> merged = run_merge_(*job);
    lock.lock();
    install_merge_locked(*job, std::move(merged));
    merge_inflight_ = false;
    idle_cv_.notify_all();
    // More pending may have piled up behind the fold; re-evaluate while we
    // still hold the lock so wait_for_merges observes a settled state.
    maybe_merge_locked(lock);
  }
}

void EpochIndex::wait_for_merges() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return requested_ == nullptr && !merge_inflight_; });
}

void EpochIndex::compact() {
  std::unique_lock<std::mutex> lock(mu_);
  // Let any scheduled/in-flight merge settle first so the job below
  // captures the complete pending state.
  idle_cv_.wait(lock, [this] { return requested_ == nullptr && !merge_inflight_; });
  if (segments_.empty() && tombstones_.empty()) return;  // base already holds everything

  MergeJob job;
  job.base = base_;
  job.base_seq = base_seq_;
  job.segments = segments_;
  job.tombstones = tombstones_;
  job.cut = epoch_;
  merge_cut_ = job.cut;

  // Inline under mu_ (the writer-side lock readers never take), same as the
  // deterministic inline-merge mode: when compact() returns, the published
  // snapshot's base holds every committed document.
  merge_inflight_ = true;
  std::shared_ptr<const CompressedIndex> merged = run_merge_(job);
  install_merge_locked(job, std::move(merged));
  merge_inflight_ = false;
  idle_cv_.notify_all();
}

EpochStats EpochIndex::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace planetp::index
