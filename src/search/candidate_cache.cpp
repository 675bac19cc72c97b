#include "search/candidate_cache.hpp"

#include <algorithm>
#include <future>
#include <unordered_set>

#include "bloom/wire.hpp"

namespace planetp::search {

namespace {

/// The filter-major probe kernel. For each filter, all terms are tested
/// back-to-back: the hot loop touches one filter's word array at a time
/// (instead of term-major re-walks over the whole population), hashes are
/// precomputed, bit reads are word-aligned, and the next term's words are
/// prefetched while the current term is tested — the probe positions are
/// uniform over a 400k-bit vector, so without prefetch nearly every read
/// misses cache. out[t] collects the peer ids whose filter contains term t,
/// in filter order.
void probe_shard(const std::pair<std::uint32_t, const bloom::BloomFilter*>* filters,
                 std::size_t count, const HashPair* terms, std::size_t nterms,
                 std::vector<std::vector<std::uint32_t>>* out) {
  for (std::size_t i = 0; i < count; ++i) {
    const bloom::BloomFilter* f = filters[i].second;
    if (f == nullptr) continue;
    const BitVector::Word* words = f->bits().words().data();
    const std::uint64_t nbits = f->bit_size();
    const std::uint32_t k = f->num_hashes();
    if (nbits == 0) continue;
    auto prefetch = [&](std::size_t t) {
      for (std::uint32_t j = 0; j < k; ++j) {
        __builtin_prefetch(&words[(terms[t].ith(j) % nbits) >> 6]);
      }
    };
    if (nterms > 0) prefetch(0);
    for (std::size_t t = 0; t < nterms; ++t) {
      if (t + 1 < nterms) prefetch(t + 1);
      bool all = true;
      for (std::uint32_t j = 0; j < k; ++j) {
        const std::uint64_t pos = terms[t].ith(j) % nbits;
        if (((words[pos >> 6] >> (pos & 63)) & 1u) == 0) {
          all = false;
          break;
        }
      }
      if (all) (*out)[t].push_back(filters[i].first);
    }
  }
}

/// Per-query membership test over the view's cache-backed peers. Dense byte
/// map for the common small-id case, hash set otherwise.
class ViewSet {
 public:
  explicit ViewSet(std::uint32_t max_id) {
    static constexpr std::uint32_t kDenseLimit = 1u << 22;  // 4 MB byte map cap
    dense_ok_ = max_id < kDenseLimit;
    if (dense_ok_) dense_.assign(static_cast<std::size_t>(max_id) + 1, 0);
  }

  /// Marks \p id; returns false if it was already marked (duplicate view row).
  bool insert(std::uint32_t id) {
    if (dense_ok_) {
      if (dense_[id] != 0) return false;
      dense_[id] = 1;
      return true;
    }
    return sparse_.insert(id).second;
  }

  bool contains(std::uint32_t id) const {
    if (dense_ok_) return id < dense_.size() && dense_[id] != 0;
    return sparse_.contains(id);
  }

 private:
  bool dense_ok_ = true;
  std::vector<std::uint8_t> dense_;
  std::unordered_set<std::uint32_t> sparse_;
};

/// Heap bytes a decoded filter's bit vector occupies.
std::size_t decoded_cost(const bloom::BloomFilter& f) {
  return f.bits().words().size() * sizeof(BitVector::Word);
}

}  // namespace

/// The backed/extra split of one view at one population epoch. Callers hand
/// lookup() the same directory view query after query; re-deriving the split
/// costs a hash lookup per view row, so it is memoized and reused while the
/// rows (peer, filter pointer) and the epoch are unchanged. Immutable once
/// published; lookups pin their snapshot with a shared_ptr so a concurrent
/// query with a different view can replace the memo underneath them.
struct CandidateCache::ViewMemo {
  explicit ViewMemo(std::uint32_t max_id) : backed(max_id) {}

  std::uint64_t epoch = 0;
  /// Every view row verbatim, for the equality check on reuse.
  std::vector<std::pair<std::uint32_t, const bloom::BloomFilter*>> rows;
  /// Rows not backed by the cache (unknown peer, foreign pointer, duplicate).
  std::vector<std::pair<std::uint32_t, const bloom::BloomFilter*>> extra;
  ViewSet backed;
};

CandidateCache::CandidateCache(CandidateCacheConfig config) : config_(config) {}

CandidateCache::~CandidateCache() = default;

void CandidateCache::update_peer(std::uint32_t peer,
                                 std::shared_ptr<const bloom::BloomFilter> filter,
                                 std::uint64_t version) {
  if (filter == nullptr) {
    remove_peer(peer);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  install(peer, std::move(filter), version);
}

std::shared_ptr<const bloom::BloomFilter> CandidateCache::resident_filter(
    std::uint32_t peer, std::uint64_t version, std::span<const std::uint8_t> wire) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = peers_.find(peer);
  if (it != peers_.end() && it->second.version == version) {
    decoded_lru_.splice(decoded_lru_.begin(), decoded_lru_, it->second.lru);
    return it->second.filter;
  }
  std::shared_ptr<const bloom::BloomFilter> decoded;
  try {
    decoded = std::make_shared<bloom::BloomFilter>(bloom::decode_filter_bytes(wire));
  } catch (const std::exception&) {
    if (it != peers_.end()) drop(it);  // the older copy is stale either way
    return nullptr;
  }
  ++stats_.wire_decodes;
  install(peer, decoded, version);
  return decoded;
}

bool CandidateCache::apply_peer_diff(std::uint32_t peer, const BitVector& diff,
                                     std::uint64_t base_version, std::uint64_t new_version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = peers_.find(peer);
  if (it == peers_.end() || it->second.version != base_version ||
      it->second.filter->bit_size() != diff.size()) {
    return false;
  }
  auto updated = std::make_shared<bloom::BloomFilter>(*it->second.filter);
  updated->apply_diff(diff);
  std::vector<std::uint64_t> flips;
  diff.for_each_set([&](std::size_t pos) { flips.push_back(pos); });
  apply_flips(it, std::move(updated), flips, new_version);
  return true;
}

bool CandidateCache::touch_peer(std::uint32_t peer, std::uint64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = peers_.find(peer);
  if (it == peers_.end()) return false;
  // Content unchanged: entries stay valid, no epoch bump needed.
  it->second.version = version;
  return true;
}

void CandidateCache::apply_update(std::uint32_t peer, std::uint64_t version,
                                  bool filter_changed, std::uint64_t base_version,
                                  std::span<const std::uint8_t> filter_bits) {
  if (!filter_changed) {
    touch_peer(peer, version);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = peers_.find(peer);
  if (it == peers_.end()) return;  // not resident: nothing to keep current
  if (base_version != 0 && !filter_bits.empty() && it->second.version == base_version) {
    std::vector<std::uint64_t> flips;
    try {
      flips = bloom::diff_positions(filter_bits, it->second.filter->bit_size());
    } catch (const std::exception&) {
      drop(it);  // corrupt or mis-sized diff: decode the record's bytes on next use
      return;
    }
    auto updated = std::make_shared<bloom::BloomFilter>(*it->second.filter);
    BitVector& bits = updated->mutable_bits();
    for (const std::uint64_t pos : flips) {
      bits.assign(static_cast<std::size_t>(pos), !bits.test(static_cast<std::size_t>(pos)));
    }
    apply_flips(it, std::move(updated), flips, version);
    return;
  }
  drop(it);  // a full filter or a diff against another version
}

void CandidateCache::remove_peer(std::uint32_t peer) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = peers_.find(peer);
  if (it != peers_.end()) drop(it);
}

void CandidateCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  peers_.clear();
  entries_.clear();
  lru_.clear();
  decoded_lru_.clear();
  decoded_bytes_ = 0;
  memo_.reset();
  ++epoch_;
}

std::optional<std::uint64_t> CandidateCache::version_of(std::uint32_t peer) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = peers_.find(peer);
  if (it == peers_.end()) return std::nullopt;
  return it->second.version;
}

std::shared_ptr<const bloom::BloomFilter> CandidateCache::filter_of(std::uint32_t peer) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = peers_.find(peer);
  return it == peers_.end() ? nullptr : it->second.filter;
}

const bloom::BloomFilter* CandidateCache::filter_ptr(std::uint32_t peer) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = peers_.find(peer);
  return it == peers_.end() ? nullptr : it->second.filter.get();
}

IpfTable CandidateCache::lookup(const std::vector<std::string>& terms,
                                const std::vector<PeerFilter>& view) {
  return lookup(HashedTerms::from(terms), view);
}

IpfTable CandidateCache::lookup(const HashedTerms& q, const std::vector<PeerFilter>& view) {
  IpfTable table;
  table.terms_ = q.terms;
  table.num_peers_ = view.size();
  for (const PeerFilter& pf : view) {
    if (pf.suspicion != 0) table.suspicion_[pf.peer] = pf.suspicion;
  }

  const std::size_t nterms = q.terms.size();
  std::vector<std::vector<std::uint32_t>> cand(nterms);

  std::shared_ptr<const ViewMemo> memo;
  std::vector<std::size_t> miss_idx;
  std::vector<HashPair> miss_hashes;
  std::vector<std::pair<std::uint32_t, const bloom::BloomFilter*>> population;
  std::vector<std::shared_ptr<const bloom::BloomFilter>> keepalive;
  std::uint64_t epoch_snapshot = 0;

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.lookups;

    // Classify view rows: rows whose filter pointer is the cache's stored
    // filter resolve through the candidate entries; anything else (unknown
    // peer, stale/foreign pointer, duplicated id) falls back to direct
    // probes — correctness never depends on the caller keeping the cache
    // synchronized. The split is memoized: callers rebuild the same view
    // query after query, so while the rows and the population epoch are
    // unchanged the per-row hash lookups are skipped entirely.
    bool reuse = memo_ != nullptr && memo_->epoch == epoch_ && memo_->rows.size() == view.size();
    for (std::size_t i = 0; reuse && i < view.size(); ++i) {
      reuse = memo_->rows[i].first == view[i].peer && memo_->rows[i].second == view[i].filter;
    }
    if (reuse) {
      ++stats_.view_memo_hits;
      memo = memo_;
    } else {
      std::uint32_t max_id = 0;
      for (const PeerFilter& pf : view) {
        if (pf.filter != nullptr) max_id = std::max(max_id, pf.peer);
      }
      auto fresh = std::make_shared<ViewMemo>(max_id);
      fresh->epoch = epoch_;
      fresh->rows.reserve(view.size());
      for (const PeerFilter& pf : view) {
        fresh->rows.emplace_back(pf.peer, pf.filter);
        if (pf.filter == nullptr) continue;
        auto it = peers_.find(pf.peer);
        if (it != peers_.end() && it->second.filter.get() == pf.filter &&
            fresh->backed.insert(pf.peer)) {
          continue;
        }
        fresh->extra.emplace_back(pf.peer, pf.filter);
      }
      memo = fresh;
      memo_ = std::move(fresh);
    }
    const ViewSet& backed = memo->backed;

    for (std::size_t t = 0; t < nterms; ++t) {
      auto it = entries_.find(std::string_view(q.terms[t]));
      if (it != entries_.end()) {
        ++stats_.term_hits;
        lru_.splice(lru_.begin(), lru_, it->second.lru);
        for (std::uint32_t p : it->second.peers) {
          if (backed.contains(p)) cand[t].push_back(p);
        }
      } else {
        ++stats_.term_misses;
        miss_idx.push_back(t);
        miss_hashes.push_back(q.hashes[t]);
      }
    }

    if (!miss_idx.empty()) {
      // Snapshot the whole resident population (not just the view) so the
      // new entries answer future queries with different views too. The
      // filters are shared_ptr-owned; keepalive pins them across the
      // unlocked probe.
      population.reserve(peers_.size());
      keepalive.reserve(peers_.size());
      for (const auto& [id, st] : peers_) {
        population.emplace_back(id, st.filter.get());
        keepalive.push_back(st.filter);
      }
      std::sort(population.begin(), population.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      epoch_snapshot = epoch_;
    }
  }

  // Cache misses: one batched filter-major pass over the known population.
  if (!miss_idx.empty()) {
    std::vector<std::vector<std::uint32_t>> miss_results(miss_hashes.size());
    if (!population.empty()) probe_batch(population, miss_hashes, miss_results);

    std::lock_guard<std::mutex> lock(mu_);
    // Only install results when the population did not change underneath the
    // probe; the query answer itself is always consistent with the caller's
    // view (whose filters keepalive pinned).
    const bool install = epoch_ == epoch_snapshot;
    for (std::size_t m = 0; m < miss_idx.size(); ++m) {
      for (std::uint32_t p : miss_results[m]) {
        if (memo->backed.contains(p)) cand[miss_idx[m]].push_back(p);
      }
      const std::string& term = q.terms[miss_idx[m]];
      if (install && !entries_.contains(std::string_view(term))) {
        lru_.push_front(term);
        TermEntry entry;
        entry.hp = miss_hashes[m];
        entry.peers = std::move(miss_results[m]);
        entry.lru = lru_.begin();
        entries_.emplace(term, std::move(entry));
      }
    }
    if (install) evict_to_bound();
  }

  // Direct probes for the unbacked view rows, all terms, same kernel.
  if (!memo->extra.empty()) {
    std::vector<std::vector<std::uint32_t>> extra_results(nterms);
    probe_batch(memo->extra, q.hashes, extra_results);
    for (std::size_t t = 0; t < nterms; ++t) {
      cand[t].insert(cand[t].end(), extra_results[t].begin(), extra_results[t].end());
    }
  }

  for (std::size_t t = 0; t < nterms; ++t) {
    IpfTable::Entry entry;
    entry.peers = std::move(cand[t]);
    entry.ipf = ipf(table.num_peers_, entry.peers.size());
    table.entries_.emplace(q.terms[t], std::move(entry));
  }
  return table;
}

void CandidateCache::probe_batch(
    const std::vector<std::pair<std::uint32_t, const bloom::BloomFilter*>>& filters,
    const std::vector<HashPair>& terms, std::vector<std::vector<std::uint32_t>>& out) {
  out.assign(terms.size(), {});
  if (filters.empty() || terms.empty()) return;

  ThreadPool* pool = nullptr;
  std::size_t nthreads = 1;
  if (config_.parallel_threshold > 0 && filters.size() >= config_.parallel_threshold) {
    std::lock_guard<std::mutex> lock(mu_);
    if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(config_.max_threads);
    pool = pool_.get();
    nthreads = std::max<std::size_t>(1, pool->size());
    ++stats_.parallel_scans;
  }
  if (pool == nullptr) {
    probe_shard(filters.data(), filters.size(), terms.data(), terms.size(), &out);
    return;
  }

  // Contiguous shards keep each partial result in filter order; merging in
  // shard order reproduces the single-threaded output exactly.
  const std::size_t shards = std::min(nthreads, filters.size());
  const std::size_t chunk = (filters.size() + shards - 1) / shards;
  std::vector<std::vector<std::vector<std::uint32_t>>> partial(
      shards, std::vector<std::vector<std::uint32_t>>(terms.size()));
  std::vector<std::future<void>> pending;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t begin = s * chunk;
    const std::size_t end = std::min(begin + chunk, filters.size());
    if (begin >= end) break;
    pending.push_back(pool->submit([&filters, &terms, &partial, s, begin, end] {
      probe_shard(filters.data() + begin, end - begin, terms.data(), terms.size(),
                  &partial[s]);
    }));
  }
  for (auto& f : pending) f.get();
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::size_t t = 0; t < terms.size(); ++t) {
      out[t].insert(out[t].end(), partial[s][t].begin(), partial[s][t].end());
    }
  }
}

void CandidateCache::reprobe_entries(std::uint32_t peer, const bloom::BloomFilter* filter) {
  for (auto& [term, e] : entries_) {
    const bool contains = filter != nullptr && filter->contains(e.hp);
    auto pos = std::lower_bound(e.peers.begin(), e.peers.end(), peer);
    const bool present = pos != e.peers.end() && *pos == peer;
    if (contains && !present) {
      e.peers.insert(pos, peer);
    } else if (!contains && present) {
      e.peers.erase(pos);
    }
  }
}

void CandidateCache::evict_to_bound() {
  while (entries_.size() > config_.max_terms && !lru_.empty()) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void CandidateCache::install(std::uint32_t peer,
                             std::shared_ptr<const bloom::BloomFilter> filter,
                             std::uint64_t version) {
  auto [it, fresh] = peers_.try_emplace(peer);
  PeerState& st = it->second;
  if (fresh) {
    decoded_lru_.push_front(peer);
  } else {
    decoded_bytes_ -= decoded_cost(*st.filter);
    decoded_lru_.splice(decoded_lru_.begin(), decoded_lru_, st.lru);
  }
  st.lru = decoded_lru_.begin();
  st.filter = std::move(filter);
  st.version = version;
  decoded_bytes_ += decoded_cost(*st.filter);
  ++epoch_;
  // Keep every cached term warm: fix this peer's membership in place.
  reprobe_entries(peer, st.filter.get());
  stats_.full_reprobes += entries_.size();
  evict_decoded_to_bound();
}

void CandidateCache::apply_flips(PeerMap::iterator it,
                                 std::shared_ptr<const bloom::BloomFilter> updated,
                                 const std::vector<std::uint64_t>& flips,
                                 std::uint64_t version) {
  // Surgical pass: only a term whose bit positions the diff touches can have
  // changed membership at this peer; everything else stays warm untouched.
  const std::uint32_t peer = it->first;
  const std::uint64_t nbits = updated->bit_size();
  for (auto& [term, e] : entries_) {
    bool touched = false;
    for (std::uint32_t j = 0; j < updated->num_hashes() && !touched; ++j) {
      touched = std::binary_search(flips.begin(), flips.end(), e.hp.ith(j) % nbits);
    }
    if (!touched) {
      ++stats_.surgical_keeps;
      continue;
    }
    ++stats_.surgical_fixes;
    const bool contains = updated->contains(e.hp);
    auto pos = std::lower_bound(e.peers.begin(), e.peers.end(), peer);
    const bool present = pos != e.peers.end() && *pos == peer;
    if (contains && !present) {
      e.peers.insert(pos, peer);
    } else if (!contains && present) {
      e.peers.erase(pos);
    }
  }
  // Copy-on-write: in-flight queries may still reference the old filter.
  // Same geometry, so decoded_bytes_ is unchanged.
  it->second.filter = std::move(updated);
  it->second.version = version;
  ++epoch_;
}

void CandidateCache::drop(PeerMap::iterator it) {
  const std::uint32_t peer = it->first;
  decoded_bytes_ -= decoded_cost(*it->second.filter);
  decoded_lru_.erase(it->second.lru);
  peers_.erase(it);
  ++epoch_;
  reprobe_entries(peer, nullptr);
}

void CandidateCache::evict_decoded_to_bound() {
  if (config_.max_decoded_bytes == 0) return;
  while (decoded_bytes_ > config_.max_decoded_bytes && !decoded_lru_.empty()) {
    drop(peers_.find(decoded_lru_.back()));
    ++stats_.decoded_evictions;
  }
}

CandidateCacheStats CandidateCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t CandidateCache::cached_terms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::uint64_t CandidateCache::population_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

std::size_t CandidateCache::known_peers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peers_.size();
}

std::size_t CandidateCache::decoded_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return decoded_bytes_;
}

}  // namespace planetp::search
