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
  PeerState& st = peers_[peer];
  detach_residency(st);
  st.wire.clear();  // decoded-only mode: this filter is the durable copy
  st.filter = std::move(filter);
  st.version = version;
  decoded_bytes_ += decoded_cost(*st.filter);
  ++epoch_;
  // Keep every cached term warm: fix this peer's membership in place.
  reprobe_entries(peer, st.filter.get());
  stats_.full_reprobes += entries_.size();
  evict_decoded_to_bound();
}

void CandidateCache::update_peer_wire(std::uint32_t peer, std::vector<std::uint8_t> wire,
                                      std::uint64_t version) {
  if (wire.empty()) {
    remove_peer(peer);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  PeerState& st = peers_[peer];
  detach_residency(st);
  st.wire = std::move(wire);
  st.version = version;
  ++epoch_;
  // At rest until asked for: entries must not claim membership for a peer
  // that is not decoded-resident (lookup would otherwise rank it from a
  // filter nobody holds).
  reprobe_entries(peer, nullptr);
  stats_.full_reprobes += entries_.size();
}

bool CandidateCache::apply_peer_diff(std::uint32_t peer, const BitVector& diff,
                                     std::uint64_t base_version, std::uint64_t new_version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = peers_.find(peer);
  if (it == peers_.end() || it->second.filter == nullptr || !it->second.wire.empty() ||
      it->second.version != base_version || it->second.filter->bit_size() != diff.size()) {
    return false;
  }
  // Copy-on-write: in-flight queries may still reference the old filter.
  auto updated = std::make_shared<bloom::BloomFilter>(*it->second.filter);
  updated->apply_diff(diff);
  const std::uint64_t nbits = diff.size();
  // Surgical pass: only a term whose bit positions the diff touches can have
  // changed membership at this peer; everything else stays warm untouched.
  for (auto& [term, e] : entries_) {
    bool touched = false;
    for (std::uint32_t j = 0; j < updated->num_hashes() && !touched; ++j) {
      touched = diff.test(static_cast<std::size_t>(e.hp.ith(j) % nbits));
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
  it->second.filter = std::move(updated);
  it->second.version = new_version;
  ++epoch_;
  return true;
}

bool CandidateCache::apply_peer_diff_wire(std::uint32_t peer,
                                          std::span<const std::uint8_t> diff_wire,
                                          std::uint64_t base_version,
                                          std::uint64_t new_version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = peers_.find(peer);
  if (it == peers_.end() || it->second.wire.empty() || it->second.version != base_version) {
    return false;
  }
  PeerState& st = it->second;
  std::vector<std::uint8_t> merged;
  std::vector<std::uint64_t> flips;
  try {
    // Gap-domain merge: the at-rest bytes absorb the diff without ever
    // materializing a bit vector (byte-identical to decode/XOR/re-encode).
    merged = bloom::merge_diff_wire(st.wire, diff_wire);
    if (st.filter != nullptr) flips = bloom::diff_positions(diff_wire);
  } catch (const std::exception&) {
    return false;  // geometry mismatch or corrupt stream: full update needed
  }
  if (st.filter != nullptr) {
    // Mirror the flips onto a private decoded copy (in-flight queries may
    // still reference the old one) and surgically fix only the cached terms
    // whose bit positions the diff touches.
    auto updated = std::make_shared<bloom::BloomFilter>(*st.filter);
    BitVector& bits = updated->mutable_bits();
    for (std::uint64_t pos : flips) {
      if (pos >= bits.size()) continue;
      if (bits.test(static_cast<std::size_t>(pos))) {
        bits.reset(static_cast<std::size_t>(pos));
      } else {
        bits.set(static_cast<std::size_t>(pos));
      }
    }
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
    st.filter = std::move(updated);  // same geometry: decoded_bytes_ unchanged
  }
  st.wire = std::move(merged);
  st.version = new_version;
  ++epoch_;
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
  if (base_version != 0 && !filter_bits.empty() &&
      apply_peer_diff_wire(peer, filter_bits, base_version, version)) {
    return;
  }
  remove_peer(peer);
}

void CandidateCache::remove_peer(std::uint32_t peer) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = peers_.find(peer);
  if (it == peers_.end()) return;
  detach_residency(it->second);
  peers_.erase(it);
  ++epoch_;
  reprobe_entries(peer, nullptr);
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

std::shared_ptr<const bloom::BloomFilter> CandidateCache::resident_filter(std::uint32_t peer) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = peers_.find(peer);
  if (it == peers_.end()) return nullptr;
  PeerState& st = it->second;
  if (st.filter != nullptr) {
    if (st.evictable) decoded_lru_.splice(decoded_lru_.begin(), decoded_lru_, st.lru);
    return st.filter;
  }
  if (st.wire.empty()) return nullptr;
  std::shared_ptr<const bloom::BloomFilter> decoded;
  try {
    decoded = std::make_shared<bloom::BloomFilter>(bloom::decode_filter_bytes(st.wire));
  } catch (const std::exception&) {
    return nullptr;  // corrupt wire; the caller falls back to a full update
  }
  st.filter = decoded;
  decoded_bytes_ += decoded_cost(*st.filter);
  decoded_lru_.push_front(peer);
  st.lru = decoded_lru_.begin();
  st.evictable = true;
  ++stats_.wire_decodes;
  // Residency transition is a population change: cached entries gain this
  // peer, and in-flight miss probes must not install results computed
  // against the pre-decode population.
  ++epoch_;
  reprobe_entries(peer, st.filter.get());
  evict_decoded_to_bound();
  return decoded;
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
        auto it = config_.enabled ? peers_.find(pf.peer) : peers_.end();
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

    if (config_.enabled && !miss_idx.empty()) {
      // Snapshot the whole known population (not just the view) so the new
      // entries answer future queries with different views too. The filters
      // are shared_ptr-owned; keepalive pins them across the unlocked probe.
      // Only decoded-resident peers enter the entries (the at-rest ones have
      // no probeable filter); a later decode-in re-probes every entry so the
      // invariant "entries cover exactly the resident population" holds.
      population.reserve(peers_.size());
      keepalive.reserve(peers_.size());
      for (const auto& [id, st] : peers_) {
        if (st.filter == nullptr) continue;
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
    const bool install = config_.enabled && epoch_ == epoch_snapshot;
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

void CandidateCache::detach_residency(PeerState& st) {
  if (st.filter == nullptr) return;
  decoded_bytes_ -= decoded_cost(*st.filter);
  if (st.evictable) {
    decoded_lru_.erase(st.lru);
    st.evictable = false;
  }
  st.filter.reset();
}

void CandidateCache::evict_decoded_to_bound() {
  if (config_.max_decoded_bytes == 0) return;
  while (decoded_bytes_ > config_.max_decoded_bytes && !decoded_lru_.empty()) {
    const std::uint32_t victim = decoded_lru_.back();
    decoded_lru_.pop_back();
    PeerState& st = peers_.at(victim);
    decoded_bytes_ -= decoded_cost(*st.filter);
    st.filter.reset();  // the wire bytes remain the durable copy
    st.evictable = false;
    reprobe_entries(victim, nullptr);
    ++stats_.decoded_evictions;
    ++epoch_;
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

std::size_t CandidateCache::resident_peers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [id, st] : peers_) n += st.filter != nullptr ? 1 : 0;
  return n;
}

}  // namespace planetp::search
