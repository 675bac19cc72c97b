#include "gossip/directory.hpp"

#include <algorithm>

namespace planetp::gossip {

void Directory::adopt_base(DirectoryBasePtr base) {
  base_ = std::move(base);
  records_.clear();
  tombstones_.clear();
  ids_.clear();
  extra_ids_.clear();
  offline_count_ = 0;
  size_ = base_->records.size();
  cached_summary_.reset();
  cached_delta_.reset();
  cached_view_.reset();
  bump_epoch();
}

void Directory::put_self(PeerRecord record) {
  const PeerId id = record.id;
  record.online = true;  // we are definitionally online
  auto it = records_.find(id);
  if (it == records_.end()) {
    // In based mode the id may already be visible through the base; only a
    // genuinely new id grows the live set.
    const bool was_visible = base_ != nullptr && !expired(id) && find_in_base(id) != nullptr;
    records_.emplace(id, std::move(record));
    if (!was_visible) {
      add_id(id);
      if (base_ != nullptr) ++size_;
    }
  } else {
    if (!it->second.online) --offline_count_;
    it->second = std::move(record);
  }
  bump_epoch();
}

bool Directory::apply(const PeerRecord& record) {
  bool resurrected = false;
  if (auto t = tombstones_.find(record.id); t != tombstones_.end()) {
    if (record.version <= t->second) return false;  // expired stays expired
    tombstones_.erase(t);  // a genuinely newer version is a real rejoin
    resurrected = true;
  }
  const PeerRecord* existing = find(record.id);
  if (existing == nullptr) {
    if (!record.online) ++offline_count_;
    records_.emplace(record.id, record);
    add_id(record.id);
    if (base_ != nullptr) ++size_;
    bump_epoch();
    return true;
  }
  if (record.version <= existing->version) {
    return false;
  }
  // Preserve nothing local: a newer version means fresh presence knowledge,
  // so the peer is believed online again.
  if (!existing->online) --offline_count_;
  PeerRecord updated = record;
  updated.online = true;
  updated.offline_since = 0;
  updated.suspicion = 0;  // fresh presence knowledge resets local suspicion
  records_[record.id] = std::move(updated);
  // A resurrected base record re-enters the live set (the tombstone above
  // made find() skip it; its overlay copy now shadows the base again).
  if (resurrected && base_ != nullptr) ++size_;
  bump_epoch();
  return true;
}

const PeerRecord* Directory::find(PeerId id) const {
  auto it = records_.find(id);
  if (it != records_.end()) return &it->second;
  if (base_ == nullptr || expired(id)) return nullptr;
  return find_in_base(id);
}

const PeerRecord* Directory::find_in_base(PeerId id) const {
  const std::vector<PeerRecord>& recs = base_->records;
  auto it = std::lower_bound(recs.begin(), recs.end(), id,
                             [](const PeerRecord& r, PeerId want) { return r.id < want; });
  return it != recs.end() && it->id == id ? &*it : nullptr;
}

PeerRecord* Directory::find_mutable(PeerId id) {
  // Callers hold a mutable record to bump its version (local filter changes,
  // rejoin jumps) or complete its filter — assume the summary may change.
  bump_epoch();
  return lookup(id);
}

PeerRecord* Directory::lookup(PeerId id) {
  auto it = records_.find(id);
  if (it != records_.end()) return &it->second;
  if (base_ == nullptr || expired(id)) return nullptr;
  const PeerRecord* b = find_in_base(id);
  if (b == nullptr) return nullptr;
  // Materialize the shared record into the private overlay so the caller can
  // mutate it without touching the base. A pure belief update (offline,
  // suspicion) keeps version == base version and therefore stays invisible
  // in the epoch delta — exactly like the belief/summary split in classic
  // mode, where beliefs do not bump the epoch.
  auto [nit, inserted] = records_.emplace(id, *b);
  (void)inserted;
  return &nit->second;
}

void Directory::mark_offline(PeerId id, TimePoint now) {
  if (PeerRecord* r = lookup(id); r != nullptr && r->online) {
    r->online = false;
    r->offline_since = now;
    ++offline_count_;
  }
}

void Directory::mark_online(PeerId id) {
  // Avoid materializing a base record just to confirm what it already says.
  if (const PeerRecord* c = find(id); c == nullptr || (c->online && c->suspicion == 0)) return;
  if (PeerRecord* r = lookup(id); r != nullptr) {
    if (!r->online) --offline_count_;
    r->online = true;
    r->offline_since = 0;
    r->suspicion = 0;
  }
}

std::uint32_t Directory::record_query_failure(PeerId id, TimePoint now) {
  PeerRecord* r = lookup(id);
  if (r == nullptr || id == self_) return 0;
  ++r->suspicion;
  if (r->suspicion >= kSuspectThreshold) mark_offline(id, now);
  return r->suspicion;
}

void Directory::record_query_success(PeerId id) {
  if (const PeerRecord* c = find(id); c == nullptr || c->suspicion == 0) return;
  if (PeerRecord* r = lookup(id); r != nullptr) r->suspicion = 0;
}

std::uint32_t Directory::suspicion(PeerId id) const {
  const PeerRecord* r = find(id);
  return r == nullptr ? 0 : r->suspicion;
}

std::vector<PeerId> Directory::expire_dead(TimePoint now, Duration t_dead) {
  std::vector<PeerId> dropped;
  // Every round calls this; with nobody believed offline (the common steady
  // state) there is nothing to scan.
  if (offline_count_ == 0) return dropped;
  for (auto it = records_.begin(); it != records_.end();) {
    const PeerRecord& r = it->second;
    if (!r.online && r.id != self_ && now - r.offline_since >= t_dead) {
      dropped.push_back(r.id);
      tombstones_[r.id] = r.version;
      remove_id(r.id);
      --offline_count_;
      if (base_ != nullptr) --size_;
      it = records_.erase(it);
    } else {
      ++it;
    }
  }
  if (!dropped.empty()) bump_epoch();
  return dropped;
}

std::size_t Directory::id_universe() const {
  return base_ == nullptr ? ids_.size() : base_->records.size() + extra_ids_.size();
}

PeerId Directory::id_at(std::size_t i) const {
  if (base_ == nullptr) return ids_[i];
  return i < base_->records.size() ? base_->records[i].id
                                   : extra_ids_[i - base_->records.size()];
}

PeerId Directory::random_online(Rng& rng) const {
  const std::size_t n = id_universe();
  if (n == 0) return kInvalidPeer;
  // Rejection sampling over the flat (or virtual base+extras) id list;
  // bounded attempts keep worst-case cost predictable even when most of the
  // community is offline.
  for (int attempt = 0; attempt < 64; ++attempt) {
    const PeerId id = id_at(rng.below(n));
    if (id == self_) continue;
    const PeerRecord* r = find(id);
    if (r != nullptr && r->online) return id;
  }
  // Fall back to a linear scan so "some online peer exists" always succeeds.
  std::vector<PeerId> online;
  for (std::size_t i = 0; i < n; ++i) {
    const PeerId id = id_at(i);
    if (id == self_) continue;
    const PeerRecord* r = find(id);
    if (r != nullptr && r->online) online.push_back(id);
  }
  if (online.empty()) return kInvalidPeer;
  return online[rng.below(online.size())];
}

PeerId Directory::random_online_of_class(Rng& rng, LinkClass cls) const {
  const std::size_t n = id_universe();
  if (n == 0) return kInvalidPeer;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const PeerId id = id_at(rng.below(n));
    if (id == self_) continue;
    const PeerRecord* r = find(id);
    if (r != nullptr && r->online && r->link_class == cls) return id;
  }
  std::vector<PeerId> online;
  for (std::size_t i = 0; i < n; ++i) {
    const PeerId id = id_at(i);
    if (id == self_) continue;
    const PeerRecord* r = find(id);
    if (r != nullptr && r->online && r->link_class == cls) online.push_back(id);
  }
  if (online.empty()) return kInvalidPeer;
  return online[rng.below(online.size())];
}

PeerId Directory::random_offline(Rng& rng) const {
  if (offline_count_ == 0) return kInvalidPeer;  // skip the scan, common case
  std::vector<PeerId> offline;
  // Offline records are always materialized in the overlay (mark_offline
  // goes through lookup), so based mode scans O(overlay), not O(peers).
  if (base_ != nullptr) {
    for (const auto& [id, r] : records_) {
      if (id != self_ && !r.online) offline.push_back(id);
    }
    std::sort(offline.begin(), offline.end());  // map order is not deterministic
  } else {
    for (PeerId id : ids_) {
      if (id == self_) continue;
      const PeerRecord* r = find(id);
      if (r != nullptr && !r->online) offline.push_back(id);
    }
  }
  if (offline.empty()) return kInvalidPeer;
  return offline[rng.below(offline.size())];
}

SummarySnapshot Directory::summary() const {
  if (cached_summary_ != nullptr && cached_epoch_ == epoch_) {
    return cached_summary_;
  }
  auto out = std::make_shared<std::vector<PeerSummary>>();
  if (base_ != nullptr) {
    // Full materialized summary (tests, exchanges with peers on another
    // base). The shared-base fast paths never come here in steady state.
    const SummaryView view(base_->summary, delta(), size_);
    *out = view.flat_list();
  } else {
    out->reserve(records_.size());
    for (const auto& [id, r] : records_) out->push_back(PeerSummary{id, r.version});
    std::sort(out->begin(), out->end(),
              [](const PeerSummary& a, const PeerSummary& b) { return a.id < b.id; });
  }
  ++summary_builds_;
  cached_summary_ = std::move(out);
  cached_epoch_ = epoch_;
  return cached_summary_;
}

std::shared_ptr<const SummaryDelta> Directory::delta() const {
  if (cached_delta_ != nullptr && cached_delta_epoch_ == epoch_) {
    return cached_delta_;
  }
  auto d = std::make_shared<SummaryDelta>();
  d->entries.reserve(records_.size());
  for (const auto& [id, r] : records_) {
    // Overlay records that only hold local beliefs (offline, suspicion)
    // carry the base version and are excluded: they are invisible in
    // summaries, exactly like belief updates in classic mode.
    const PeerRecord* b = find_in_base(id);
    if (b == nullptr || b->version != r.version) d->entries.push_back(PeerSummary{id, r.version});
  }
  std::sort(d->entries.begin(), d->entries.end(),
            [](const PeerSummary& a, const PeerSummary& b) { return a.id < b.id; });
  for (const auto& [id, version] : tombstones_) {
    (void)version;
    if (find_in_base(id) != nullptr) d->removed.push_back(id);
  }
  std::sort(d->removed.begin(), d->removed.end());
  cached_delta_ = std::move(d);
  cached_delta_epoch_ = epoch_;
  return cached_delta_;
}

SummaryEntries Directory::summary_entries() const {
  if (base_ == nullptr) return SummaryEntries(summary());
  if (cached_view_ != nullptr && cached_view_epoch_ == epoch_) {
    return SummaryEntries(cached_view_);
  }
  cached_view_ = std::make_shared<SummaryView>(base_->summary, delta(), size_);
  cached_view_epoch_ = epoch_;
  return SummaryEntries(cached_view_);
}

namespace {
/// Strictly increasing by id — what a snapshot-built summary always is.
/// Anything else (hand-built or hostile input) takes the probe fallback.
bool sorted_unique_by_id(const std::vector<PeerSummary>& v) {
  return std::adjacent_find(v.begin(), v.end(), [](const PeerSummary& a, const PeerSummary& b) {
           return a.id >= b.id;
         }) == v.end();
}
}  // namespace

std::vector<RumorId> Directory::newer_in(const std::vector<PeerSummary>& remote) const {
  if (!sorted_unique_by_id(remote)) return newer_in_probe(remote);
  const std::vector<PeerSummary>& local = *summary();
  std::vector<RumorId> out;
  std::size_t i = 0;
  // Merge-scan: both sides sorted by id, so each remote entry resolves
  // against the local record in O(1) amortized instead of a hash probe.
  // Tombstones stay a probe — expired peers are rare and scattered.
  const auto want = [&](const PeerSummary& s) {
    if (auto t = tombstones_.find(s.id); t != tombstones_.end() && s.version <= t->second) {
      return;  // we expired this record; don't pull it back
    }
    out.push_back(RumorId{s.id, s.version});
  };
  for (const PeerSummary& s : remote) {
    while (i < local.size() && local[i].id < s.id) ++i;
    if (i >= local.size() || local[i].id != s.id) {
      want(s);  // unknown peer
    } else if (local[i].version < s.version) {
      want(s);  // remote holds a newer version
    }
  }
  return out;
}

std::vector<RumorId> Directory::newer_in_probe(const std::vector<PeerSummary>& remote) const {
  std::vector<RumorId> out;
  for (const PeerSummary& s : remote) {
    if (lacks(RumorId{s.id, s.version})) out.push_back(RumorId{s.id, s.version});
  }
  return out;
}

bool Directory::lacks(const RumorId& id) const {
  if (!tombstones_.empty()) {
    // At or below our tombstone: we expired this record; don't pull it back.
    const auto t = tombstones_.find(id.origin);
    if (t != tombstones_.end() && id.version <= t->second) return false;
  }
  const PeerRecord* r = find(id.origin);
  return r == nullptr || r->version < id.version;
}

std::optional<std::uint64_t> Directory::tombstone_version(PeerId id) const {
  auto it = tombstones_.find(id);
  if (it == tombstones_.end()) return std::nullopt;
  return it->second;
}

bool Directory::same_as(const std::vector<PeerSummary>& remote) const {
  if (!sorted_unique_by_id(remote)) return same_as_probe(remote);
  const std::vector<PeerSummary>& local = *summary();
  return local.size() == remote.size() && std::equal(local.begin(), local.end(), remote.begin());
}

bool Directory::same_as_probe(const std::vector<PeerSummary>& remote) const {
  if (remote.size() != size()) return false;
  for (const PeerSummary& s : remote) {
    const PeerRecord* r = find(s.id);
    if (r == nullptr || r->version != s.version) return false;
  }
  return true;
}

std::vector<RumorId> Directory::newer_in(const SummaryEntries& remote) const {
  const std::shared_ptr<const SummaryView>& view = remote.view();
  if (base_ != nullptr && view != nullptr && view->base == base_->summary) {
    // Shared base: any remote entry outside its delta carries the base
    // version, which can never be newer than ours (local versions only move
    // forward from the base; removals leave tombstones that refuse stale
    // versions). Scanning the remote delta alone is therefore exact —
    // O(changed records), not O(peers).
    return newer_in_delta(view->delta->entries);
  }
  merge_scan_entries_ += remote.size();
  return newer_in(remote.list());
}

std::vector<RumorId> Directory::newer_in_delta(const std::vector<PeerSummary>& entries) const {
  merge_scan_entries_ += entries.size();
  std::vector<RumorId> out;
  for (const PeerSummary& s : entries) {
    if (lacks(RumorId{s.id, s.version})) out.push_back(RumorId{s.id, s.version});
  }
  return out;
}

bool Directory::same_as(const SummaryEntries& remote) const {
  const std::shared_ptr<const SummaryView>& view = remote.view();
  if (base_ != nullptr && view != nullptr && view->base == base_->summary) {
    // Identical bases: the merged summaries are equal iff the changed-sets
    // are. Deltas exclude belief-only overlay entries (version == base), so
    // equal merged lists always compare equal here and vice versa.
    return same_as_delta(view->delta->entries, view->delta->removed);
  }
  merge_scan_entries_ += remote.size();
  return same_as(remote.list());
}

bool Directory::same_as_delta(const std::vector<PeerSummary>& entries,
                              const std::vector<PeerId>& removed) const {
  const SummaryDelta& ld = *delta();
  merge_scan_entries_ += ld.entries.size() + entries.size();
  return ld.entries == entries && ld.removed == removed;
}

std::size_t Directory::online_count() const { return size() - offline_count_; }

void Directory::for_each(const std::function<void(const PeerRecord&)>& fn) const {
  if (base_ == nullptr) {
    for (const auto& [id, r] : records_) fn(r);
    return;
  }
  for (const PeerRecord& b : base_->records) {
    if (auto it = records_.find(b.id); it != records_.end()) {
      fn(it->second);  // overlay shadows the base
    } else if (!expired(b.id)) {
      fn(b);
    }
  }
  for (PeerId id : extra_ids_) {
    if (auto it = records_.find(id); it != records_.end()) fn(it->second);
  }
}

void Directory::add_id(PeerId id) {
  if (base_ == nullptr) {
    ids_.push_back(id);
  } else if (find_in_base(id) == nullptr) {
    extra_ids_.push_back(id);  // base ids are already in the virtual index
  }
}

void Directory::remove_id(PeerId id) {
  std::vector<PeerId>& vec = base_ == nullptr ? ids_ : extra_ids_;
  auto it = std::find(vec.begin(), vec.end(), id);
  if (it != vec.end()) {
    *it = vec.back();
    vec.pop_back();
  }
}

}  // namespace planetp::gossip
