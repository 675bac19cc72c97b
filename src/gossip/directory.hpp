#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "gossip/messages.hpp"
#include "gossip/types.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

/// \file directory.hpp
/// A peer's local copy of the replicated global directory (§3). Holds one
/// PeerRecord per known member, applies versioned updates, tracks local
/// online/offline beliefs, and expires members marked offline continuously
/// for T_dead.
///
/// Two storage modes share one interface (docs/SCALE.md):
///  - classic: every record lives in the private hash map (joins, live mode);
///  - based: adopt_base() installs a shared immutable DirectoryBase and the
///    hash map becomes a small overlay of records that diverged from it.
///    Lookups fall through overlay -> tombstones -> binary search in the
///    base; mutations materialize the base record into the overlay first.
///    N simulated peers then share one copy of the converged directory, and
///    steady-state anti-entropy compares per-epoch deltas instead of full
///    summaries — O(changed records) per round, not O(peers).

namespace planetp::gossip {

class Directory {
 public:
  explicit Directory(PeerId self) : self_(self) {}

  PeerId self() const { return self_; }

  /// Insert or replace this peer's own record.
  void put_self(PeerRecord record);

  /// Reset this directory onto a shared converged snapshot: drops all local
  /// records/tombstones and makes \p base the storage for every record until
  /// it diverges. The caller's own record must be part of the base.
  void adopt_base(DirectoryBasePtr base);

  /// The shared base, or nullptr in classic mode.
  const DirectoryBasePtr& base() const { return base_; }

  /// Content token of the shared base (0 in classic mode). Lazy peers
  /// advertise it in SummaryRequestMsg; a replier whose token matches
  /// answers with a delta-only SummaryMsg (delta summaries, docs/PROTOCOL.md).
  std::uint64_t base_token() const { return base_ == nullptr ? 0 : base_->token; }

  /// Apply a remote update. Returns true if it superseded local knowledge
  /// (version strictly newer or peer unknown). An applied update also sets
  /// the peer back online (§3: a rejoin rumor flips off-line beliefs).
  bool apply(const PeerRecord& record);

  /// Record lookup (nullptr when unknown). find_mutable callers may bump the
  /// version or complete the filter, but must not flip `online` — online
  /// transitions go through mark_offline/mark_online, which maintain the
  /// offline-record count behind the O(1) expire_dead fast path.
  const PeerRecord* find(PeerId id) const;
  PeerRecord* find_mutable(PeerId id);

  /// Local belief updates from communication outcomes; not gossiped.
  void mark_offline(PeerId id, TimePoint now);
  void mark_online(PeerId id);

  /// Consecutive query failures before a SUSPECT peer is marked offline.
  static constexpr std::uint32_t kSuspectThreshold = 3;

  /// Record a query-time failure against \p id (timeout or garbage reply,
  /// not gossiped). Each failure raises the peer's SUSPECT level, demoting
  /// it in rank_peers; at kSuspectThreshold the peer is marked offline so
  /// subsequent gossip rounds and queries skip it until it proves itself
  /// again (offline probe or a newer gossiped version). Returns the new
  /// suspicion level (0 when the peer is unknown).
  std::uint32_t record_query_failure(PeerId id, TimePoint now);

  /// A successful query contact clears any SUSPECT state on \p id.
  void record_query_success(PeerId id);

  /// Current SUSPECT level of \p id (0 when unknown or trusted).
  std::uint32_t suspicion(PeerId id) const;

  /// Drop every record that has been continuously offline for at least
  /// \p t_dead, assuming permanent departure. Returns the dropped ids.
  /// Each drop leaves a local tombstone: anti-entropy with peers that have
  /// not expired the record yet would otherwise resurrect it (it looks
  /// brand-new to us), flip it back online, and keep a departed peer's
  /// record bouncing around the community forever. Only a strictly newer
  /// version — an actual rejoin — clears the tombstone.
  std::vector<PeerId> expire_dead(TimePoint now, Duration t_dead);

  /// Version at which \p id was expired, if we hold a tombstone for it.
  std::optional<std::uint64_t> tombstone_version(PeerId id) const;

  /// Random peer believed online, excluding self; kInvalidPeer if none.
  PeerId random_online(Rng& rng) const;

  /// Random online peer of the given class, excluding self.
  PeerId random_online_of_class(Rng& rng, LinkClass cls) const;

  /// Random peer currently believed offline, excluding self; kInvalidPeer if
  /// none. Used to probe for peers that became reachable again (e.g. after a
  /// partition healed) without anyone rumoring about it.
  PeerId random_offline(Rng& rng) const;

  /// Directory summary for anti-entropy exchanges: one (id, version) entry
  /// per known record, sorted by id. Cached per mutation epoch — repeated
  /// calls between directory changes return the same shared snapshot, so a
  /// gossip round costs no summary rebuild and a SummaryMsg carries a
  /// pointer, not a copy. The snapshot is immutable; holders are unaffected
  /// by later directory mutations.
  SummarySnapshot summary() const;

  /// Summary for a SummaryMsg. Classic mode: the shared snapshot, as before.
  /// Based mode: a shared (base, delta) view — two pointer copies regardless
  /// of community size; a receiver sharing the base never materializes it.
  SummaryEntries summary_entries() const;

  /// This directory's changed-set relative to its base (based mode only).
  /// Cached per mutation epoch; rebuilt in O(overlay log N).
  std::shared_ptr<const SummaryDelta> delta() const;

  /// Mutation counter: bumped whenever the set of (id, version) pairs may
  /// have changed. Local-only belief updates (mark_offline, suspicion) do
  /// not bump it — they are invisible in summaries.
  std::uint64_t epoch() const { return epoch_; }

  /// How many times summary() actually rebuilt the snapshot (introspection
  /// for tests and the gossip_throughput bench).
  std::uint64_t summary_builds() const { return summary_builds_; }

  /// True when \p id is news here: it is not at or below a T_dead tombstone,
  /// and its origin is unknown or held at an older version. Digest replies,
  /// partial-anti-entropy piggybacks and the probe and delta summary diffs
  /// all ask this (the merge-scan applies the same rule inline), so a stale
  /// rumor never pulls an expired peer back.
  bool lacks(const RumorId& id) const;

  /// Versions that \p remote has but we lack or hold older (what to pull).
  /// A merge-scan over our sorted snapshot when \p remote is sorted (the
  /// wire format always is — it is built from a snapshot); falls back to
  /// per-entry probing otherwise.
  std::vector<RumorId> newer_in(const std::vector<PeerSummary>& remote) const;

  /// True when \p remote and our summary match exactly (same peers, same
  /// versions) — the "same directory" test of the adaptive interval (§3).
  bool same_as(const std::vector<PeerSummary>& remote) const;

  /// SummaryEntries overloads — what the protocol calls on SummaryMsg
  /// receipt. When the remote summary is a view over the *same shared base*
  /// as ours, only the two deltas are compared/scanned (O(changed) instead
  /// of O(peers)); identical results to the full-list paths either way.
  std::vector<RumorId> newer_in(const SummaryEntries& remote) const;
  bool same_as(const SummaryEntries& remote) const;

  /// Delta-only summary compare (decoded delta-form SummaryMsg, live wire):
  /// \p entries / \p removed are the remote's changed-set against *our own*
  /// shared base — the caller has already verified the base tokens match.
  /// Same results as the full-list paths, in O(changed records).
  std::vector<RumorId> newer_in_delta(const std::vector<PeerSummary>& entries) const;
  bool same_as_delta(const std::vector<PeerSummary>& entries,
                     const std::vector<PeerId>& removed) const;

  /// Total summary entries examined by newer_in/same_as since construction —
  /// the O(changed)-rounds invariant is pinned against this counter.
  std::uint64_t merge_scan_entries() const { return merge_scan_entries_; }

  /// Reference implementations of newer_in/same_as via per-entry hash
  /// probes, independent of the snapshot cache: they take any summary list,
  /// sorted or not (decoded or hand-built), and the property tests pin the
  /// merge-scan and shared-base results against them.
  std::vector<RumorId> newer_in_probe(const std::vector<PeerSummary>& remote) const;
  bool same_as_probe(const std::vector<PeerSummary>& remote) const;

  /// Live record count (overlay-aware in based mode).
  std::size_t size() const { return base_ == nullptr ? records_.size() : size_; }
  std::size_t online_count() const;

  /// How many records diverged from the shared base (0 in classic mode);
  /// introspection for tests and bench/community_scale.
  std::size_t overlay_size() const { return base_ == nullptr ? 0 : records_.size(); }

  void for_each(const std::function<void(const PeerRecord&)>& fn) const;

 private:
  PeerId self_;
  std::unordered_map<PeerId, PeerRecord> records_;
  std::unordered_map<PeerId, std::uint64_t> tombstones_;  ///< expired id -> version
  // Flat id list kept in sync for O(1) random selection (classic mode).
  std::vector<PeerId> ids_;
  // Records currently believed offline. Lets the per-round expire_dead and
  // the offline probe skip their full scans in the steady state where
  // everyone is online, and makes online_count() O(1).
  std::size_t offline_count_ = 0;

  // Based mode: the shared converged snapshot, the ids known beyond it, and
  // the live-record count (base + extras - expired). records_ becomes the
  // divergence overlay; tombstones_ additionally hides expired base records.
  DirectoryBasePtr base_;
  std::vector<PeerId> extra_ids_;
  std::size_t size_ = 0;

  // Epoch-cached summary snapshot. `epoch_` advances on any mutation that can
  // change the (id, version) set; summary() rebuilds lazily when the cached
  // snapshot's epoch is stale. Mutable: summary() is logically const.
  std::uint64_t epoch_ = 1;
  mutable SummarySnapshot cached_summary_;
  mutable std::uint64_t cached_epoch_ = 0;
  mutable std::uint64_t summary_builds_ = 0;
  // Based mode: epoch-cached changed-set and the shared view wrapping it.
  mutable std::shared_ptr<const SummaryDelta> cached_delta_;
  mutable std::uint64_t cached_delta_epoch_ = 0;
  mutable std::shared_ptr<const SummaryView> cached_view_;
  mutable std::uint64_t cached_view_epoch_ = 0;
  mutable std::uint64_t merge_scan_entries_ = 0;

  void add_id(PeerId id);
  void remove_id(PeerId id);
  void bump_epoch() { ++epoch_; }
  /// Record lookup for local-only belief updates (online/suspicion): does
  /// not invalidate the summary cache, which only reflects (id, version).
  /// In based mode this materializes the shared record into the overlay.
  PeerRecord* lookup(PeerId id);
  /// Binary search the shared base (ignores tombstones; nullptr if absent).
  const PeerRecord* find_in_base(PeerId id) const;
  bool expired(PeerId id) const {
    return !tombstones_.empty() && tombstones_.find(id) != tombstones_.end();
  }
  /// Virtual flat index over all known ids: classic ids_, or base + extras.
  std::size_t id_universe() const;
  PeerId id_at(std::size_t i) const;
};

}  // namespace planetp::gossip
