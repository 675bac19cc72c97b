#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "gossip/config.hpp"
#include "gossip/directory.hpp"
#include "gossip/messages.hpp"
#include "gossip/stats.hpp"
#include "gossip/types.hpp"
#include "util/rng.hpp"

/// \file protocol.hpp
/// The PlanetP gossiping protocol (§3) as a runtime-agnostic state machine:
/// push rumor mongering, every-n-th-round pull anti-entropy, a partial
/// anti-entropy piggyback on every rumor exchange, an adaptive gossiping
/// interval, and optional bandwidth-aware fast/slow target selection.
///
/// The protocol never talks to a network: `on_round` / `on_message` return
/// the messages to transmit, and the embedding runtime — the discrete-event
/// simulator (src/sim) or the live TCP runtime (src/net) — delivers them and
/// reports failures via `on_send_failed`. The same protocol object therefore
/// backs both the paper's simulation results and its prototype behaviour.

namespace planetp::gossip {

class Protocol {
 public:
  /// A message the runtime must transmit.
  struct Outgoing {
    PeerId to = kInvalidPeer;
    Message msg;
  };

  /// Metric/integration hooks (all optional).
  struct Hooks {
    /// Called when a strictly newer record version is applied locally —
    /// i.e. this peer "learned" the event. Convergence metrics key off it.
    std::function<void(const RumorPayload&, TimePoint)> on_apply;

    /// Called when a peer is dropped after T_dead.
    std::function<void(PeerId)> on_expire;
  };

  Protocol(PeerId self, GossipConfig config, Rng rng);

  /// Under lazy dissemination a join or rejoin carries its body for at
  /// least this many transmissions at each node, on every link: it
  /// introduces the origin's address, without which a receiver cannot route
  /// a want back.
  static constexpr int kIntroductionPushes = 2;

  /// An anti-entropy pull still unanswered after this many gossip rounds is
  /// retried against a fresh target, doubling the wait each attempt, so a
  /// lost reply cannot stall a catching-up peer. Counted in rounds so the
  /// cadence scales with the gossip interval.
  static constexpr int kAeRetryRounds = 2;

  /// Unanswered catch-up attempts after which a joining or rejoining peer
  /// falls back to the normal round cadence (whose idle-round anti-entropy
  /// still converges it eventually).
  static constexpr int kMaxAeRetries = 4;

  // ------------------------------------------------------------------
  // Local events (the origin side of rumors)
  // ------------------------------------------------------------------

  /// Install our own record (version 1) and start rumoring our arrival.
  /// \p key_count / \p filter_wire describe the local index summary.
  void local_join(std::string address, LinkClass link_class, std::uint32_t key_count,
                  std::vector<std::uint8_t> filter_wire, TimePoint now);

  /// Install our own record without rumoring it — for setting up members of
  /// an already-converged community (experiments) where arrival is old news.
  void quiet_start(std::string address, LinkClass link_class, std::uint32_t key_count,
                   std::vector<std::uint8_t> filter_wire);

  /// The local Bloom filter changed: bump our version and rumor the diff.
  /// \p diff_bits may be empty in simulation; \p new_keys drives the wire
  /// size model either way.
  void local_filter_change(std::uint32_t key_count, std::uint32_t new_keys,
                           std::vector<std::uint8_t> diff_bits,
                           std::vector<std::uint8_t> full_filter_wire, TimePoint now);

  /// We went offline and came back with nothing new to share: bump our
  /// version so presence re-propagates (§3).
  void local_rejoin(TimePoint now);

  /// First contact of a brand-new (or returning) member: ask \p introducer
  /// for its full directory. The reply path downloads every record we lack.
  /// The pull is tracked: if the reply never arrives (lossy link, partition)
  /// it is retried with backoff on subsequent rounds, bounded by
  /// kMaxAeRetries.
  Outgoing join_via(PeerId introducer, TimePoint now = 0);

  /// Install initial directory state without generating rumors (used to
  /// set up pre-converged communities in experiments).
  void bootstrap(const std::vector<PeerRecord>& records);

  /// Converged bootstrap at scale: adopt \p base (which must include our own
  /// record) as the shared directory snapshot instead of copying N records
  /// into a private map. Replaces quiet_start + bootstrap for simulated
  /// communities; peers sharing a base exchange O(changed) summaries.
  void bootstrap_converged(DirectoryBasePtr base);

  // ------------------------------------------------------------------
  // Runtime driver interface
  // ------------------------------------------------------------------

  /// One gossip round; the runtime calls this every current_interval().
  std::vector<Outgoing> on_round(TimePoint now);

  /// Handle a received message; returns any replies/pulls to transmit.
  std::vector<Outgoing> on_message(TimePoint now, PeerId from, const Message& msg);

  /// The runtime failed to deliver to \p to: mark it offline (§3 — offline
  /// discovery is by failed communication, never gossiped).
  void on_send_failed(PeerId to, TimePoint now);

  /// Current adaptive gossiping interval.
  Duration current_interval() const { return interval_; }

  // ------------------------------------------------------------------
  // Introspection
  // ------------------------------------------------------------------

  Directory& directory() { return directory_; }
  const Directory& directory() const { return directory_; }
  const GossipConfig& config() const { return config_; }
  PeerId self() const { return directory_.self(); }
  std::size_t hot_rumor_count() const { return hot_.size(); }
  std::uint64_t own_version() const;
  Hooks& hooks() { return hooks_; }

  /// Dissemination traffic counters: blind payload pushes vs. duplicates at
  /// the receiver, digests and wants (docs/PROTOCOL.md "Lazy dissemination").
  const GossipStats& stats() const { return stats_; }

 private:
  struct HotRumor {
    RumorPtr rumor;  ///< interned: every send shares one payload + encoding
    int consecutive_known = 0;
    int pushes = 0;  ///< payload transmissions so far (lazy body→digest cutover)
    /// Join/rejoin announcements carry the origin's address — the one fact a
    /// receiver needs before it can answer a digest with a want at all. Under
    /// lazy dissemination they carry their body for at least
    /// kIntroductionPushes transmissions, on every link.
    bool introduce = false;
  };

  // Apply one payload; returns true if it was new (false for a version at or
  // below a T_dead tombstone too). When a diff cannot be applied (missing
  // base), the record is still accepted and the origin id is queued for a
  // full-filter pull from \p from.
  bool apply_payload(const RumorPayload& p, TimePoint now, PeerId from,
                     std::vector<Outgoing>& out);

  /// Lazy dissemination is on (GossipConfig::eager_fanout >= 0).
  bool lazy() const { return config_.eager_fanout >= 0; }
  /// Whether this round sends \p hot's body rather than its digest.
  bool carries_body(const HotRumor& hot, bool slow_link) const;

  void make_hot(RumorPtr p);
  void retire_rumor(const RumorId& id);
  void note_recent(const RumorId& id);
  void reset_interval();
  void register_gossipless_contact();

  PeerId pick_rumor_target();
  PeerId pick_ae_target();
  bool has_local_origin_rumor() const;
  Outgoing issue_summary_request(PeerId target, TimePoint now);
  /// The community holds a newer version of *our own* record than we do —
  /// we crashed and lost state. Adopt that version (jump past it) and
  /// re-rumor so our presence wins everywhere. Returns true if adopted.
  bool adopt_own_version(std::uint64_t seen_version, TimePoint now);
  /// Set our own version to \p past + 1 and re-rumor our record (kRejoin).
  void jump_own_version(std::uint64_t past);

  /// Interned full-filter payload answering a pull for \p record. Cached per
  /// origin so concurrent pulls for the same record (common right after a
  /// filter change floods the piggybacks) reuse one payload and encoding;
  /// invalidated by version/key-count/filter changes and on expiry.
  RumorPtr pull_rumor_for(const PeerRecord& record);
  /// The ids in \p ids this peer lacks (Directory::lacks): what a
  /// partial-anti-entropy piggyback makes it pull.
  std::vector<RumorId> lacking(const std::vector<RumorId>& ids) const;

  GossipConfig config_;
  Directory directory_;
  Rng rng_;
  Hooks hooks_;
  GossipStats stats_;

  std::unordered_map<RumorId, HotRumor, RumorIdHash> hot_;
  std::vector<RumorId> hot_order_;             ///< stable iteration order
  std::deque<RumorId> recent_;                 ///< retired ids for piggybacking
  std::unordered_set<RumorId, RumorIdHash> recent_set_;
  std::unordered_map<PeerId, RumorPtr> pull_cache_;  ///< per-origin pull payloads
  /// Hot rumors originated by us, maintained on insert/erase so the
  /// bandwidth-aware target pick does not scan the hot set every round.
  std::size_t self_hot_count_ = 0;

  std::uint64_t round_counter_ = 0;
  int gossipless_count_ = 0;
  Duration interval_;
  LinkClass self_class_ = LinkClass::kFast;
  /// Set on join/rejoin: we slept through events and must anti-entropy
  /// before resuming normal rumoring priorities; cleared by the first
  /// summary reply, by send failure to the chosen target (retry next round)
  /// or after kMaxAeRetries unanswered attempts.
  bool catch_up_pending_ = false;

  /// The most recent summary request still awaiting its reply; drives the
  /// bounded backed-off retry of unanswered anti-entropy pulls.
  struct PendingPull {
    PeerId target = kInvalidPeer;
    std::uint64_t retry_round = 0;  ///< round from which an unanswered pull may be reissued
    int attempts = 0;
  };
  std::optional<PendingPull> pending_pull_;
};

}  // namespace planetp::gossip
