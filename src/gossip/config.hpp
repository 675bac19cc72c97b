#pragma once

#include <cstdint>

#include "util/time.hpp"

/// \file config.hpp
/// Tunables of the gossiping algorithm, with the paper's defaults (§3, §7.2).
/// "The various constants/parameters we use were found to work well in our
/// current simulation but can be tuned as needed for any particular
/// community."

namespace planetp::gossip {

struct GossipConfig {
  /// Base gossiping interval T_g (30 s in §3; Table 2 simulates 30 s).
  Duration base_interval = 30 * kSecond;

  /// Ceiling for the adaptive interval. §3 quotes "a maximum of 2 minutes";
  /// Table 2's simulations cap at 60 s. Default follows Table 2 so the
  /// simulated figures match; live deployments may raise it.
  Duration max_interval = 60 * kSecond;

  /// Slow-down constant added to the interval on each gossip-less streak.
  Duration slow_down = 5 * kSecond;

  /// Gossip-less threshold: identical-directory contacts before slowing down.
  int gossipless_threshold = 2;

  /// Every ae_every-th round performs anti-entropy instead of rumoring.
  int anti_entropy_every = 10;

  /// Demers' n: retire a rumor after this many consecutive targets that
  /// already knew it. Incoming duplicates (receiving a rumor we are already
  /// spreading) also count — Demers' feedback variant — which keeps rumor
  /// storms (e.g. mass joins) from keeping stale rumors hot while acks are
  /// delayed on saturated links.
  int stop_count = 2;

  /// Upper bound on rumor payload *bytes* per message (at least one payload
  /// always goes). Hot rumors beyond the budget rotate through subsequent
  /// rounds. Without a cap, a mass-join event makes every rumor message
  /// carry every joiner's full filter (each 20k-key filter is ~16 KB),
  /// saturating slow links; a count-based cap would instead strangle churny
  /// communities whose rumors are 48-byte rejoin records. 128 KB ≈ 2 s of a
  /// DSL uplink per 30 s round.
  std::size_t max_rumor_bytes_per_message = 128 * 1024;

  /// m: number of recently retired rumor ids piggybacked for partial
  /// anti-entropy ("a small number m of the most recent rumors").
  std::size_t partial_ae_window = 10;

  /// T_dead: a peer continuously believed offline this long is dropped from
  /// the directory (assumed to have left permanently).
  Duration t_dead = 6 * kHour;

  /// false selects the pure anti-entropy baseline (the paper's LAN-AE):
  /// every round pushes a full directory summary instead of rumors.
  bool enable_rumoring = true;

  /// false disables the partial anti-entropy piggyback (the paper's
  /// LAN-NPA ablation in Fig 4a).
  bool enable_partial_ae = true;

  /// Bandwidth-aware two-class target selection (§7.2, Fig 5).
  bool bandwidth_aware = false;

  /// Probability that a fast peer rumors to a slow peer when bandwidth_aware.
  double fast_to_slow_prob = 0.01;

  /// Probability that an anti-entropy round probes a peer currently believed
  /// offline instead of an online one. Offline beliefs are local and never
  /// gossiped (§3), so after a network partition heals *nobody* selects the
  /// other side and the split would persist until T_dead erased it; the
  /// occasional probe rediscovers reachable peers and re-merges the halves.
  double offline_probe_prob = 0.1;

  /// The eager_fanout default, the paper's §3 push: every hot rumor carries
  /// its body to every target. Any negative value means the same.
  static constexpr int kEagerAlways = -1;

  /// How hot rumors travel (docs/PROTOCOL.md "Lazy dissemination"). Any
  /// k >= 0 selects lazy dissemination: a filter change carries its body for
  /// its first k transmissions at this node (never to a slow-link target
  /// under bandwidth_aware), a join or rejoin for its first
  /// max(k, Protocol::kIntroductionPushes) on every link, and everything else
  /// travels as (id, version) digests answered by wants. k = 0 never pushes a
  /// filter body blind; k = 2 is a Plumtree-style eager-first-hops split. A
  /// lazy peer also advertises its DirectoryBase token in summary requests,
  /// so a replier sharing that base answers with its changed-set only.
  int eager_fanout = kEagerAlways;

  /// Cap on record ids pulled per anti-entropy exchange; 0 = unlimited.
  /// §7.2's future-work item for modem peers: "allow a new modem-connected
  /// peer to acquire the directory in pieces over a much longer period of
  /// time". A small cap turns the join download into incremental chunks
  /// spread over successive anti-entropy rounds.
  std::size_t max_pull_per_exchange = 0;
};

}  // namespace planetp::gossip
