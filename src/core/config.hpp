#pragma once

#include "bloom/bloom_filter.hpp"
#include "gossip/config.hpp"
#include "gossip/types.hpp"
#include "search/candidate_cache.hpp"
#include "search/distributed.hpp"
#include "text/analyzer.hpp"
#include "util/time.hpp"

/// \file config.hpp
/// Per-node configuration for the public PlanetP API.

namespace planetp::core {

/// What every peer needs, whichever runtime drives it (core::Peer): the
/// summary, the gossip protocol and the ranked-search knobs. NodeConfig and
/// net::LiveNodeConfig add their runtime's own settings.
struct PeerConfig {
  bloom::BloomParams bloom;            ///< 50 KB / 2 hashes by default (§7.1)
  text::AnalyzerOptions analyzer;      ///< tokenize + stop words + stemming
  gossip::GossipConfig gossip;

  search::StoppingHeuristic stopping;  ///< eq. 4 constants
  std::size_t search_group_size = 1;   ///< m peers contacted in parallel

  /// Failure-aware retrieval knobs (docs/SEARCH.md). Defaults keep ranked
  /// search behaviour identical to the failure-oblivious implementation when
  /// every contact succeeds.
  search::RetryPolicy search_retry;    ///< per-peer retry budget
  Duration search_deadline = 0;        ///< whole-query budget; 0 = unlimited
  Duration search_hedge_threshold = 0; ///< hedge slow contacts; 0 = off

  /// Query hot path (docs/SEARCH.md): the term→candidate-peers cache kept
  /// warm by gossiped filter diffs, plus the batched/parallel probe kernel.
  search::CandidateCacheConfig candidate_cache;
};

struct NodeConfig : PeerConfig {
  /// Brokerage publication policy used by PFS (§6): publish each document's
  /// snippet under its most frequent terms so searchers find it before the
  /// new Bloom filter has diffused.
  double broker_top_fraction = 0.10;          ///< "the 10% most frequently appearing terms"
  Duration broker_discard_time = 10 * kMinute;  ///< "a discard time of 10 minutes"
  bool publish_to_brokers = true;

  /// Connectivity class advertised in the directory; slow (modem) peers are
  /// avoided by bandwidth-aware gossiping and prefer proxy search (§7.2).
  gossip::LinkClass link_class = gossip::LinkClass::kFast;
};

}  // namespace planetp::core
