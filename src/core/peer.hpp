#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "gossip/protocol.hpp"
#include "index/data_store.hpp"
#include "util/rng.hpp"

/// \file peer.hpp
/// A PlanetP peer's local logic, written once for both runtimes: the data
/// store and its Bloom filter summary (§2), the gossip protocol and its
/// directory (§3), and the filter cache TFxIPF search ranks over (§5).
/// core::Node drives a Peer over the in-process transport and net::LiveNode
/// over TCP. A Peer adds no locking of its own: LiveNode calls it under its
/// mutex, except rank(), which reads the published epoch snapshot.

namespace planetp::core {

class Peer {
 public:
  /// \p config must outlive the peer. \p protocol_rng seeds gossip target
  /// selection; each runtime keeps its own seed.
  Peer(gossip::PeerId id, const PeerConfig& config, Rng protocol_rng);

  Peer(const Peer&) = delete;
  Peer& operator=(const Peer&) = delete;

  gossip::PeerId id() const { return id_; }
  index::DataStore& store() { return store_; }
  const index::DataStore& store() const { return store_; }
  gossip::Protocol& protocol() { return protocol_; }
  const gossip::Protocol& protocol() const { return protocol_; }
  search::CandidateCache& candidate_cache() { return cache_; }
  const search::CandidateCache& candidate_cache() const { return cache_; }

  /// Store changes. Each rumors the new filter: an XOR diff against the last
  /// announced filter, plus the full encoding for our own record. unpublish
  /// and republish return false (rumoring nothing) for an unknown document.
  index::DocumentId publish(std::string xml, TimePoint now);
  bool unpublish(index::DocumentId doc, TimePoint now);
  bool republish(index::DocumentId doc, std::string xml, TimePoint now);

  /// Our record as a join announces it: version 1, online, the current key
  /// count and encoded filter. The filter rides along even when empty (7
  /// bytes at the default size), so every member counts us in IPF's N and
  /// holds the base of our first diff.
  gossip::PeerRecord join_record(std::string address, gossip::LinkClass link_class) const;

  /// Decoded Bloom filter of \p peer as our directory records it (nullptr
  /// when unknown or filterless). The cache decodes a remote record's bytes
  /// when it holds no copy at the record's version; our own filter is the
  /// one the last announce projected. The shared_ptr pins the filter across
  /// any LRU eviction (candidate_cache.max_decoded_bytes).
  std::shared_ptr<const bloom::BloomFilter> filter_of(gossip::PeerId peer) const;

  /// What a ranked search ranks over: every online record with a filter, in
  /// directory order, then ourselves. \p pins keep the filters alive while
  /// gossip replaces the cache's copies.
  struct SearchView {
    std::vector<search::PeerFilter> peers;
    std::vector<std::shared_ptr<const bloom::BloomFilter>> pins;
  };
  SearchView search_view() const;

  /// tfipf_search options from the config, ranking through our cache.
  search::DistributedSearchOptions search_options(std::size_t k, std::uint64_t seed) const;

  /// SUSPECT feedback: repeated query failures demote a peer in future
  /// rankings and eventually mark it offline; a success clears suspicion.
  void record_contact(gossip::PeerId peer, bool ok, TimePoint now);
  void record_outcomes(const std::vector<search::PeerOutcome>& outcomes, TimePoint now);

  /// Remote peers whose filters contain every term (none for no terms),
  /// online or not, sorted by id.
  std::vector<gossip::PeerId> candidates_for(const std::vector<std::string>& terms) const;

  /// Our top \p k under a searcher's term weights (eq. 2), ranked against
  /// the published epoch snapshot: lock-free and safe against concurrent
  /// publishes.
  std::vector<search::ScoredDoc> rank(
      const std::unordered_map<std::string, double>& weights, std::size_t k) const;

 private:
  /// Rumor the store's filter; the rumor's new-key count is the number of
  /// terms added since \p terms_before (0 when the change only removed).
  void announce(std::size_t terms_before, TimePoint now);
  std::shared_ptr<const bloom::BloomFilter> filter_of(
      const gossip::PeerRecord& record) const;
  std::shared_ptr<const bloom::BloomFilter> own_filter() const;

  gossip::PeerId id_;
  const PeerConfig& config_;
  index::DataStore store_;
  gossip::Protocol protocol_;
  /// Our filter as last announced, projected once per announce: the next
  /// filter-change rumor's diff base and the cache's self row.
  std::shared_ptr<const bloom::BloomFilter> last_announced_;
  std::uint64_t announced_version_ = 0;  ///< store filter version it projects
  /// The query hot path, kept warm by the protocol hooks the constructor
  /// installs. mutable: filter_of fills it lazily; it locks internally.
  mutable search::CandidateCache cache_;
};

}  // namespace planetp::core
