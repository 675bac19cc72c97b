#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "broker/snippet_store.hpp"
#include "core/config.hpp"
#include "gossip/protocol.hpp"
#include "index/data_store.hpp"
#include "search/candidate_cache.hpp"
#include "search/distributed.hpp"

/// \file node.hpp
/// The public face of a PlanetP peer: publish XML documents, search the
/// community exhaustively or by TFxIPF ranking, and register persistent
/// queries. A Node owns its local data store, Bloom filter and gossip
/// protocol instance; a Community (in-process) or the live TCP runtime
/// moves its messages.

namespace planetp::core {

class Community;

using PeerId = gossip::PeerId;
using DocumentId = index::DocumentId;

/// One search result: enough to display and to fetch the document.
struct SearchHit {
  DocumentId doc;
  double score = 0.0;     ///< 0 for exhaustive (unranked) results
  std::string title;
  std::string xml;        ///< the stored XML document (empty if not fetched)
};

/// Exhaustive-search outcome. §2 advantage (4): Bloom filters let a searcher
/// know that matching documents *may* exist on peers that are currently
/// offline; those peers are reported so the caller can rendezvous later.
struct ExhaustiveResult {
  std::vector<SearchHit> hits;
  std::vector<PeerId> offline_candidates;
  std::vector<SearchHit> broker_hits;  ///< snippets found via the brokerage
};

class Node {
 public:
  Node(PeerId id, NodeConfig config, Community* community);

  PeerId id() const { return id_; }

  // ------------------------------------------------------------------
  // Publishing
  // ------------------------------------------------------------------

  /// Publish an XML document: index it, update the Bloom filter, gossip the
  /// change, and (optionally) publish a snippet to the brokers under the
  /// document's most frequent terms.
  DocumentId publish(std::string xml);

  /// Convenience: wrap plain text in the XML envelope and publish.
  DocumentId publish_text(std::string_view title, std::string_view body);

  /// Withdraw a document. Returns false if unknown.
  bool unpublish(DocumentId id);

  /// Replace a published document in place (same id, new content): the
  /// community sees the updated terms after the next filter gossip, and
  /// persistent queries matching the new content fire. Returns false if the
  /// id is unknown.
  bool republish(DocumentId id, std::string xml);

  // ------------------------------------------------------------------
  // Search
  // ------------------------------------------------------------------

  /// §5.1: conjunction of terms against the whole community, via Bloom
  /// filter candidate selection + direct contact + broker lookup.
  ExhaustiveResult exhaustive_search(std::string_view query);

  /// §5.2: TFxIPF ranked retrieval of the top-k documents.
  std::vector<SearchHit> ranked_search(std::string_view query, std::size_t k);

  /// Proxy search (§7.2's future-work item for modem peers): delegate the
  /// whole ranked search to a better-connected peer, which runs the peer
  /// ranking and adaptive contact loop on our behalf. With \p proxy ==
  /// kInvalidPeer a random online *fast* peer is chosen; falls back to a
  /// local ranked_search when no proxy is available.
  std::vector<SearchHit> proxy_ranked_search(std::string_view query, std::size_t k,
                                             PeerId proxy = gossip::kInvalidPeer);

  // ------------------------------------------------------------------
  // Persistent queries (§5.1)
  // ------------------------------------------------------------------

  using QueryCallback = std::function<void(const SearchHit&)>;

  /// Register a persistent exhaustive query; \p cb fires once per newly
  /// discovered matching document (deduplicated by document id), triggered
  /// by incoming Bloom filters and by matching broker snippets.
  std::uint64_t add_persistent_query(std::string query, QueryCallback cb);

  bool remove_persistent_query(std::uint64_t handle);

  // ------------------------------------------------------------------
  // Rendezvous search (§2, advantage 4)
  // ------------------------------------------------------------------

  /// Exhaustive search that also *rendezvouses* with offline candidates:
  /// "instead of missing these documents as in current systems, the
  /// searching peer could arrange to rendezvous with the off-line peers
  /// when they reconnect to obtain the needed information." Hits available
  /// now are returned; each offline candidate is queried automatically when
  /// it comes back online, delivering late hits through \p cb. Returns the
  /// immediate result plus a handle to cancel the rendezvous.
  std::pair<ExhaustiveResult, std::uint64_t> rendezvous_search(std::string query,
                                                               QueryCallback cb);

  /// Cancel an outstanding rendezvous; returns false if unknown/completed.
  bool cancel_rendezvous(std::uint64_t handle);

  /// Offline peers still being waited on for this rendezvous.
  std::size_t pending_rendezvous_peers(std::uint64_t handle) const;

  // ------------------------------------------------------------------
  // Introspection / internal wiring
  // ------------------------------------------------------------------

  index::DataStore& store() { return store_; }
  const index::DataStore& store() const { return store_; }
  gossip::Protocol& protocol() { return protocol_; }
  /// This node's dissemination counters (docs/PROTOCOL.md "Lazy
  /// dissemination"): payload pushes vs. duplicates, digests, served wants.
  const gossip::GossipStats& gossip_stats() const { return protocol_.stats(); }
  const NodeConfig& config() const { return config_; }
  Community* community() { return community_; }

  /// Evaluate a remote ranked query against the local index (eq. 2 with the
  /// searcher's term weights) and return this peer's top \p k.
  std::vector<search::ScoredDoc> handle_ranked_query(
      const std::unordered_map<std::string, double>& term_weights, std::size_t k) const;

  /// Evaluate a remote exhaustive query locally; returns full hits.
  std::vector<SearchHit> handle_exhaustive_query(std::string_view query) const;

  /// Called by the community when a peer's record (with a new filter)
  /// arrives: re-evaluates persistent queries against that peer.
  void on_directory_update(PeerId origin);

  /// Gossip-layer hook: a strictly newer rumor for \p payload.origin was
  /// applied. Keeps the candidate cache warm through
  /// CandidateCache::apply_update — XOR filter diffs merge in the wire
  /// domain (only cached terms whose bits the diff touches are fixed),
  /// rejoin version bumps are recorded without re-decoding, and anything
  /// else drops the stale filter for lazy re-decode by filter_of.
  void on_rumor_applied(const gossip::RumorPayload& payload);

  /// Gossip-layer hook: \p peer expired from the directory (T_dead).
  void on_peer_expired(PeerId peer);

  /// Called by the community when a broker snippet is published whose keys
  /// cover one of our persistent queries.
  void on_broker_snippet(const broker::Snippet& snippet);

  /// Decoded Bloom filter of a peer as recorded in our directory (nullptr
  /// when unknown). The cache stores the record's Golomb wire bytes at rest,
  /// keyed by the record version, and decodes on demand; the returned
  /// shared_ptr pins the decoded filter across any LRU eviction
  /// (candidate_cache.max_decoded_bytes) that happens underneath.
  std::shared_ptr<const bloom::BloomFilter> filter_of(PeerId peer) const;

  /// The query hot-path cache (stats/introspection; tests and benches).
  search::CandidateCache& candidate_cache() { return filter_cache_; }
  const search::CandidateCache& candidate_cache() const { return filter_cache_; }

 private:
  struct PersistentQuery {
    std::string raw;
    std::vector<std::string> terms;
    std::vector<HashPair> term_hashes;  ///< hash_pair(terms[i]), computed once
    QueryCallback callback;
    std::unordered_set<DocumentId, index::DocumentIdHash> seen;
  };

  struct Rendezvous {
    std::string raw;
    QueryCallback callback;
    std::unordered_set<PeerId> waiting_on;  ///< offline candidates to revisit
    std::unordered_set<DocumentId, index::DocumentIdHash> seen;
  };

  /// Push the current filter state into the gossip protocol (diff + full).
  void announce_filter_change(std::uint32_t new_keys);

  /// Candidate peers whose filters contain every term.
  std::vector<PeerId> candidates_for(const std::vector<std::string>& terms) const;

  /// Own Bloom filter, projected from the counting filter once per
  /// store_.filter_version() and kept in the candidate cache (so the self
  /// row of a ranked search resolves through warm entries too).
  const bloom::BloomFilter* own_filter() const;

  void run_persistent_query_against(PersistentQuery& q, PeerId target);

  PeerId id_;
  NodeConfig config_;
  Community* community_;
  index::DataStore store_;
  gossip::Protocol protocol_;
  bloom::BloomFilter last_announced_;  ///< diff base for filter-change rumors
  std::uint64_t next_query_handle_ = 1;
  std::uint64_t next_snippet_id_ = 1;
  std::unordered_map<DocumentId, std::uint64_t, index::DocumentIdHash> doc_snippets_;
  std::map<std::uint64_t, Rendezvous> rendezvous_;
  std::map<std::uint64_t, PersistentQuery> persistent_queries_;
  /// Decoded-filter store + term→candidate cache + probe kernel (the query
  /// hot path). mutable: filter_of/own_filter fill it lazily from const
  /// accessors; the cache itself is internally synchronized.
  mutable search::CandidateCache filter_cache_;
};

}  // namespace planetp::core
