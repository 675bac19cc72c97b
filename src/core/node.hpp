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
#include "core/peer.hpp"

/// \file node.hpp
/// The public face of an in-process PlanetP peer: publish XML documents,
/// search the community exhaustively or by TFxIPF ranking, and register
/// persistent queries. A Node is a core::Peer (data store, Bloom filter,
/// gossip protocol, candidate cache) driven over a Community's in-process
/// transport, plus persistent queries, rendezvous, proxy search and broker
/// snippets.

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
  /// Joins the gossip layer under the in-process address "mem://<id>"; the
  /// community then spreads the record.
  Node(PeerId id, NodeConfig config, Community* community);

  PeerId id() const { return peer_.id(); }

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

  index::DataStore& store() { return peer_.store(); }
  const index::DataStore& store() const { return peer_.store(); }
  gossip::Protocol& protocol() { return peer_.protocol(); }
  /// This node's dissemination counters (docs/PROTOCOL.md "Lazy
  /// dissemination"): payload pushes vs. duplicates, digests, served wants.
  const gossip::GossipStats& gossip_stats() const { return peer_.protocol().stats(); }
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

  /// Called by the community when a broker snippet is published whose keys
  /// cover one of our persistent queries.
  void on_broker_snippet(const broker::Snippet& snippet);

  /// Decoded Bloom filter of a peer as recorded in our directory (nullptr
  /// when unknown); see Peer::filter_of.
  std::shared_ptr<const bloom::BloomFilter> filter_of(PeerId peer) const {
    return peer_.filter_of(peer);
  }

  /// The query hot-path cache (stats/introspection; tests and benches).
  search::CandidateCache& candidate_cache() { return peer_.candidate_cache(); }
  const search::CandidateCache& candidate_cache() const { return peer_.candidate_cache(); }

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

  /// The community's clock (0 without one).
  TimePoint now() const;

  /// A store change was rumored: kInstant communities apply it everywhere.
  void record_changed();

  void run_persistent_query_against(PersistentQuery& q, PeerId target);

  NodeConfig config_;
  Community* community_;
  Peer peer_;  ///< declared after config_, which it references
  std::uint64_t next_query_handle_ = 1;
  std::uint64_t next_snippet_id_ = 1;
  std::unordered_map<DocumentId, std::uint64_t, index::DocumentIdHash> doc_snippets_;
  std::map<std::uint64_t, Rendezvous> rendezvous_;
  std::map<std::uint64_t, PersistentQuery> persistent_queries_;
};

}  // namespace planetp::core
