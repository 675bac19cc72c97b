#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "broker/snippet_store.hpp"
#include "core/config.hpp"
#include "core/peer.hpp"
#include "net/reactor.hpp"
#include "net/rpc.hpp"
#include "sim/faults.hpp"

/// \file live_node.hpp
/// A PlanetP peer running over real TCP sockets: the same core::Peer (store,
/// gossip::Protocol, candidate cache) an in-process core::Node drives, plus
/// the reactor and the RPC channel for ranked/exhaustive search and document
/// fetch. This is the live counterpart of the paper's Java prototype,
/// runnable on loopback or a LAN.

namespace planetp::net {

struct LiveNodeConfig : core::PeerConfig {
  ReactorConfig reactor;                ///< transport caps, backoff, idle reaping
  Duration rpc_timeout = 3 * kSecond;

  /// Brokers per key: the owner plus this many minus one ring successors.
  /// 1 is the paper's unreplicated brokerage; > 1 survives broker failure
  /// (publish/lookup fail over along the replica set).
  std::size_t broker_replication = 1;

  /// Optional fault injection wrapping the gossip send path: the same
  /// FaultPlan the simulator consumes drives drop/duplicate/delay over real
  /// TCP, so live tests replay identical scenarios. Share one injector
  /// across a community's nodes (it is thread-safe) for plan-wide
  /// determinism; time is measured from this node's start().
  std::shared_ptr<sim::FaultInjector> faults;
};

struct LiveHit {
  std::uint32_t peer = 0;
  std::uint32_t local = 0;
  double score = 0.0;
  std::string title;
};

class LiveNode {
 public:
  /// Create a node with the given peer id, listening on \p port (0 picks an
  /// ephemeral port).
  LiveNode(gossip::PeerId id, LiveNodeConfig config, std::uint16_t port = 0);
  ~LiveNode();

  LiveNode(const LiveNode&) = delete;
  LiveNode& operator=(const LiveNode&) = delete;

  /// Start the reactor, announce ourselves (local_join) and begin gossiping.
  void start();
  void stop();

  gossip::PeerId id() const { return peer_.id(); }
  std::string address() const { return reactor_.address(); }

  /// Bootstrap into an existing community through one known member.
  void join(gossip::PeerId introducer, const std::string& introducer_address);

  /// Pre-seed the directory of an already-converged community (the live
  /// counterpart of SimCommunity::start_converged): call before start(),
  /// which will then install our own record quietly instead of rumoring a
  /// join. Lets N-node experiments skip the O(N²) bootstrap gossip storm.
  void bootstrap_converged(std::vector<gossip::PeerRecord> records);

  /// Bump our directory version and rumor presence (gossip::local_rejoin) —
  /// the restart half of a crash/restart churn event.
  void announce_rejoin();

  /// This node's own directory record as another node would bootstrap it
  /// (core::Peer::join_record: version 1, online, current key count and
  /// encoded filter).
  gossip::PeerRecord bootstrap_record() const;

  /// Publish a plain-text document (wrapped in the XML envelope).
  index::DocumentId publish_text(std::string_view title, std::string_view body);

  /// Publish raw XML.
  index::DocumentId publish(std::string xml);

  /// Blocking TFxIPF ranked search across the community.
  std::vector<LiveHit> ranked_search(std::string_view query, std::size_t k);

  /// Blocking exhaustive (conjunctive) search.
  std::vector<LiveHit> exhaustive_search(std::string_view query);

  /// Fetch a document's XML from its owner, retrying per the configured
  /// retry policy. Empty optional when every attempt times out.
  std::optional<std::string> fetch_document(std::uint32_t peer, std::uint32_t local);

  /// Fetch with failover: try the owner first, then each of \p alternates
  /// (peers believed to hold a replica — e.g. brokers storing the document's
  /// snippet) before giving up.
  std::optional<std::string> fetch_document(std::uint32_t peer, std::uint32_t local,
                                            const std::vector<gossip::PeerId>& alternates);

  // ------------------------------------------------------------------
  // Information brokerage (§4) over the live community
  // ------------------------------------------------------------------

  /// Publish an XML snippet to the brokers responsible for each key; the
  /// ring is the set of currently known online members (consistent hashing
  /// over the replicated directory). Fire-and-forget: the brokerage makes
  /// no safety guarantee by design. Returns the snippet id.
  std::uint64_t publish_snippet(std::string xml, std::vector<std::string> keys,
                                Duration ttl);

  /// Ask the responsible broker for the live snippets under \p key.
  std::vector<WireSnippet> lookup_snippets(const std::string& key);

  /// Snippets currently stored by this node's broker role.
  std::size_t brokered_snippet_count() const;

  /// Number of members this node's directory knows (self included).
  std::size_t known_peers() const;

  /// Snapshot of the replicated directory: (peer id, address, version,
  /// online, key count) per member, sorted by id.
  struct PeerInfo {
    gossip::PeerId id;
    std::string address;
    std::uint64_t version;
    bool online;
    std::uint32_t key_count;
  };
  std::vector<PeerInfo> directory_snapshot() const;

  /// Serialized snapshot of the local data store (see index/persistence.hpp);
  /// safe to call while the node is live.
  std::vector<std::uint8_t> serialize_store() const;

  /// Wait until the directory knows at least \p n members (true) or
  /// \p timeout elapses (false).
  bool wait_for_peers(std::size_t n, Duration timeout);

  /// Wait until this node's view of \p peer has version >= \p version.
  bool wait_for_version(gossip::PeerId peer, std::uint64_t version, Duration timeout);

  /// The query hot-path cache (stats/introspection; tests and benches).
  const search::CandidateCache& candidate_cache() const { return peer_.candidate_cache(); }

  /// Transport counters (docs/NET.md "NetStats"): this node's reactor
  /// snapshot with the gossip protocol's dissemination counters merged in
  /// (payload pushes vs. duplicates, digests, served wants).
  NetStats net_stats() const;

  /// Gossip rounds executed since start().
  std::uint64_t gossip_rounds() const { return rounds_.load(std::memory_order_relaxed); }

  /// |actual − scheduled| gap per gossip round, newest last (bounded window;
  /// feeds the live_throughput bench's p99 round-jitter figure).
  std::vector<Duration> round_jitter_samples() const;

 private:
  void on_frame(const Frame& frame);
  void on_send_failure(const std::string& address);
  void gossip_round();
  void send_outgoing(std::vector<gossip::Protocol::Outgoing> batch);
  void handle_rpc(std::uint32_t sender, const RpcMessage& msg);
  void reply_rpc(std::uint32_t peer, const RpcMessage& msg);
  /// Synchronous RPC. Returns the response, or nullopt with \p status (when
  /// given) distinguishing kTimeout from kUnreachable — the latter reported
  /// the moment the transport gives up on the address (connect refused,
  /// backoff, frame dropped) instead of burning the full rpc_timeout.
  std::optional<RpcMessage> call(gossip::PeerId peer, RpcMessage request,
                                 search::ContactStatus* status = nullptr);
  /// \p peer's address in our directory, empty when unknown (takes mu_).
  std::string address_of(gossip::PeerId peer) const;
  /// The key's full replica set — the owner plus broker_replication - 1 ring
  /// successors (requires mu_ held). Empty when the directory is empty.
  std::vector<gossip::PeerId> broker_replicas_for(const std::string& key) const;
  /// Feed a query-RPC outcome into the directory's SUSPECT tracking.
  void note_contact_outcome(gossip::PeerId peer, bool ok);
  void sweep_broker_store();

  LiveNodeConfig config_;
  Reactor reactor_;
  TimePoint fault_origin_ = 0;  ///< start() time; faults run on node-relative time

  /// Guards peer_ and broker_store_. Peer::rank runs without it (it reads
  /// the published epoch snapshot), and it is never held across a remote
  /// contact: the callee's handle_rpc takes its own mu_.
  mutable std::mutex mu_;
  core::Peer peer_;  ///< declared after config_, which it references
  broker::SnippetStore broker_store_;  ///< this node's broker role
  std::uint64_t next_snippet_id_ = 1;

  // Synchronous RPC bookkeeping. Pending calls are keyed by request id and
  // remember the address the request went to, so a transport failure on that
  // address fails them fast (rpc_cv_ wakes with failed = true) instead of
  // letting the caller wait out rpc_timeout.
  struct PendingRpc {
    std::string address;
    bool failed = false;
  };
  mutable std::mutex rpc_mu_;
  std::condition_variable rpc_cv_;
  std::uint64_t next_request_id_ = 1;
  /// Responses to calls still pending; a response is kept only while its
  /// request id is in rpc_pending_.
  std::unordered_map<std::uint64_t, RpcMessage> rpc_responses_;
  std::unordered_map<std::uint64_t, PendingRpc> rpc_pending_;
  std::uint64_t rpc_responses_dropped_ = 0;  ///< responses nobody waited for

  // Converged-start state: records installed at start() instead of a join
  // rumor, plus our own pre-crash version to resume from (0 = fresh join).
  std::vector<gossip::PeerRecord> bootstrap_records_;
  std::uint64_t bootstrap_self_version_ = 0;
  bool bootstrap_requested_ = false;

  // Round accounting for observability and the live_throughput bench.
  std::atomic<std::uint64_t> rounds_{0};
  mutable std::mutex jitter_mu_;
  std::vector<Duration> jitter_samples_;  ///< bounded ring, newest last
  TimePoint last_round_due_ = 0;          ///< when the pending round should fire

  bool started_ = false;
};

}  // namespace planetp::net
