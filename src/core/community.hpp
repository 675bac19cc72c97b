#pragma once

#include <memory>
#include <string>
#include <vector>

#include "broker/broker_network.hpp"
#include "core/node.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

/// \file community.hpp
/// In-process PlanetP community: hosts Nodes, routes their inter-peer calls,
/// runs the broker overlay and (optionally) drives real gossip rounds over a
/// virtual clock. Applications and examples use this; wide-area deployments
/// use src/net's TCP runtime, and scalability experiments use src/sim.

namespace planetp::core {

/// How directory changes move between nodes.
enum class SyncMode {
  /// Directory updates apply to every node immediately (a converged
  /// community at all times). Right for applications that want PlanetP
  /// semantics without simulating propagation delay.
  kInstant,
  /// Nodes exchange real gossip messages; call step() to advance the
  /// community's virtual clock and let rumors propagate.
  kGossipStep,
};

class Community {
 public:
  explicit Community(NodeConfig defaults = {}, SyncMode mode = SyncMode::kInstant,
                     std::uint64_t seed = 7);
  ~Community();

  Community(const Community&) = delete;
  Community& operator=(const Community&) = delete;

  /// Create a node and join it to the community (and the broker ring).
  Node& create_node();

  /// Create a node with its own configuration (e.g. a slow link class).
  Node& create_node(const NodeConfig& config);

  Node& node(PeerId id) { return *nodes_.at(id); }
  const Node& node(PeerId id) const { return *nodes_.at(id); }
  std::size_t size() const { return nodes_.size(); }

  SyncMode mode() const { return mode_; }
  TimePoint now() const { return clock_.now(); }

  /// Advance the virtual clock (kGossipStep): runs due gossip rounds and
  /// delivers messages synchronously. No-op in kInstant mode.
  void step(Duration dt);

  /// Run step() repeatedly until all directories agree or \p limit elapses.
  /// Returns true on convergence.
  bool step_until_converged(Duration limit, Duration stride = 5 * kSecond);

  /// Take a node offline / bring it back (affects routing and gossip).
  void set_online(PeerId id, bool online);
  bool is_online(PeerId id) const { return online_.at(id); }

  broker::BrokerNetwork& brokers() { return brokers_; }

  // ------------------------------------------------------------------
  // Node-to-node transport (in-process "RPC")
  // ------------------------------------------------------------------

  /// Ranked-query a peer for its top \p k; reports kUnreachable when the
  /// target is offline (and notifies the caller's gossip protocol, which
  /// marks the peer offline locally).
  search::PeerSearchResult contact_ranked(
      PeerId caller, PeerId target,
      const std::unordered_map<std::string, double>& term_weights, std::size_t k);

  /// Exhaustive-query a peer; empty when the target is offline.
  std::vector<SearchHit> contact_exhaustive(PeerId caller, PeerId target,
                                            std::string_view query);

  /// Ask \p proxy to run a full ranked search on the caller's behalf
  /// (§7.2's proxy search for slow peers). Empty when the proxy is offline.
  std::vector<SearchHit> contact_proxy_search(PeerId caller, PeerId proxy,
                                              std::string_view query, std::size_t k);

  /// Fetch a document from its owner (nullptr when owner offline/unknown).
  const index::Document* fetch_document(const DocumentId& doc);

  // ------------------------------------------------------------------
  // Internal notifications from nodes
  // ------------------------------------------------------------------

  /// A node's own record changed (publish/unpublish). In kInstant mode the
  /// new record is applied at every other node right away.
  void record_changed(PeerId origin);

  /// A node published a broker snippet: store it and fan out persistent-
  /// query notifications.
  void snippet_published(const broker::Snippet& snippet);

  /// A node applied a remote record (gossip mode) — forward to persistent
  /// queries.
  void applied_update(PeerId at_node, PeerId origin);

 private:
  void run_due_rounds();
  void deliver_all(PeerId from, std::vector<gossip::Protocol::Outgoing> batch);

  NodeConfig defaults_;
  SyncMode mode_;
  Rng rng_;
  sim::EventQueue clock_;  ///< virtual clock for kGossipStep
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<bool> online_;
  std::vector<TimePoint> next_round_;
  broker::BrokerNetwork brokers_;
};

}  // namespace planetp::core
