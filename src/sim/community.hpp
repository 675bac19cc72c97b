#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "gossip/protocol.hpp"
#include "search/distributed.hpp"
#include "sim/event_queue.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

/// \file community.hpp
/// Simulated PlanetP community: wires one gossip::Protocol per peer to the
/// discrete-event engine and the link model, injects the experiment events
/// of §7.2 (filter changes, joins, churn), and measures convergence times
/// and traffic. This plays the role of the paper's custom simulator, but
/// runs the production protocol implementation unchanged.

namespace planetp::sim {

/// Tracks when a directory event (one RumorId) becomes known to every peer
/// that the predicate selects and that was online when the event occurred.
/// Peers that go offline mid-event stop counting (they are excused — they
/// will catch up via anti-entropy on rejoin); peers that arrive after the
/// event do not gate it. This is the paper's "known to everyone in the
/// community" as of the event's occurrence.
class ConvergenceTracker {
 public:
  using PeerPredicate = std::function<bool(gossip::PeerId)>;

  /// \p counts selects which peers must learn an event for it to converge;
  /// \p origin_filter (optional) selects which events are tracked at all,
  /// by their origin peer — e.g. Fig 5's MIX-F tracks only events that
  /// originate at fast peers.
  ConvergenceTracker(std::string name, PeerPredicate counts,
                     PeerPredicate origin_filter = nullptr)
      : name_(std::move(name)),
        counts_(std::move(counts)),
        origin_filter_(std::move(origin_filter)) {}

  void track(const gossip::RumorId& id, TimePoint start,
             const std::vector<gossip::PeerId>& online_peers, gossip::PeerId origin);
  void learned(const gossip::RumorId& id, gossip::PeerId peer, TimePoint now);
  void peer_offline(gossip::PeerId peer, TimePoint now);

  const std::string& name() const { return name_; }

  /// Convergence durations (seconds) of all completed events.
  const SampleSet& durations() const { return durations_; }

  std::size_t tracked_events() const { return total_events_; }
  std::size_t converged_events() const { return durations_.size(); }
  std::size_t pending_events() const { return active_.size(); }

 private:
  struct Active {
    TimePoint start = 0;
    std::unordered_set<gossip::PeerId> unknown_online;  ///< must still learn
    std::unordered_set<gossip::PeerId> known;
  };

  void maybe_converge(const gossip::RumorId& id, Active& a, TimePoint now);

  std::string name_;
  PeerPredicate counts_;
  PeerPredicate origin_filter_;
  std::unordered_map<gossip::RumorId, Active, gossip::RumorIdHash> active_;
  SampleSet durations_;
  std::size_t total_events_ = 0;
};

/// Per-peer simulation configuration.
struct SimPeerSpec {
  double bandwidth_bps = link_speed::kLan45M;
  std::uint32_t key_count = 1000;
};

struct SimConfig {
  gossip::GossipConfig gossip;
  gossip::SizeModel sizes;
  NetworkParams network;
  std::uint64_t seed = 42;
  /// Scheduled fault injection (drops, duplicates, delays, reordering,
  /// partitions, crash/restarts); see sim/faults.hpp. Everything the plan
  /// injects is reproducible from `seed`. Uniform message loss is
  /// `FaultPlan::uniform_drop(p)`.
  FaultPlan faults;

  /// Deterministic parallel round stepping. 0 (default) keeps the fully
  /// sequential event order — bit-identical to all prior releases. A positive
  /// tick quantizes gossip-round firing times up to multiples of the tick;
  /// all rounds landing on one tick step concurrently on a thread pool (each
  /// node only touches its own protocol state and forked RNG stream) and
  /// their outgoing messages commit in node-id order, so traces are
  /// identical across thread counts for a fixed seed.
  Duration parallel_round_tick = 0;
  /// Worker threads for parallel stepping (0 = hardware concurrency).
  std::size_t parallel_threads = 0;
};

class SimCommunity {
 public:
  explicit SimCommunity(SimConfig config);

  /// Create a peer (initially offline, not yet a member). Returns its id.
  gossip::PeerId add_peer(const SimPeerSpec& spec);

  /// Start every created peer as a member of an already-converged community:
  /// full directories everywhere, no join rumors, rounds scheduled with
  /// random phase. This is the "stable community" starting point of §7.2.
  void start_converged();

  /// Bring \p id online as a brand-new member that only knows \p introducer:
  /// publishes its join rumor and pulls the directory via anti-entropy.
  void join(gossip::PeerId id, gossip::PeerId introducer);

  /// Inject a Bloom filter change of \p new_keys keys at \p id (Fig 2).
  /// Returns the rumor id of the created event.
  gossip::RumorId inject_filter_change(gossip::PeerId id, std::uint32_t new_keys);

  /// Take a peer offline (silently, as peers do — §3).
  void go_offline(gossip::PeerId id);

  /// Crash a member: it goes offline and, with \p lose_directory, forgets
  /// all protocol state (directory, hot rumors, version counter) as a
  /// process crash without persistence would.
  void crash(gossip::PeerId id, bool lose_directory);

  /// Bring a crashed (or merely offline) member back. A peer that kept its
  /// directory rejoins in place; one that lost it re-enters through
  /// \p introducer (default: the lowest-id online member), re-learning the
  /// community and recovering its own version via gossip. Returns the rumor
  /// id of the restart event.
  gossip::RumorId restart(gossip::PeerId id, gossip::PeerId introducer = gossip::kInvalidPeer);

  /// Bring a previously joined peer back online; with \p new_keys > 0 the
  /// rejoin also shares that many new keys (Fig 4b's "Join" events).
  /// Returns the rumor id of the rejoin event.
  gossip::RumorId rejoin(gossip::PeerId id, std::uint32_t new_keys);

  bool is_online(gossip::PeerId id) const { return peers_[id].online; }
  double bandwidth(gossip::PeerId id) const { return peers_[id].bandwidth; }
  std::size_t num_peers() const { return peers_.size(); }
  std::size_t online_count() const;

  /// All currently online member ids.
  std::vector<gossip::PeerId> online_peers() const;

  /// True when every online member's directory contains every member at the
  /// newest version (the consistency condition of Fig 3).
  bool directories_consistent() const;

  /// Register a convergence tracker; every subsequent tracked event reports
  /// to it. Returns its index for later retrieval.
  std::size_t add_tracker(std::string name, ConvergenceTracker::PeerPredicate counts,
                          ConvergenceTracker::PeerPredicate origin_filter = nullptr);

  /// Gate event tracking: with tracking off, new events are not registered
  /// with the trackers (existing events keep updating). Used to freeze the
  /// measurement window while the simulation drains.
  void set_tracking(bool enabled) { tracking_enabled_ = enabled; }
  ConvergenceTracker& tracker(std::size_t idx) { return *trackers_[idx]; }
  std::size_t tracker_count() const { return trackers_.size(); }

  EventQueue& queue() { return queue_; }
  /// Traffic statistics. Each access refreshes the embedded GossipStats with
  /// the cumulative aggregate over every peer's Protocol, so callers always
  /// see current dissemination counters (relative to the last reset()).
  NetworkStats& stats();
  /// The fault injector running config.faults. Its plan and counters are
  /// introspectable for tests and benches.
  FaultInjector& faults() { return faults_; }
  gossip::Protocol& protocol(gossip::PeerId id) { return *peers_[id].protocol; }
  const SimConfig& config() const { return config_; }

  /// Run the simulation until \p limit.
  void run_until(TimePoint limit) { queue_.run_until(limit); }

  /// Gossip rounds executed so far (across all peers); the numerator of the
  /// gossip_throughput bench's rounds/sec.
  std::uint64_t rounds_executed() const { return rounds_executed_; }

  // ------------------------------------------------------------------
  // Query-time RPCs (failure-aware retrieval, docs/SEARCH.md)
  // ------------------------------------------------------------------

  /// Decide the fate of one query RPC from \p from to \p to at the current
  /// simulation time: both the request and the response leg pass through the
  /// fault injector, so a query sees exactly the loss/partition behaviour
  /// that gossip sees. Returns a result with no documents — kOk means the
  /// caller may evaluate the query at the target; any fault latency is
  /// reported in the result. Counts sent/failed RPCs into stats().
  search::PeerSearchResult query_rpc(gossip::PeerId from, gossip::PeerId to);

  /// Local query evaluation: score the weighted terms against a peer's data.
  using LocalEvalFn = std::function<std::vector<search::ScoredDoc>(
      gossip::PeerId, const std::unordered_map<std::string, double>&)>;

  /// Wrap \p local_eval into a PeerSearchFn whose contacts are routed
  /// through query_rpc (self-contacts bypass the network). Pass the result
  /// to search::tfipf_search, then report the search back via note_search.
  search::PeerSearchFn search_contact(gossip::PeerId searcher, LocalEvalFn local_eval);

  /// Mirror a finished search's retry/hedge totals into stats().
  void note_search(const search::DistributedSearchResult& result);

 private:
  struct SimPeer {
    std::unique_ptr<gossip::Protocol> protocol;
    double bandwidth = 0.0;
    std::uint32_t key_count = 0;
    bool online = false;
    bool member = false;           ///< has ever joined
    std::uint64_t round_epoch = 0;  ///< invalidates stale round events
    TimePoint next_round_at = 0;
  };

  void schedule_round(gossip::PeerId id, Duration delay);
  void schedule_crash_events();
  void run_round(gossip::PeerId id, std::uint64_t epoch);
  void run_tick(TimePoint at);
  void maybe_pull_round_forward(gossip::PeerId id);
  void dispatch(gossip::PeerId from, const gossip::Protocol::Outgoing& out);
  void deliver(gossip::PeerId from, gossip::PeerId to, const gossip::Message& msg);
  void track_event(const gossip::RumorId& id, gossip::PeerId origin);
  void on_peer_applied(gossip::PeerId peer, const gossip::RumorPayload& payload, TimePoint now);
  gossip::PeerRecord record_of(gossip::PeerId id) const;

  SimConfig config_;
  EventQueue queue_;
  Rng rng_;
  FaultInjector faults_;
  std::vector<SimPeer> peers_;
  std::unique_ptr<LinkModel> links_;
  std::unique_ptr<NetworkStats> stats_;
  std::vector<std::unique_ptr<ConvergenceTracker>> trackers_;
  bool started_ = false;
  bool tracking_enabled_ = true;
  std::uint64_t rounds_executed_ = 0;

  // Parallel stepping state (active only with config.parallel_round_tick > 0):
  // rounds batched per quantized tick, one queue event per occupied tick.
  std::unordered_map<TimePoint, std::vector<std::pair<gossip::PeerId, std::uint64_t>>>
      pending_rounds_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace planetp::sim
