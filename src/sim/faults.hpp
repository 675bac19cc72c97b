#pragma once

#include <cstdint>
#include <limits>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "gossip/messages.hpp"
#include "gossip/types.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

/// \file faults.hpp
/// Deterministic fault injection for the gossip layer. A FaultPlan is a pure
/// description — per-link or per-peer rules active inside time windows that
/// drop, duplicate, delay or reorder messages, network partitions that heal,
/// and peer crash/restart events. A FaultInjector pairs a plan with a seeded
/// Rng and makes the actual per-message decisions: the same (plan, seed) and
/// the same sequence of decide() calls always yield the same injected-fault
/// sequence, so every failing scenario reproduces from its seed.
///
/// The same plan drives both runtimes: `SimCommunity` consults an injector in
/// its dispatch path (`SimConfig::faults`), and `net::LiveNode` accepts a
/// shared injector that wraps its TCP send path, so live tests replay the
/// exact scenarios the simulator runs.

namespace planetp::sim {

/// Wildcard peer id for fault scoping.
inline constexpr gossip::PeerId kAnyPeer = gossip::kInvalidPeer;

/// Half-open activity window [start, end) in simulation time.
struct TimeWindow {
  TimePoint start = 0;
  TimePoint end = std::numeric_limits<TimePoint>::max();

  bool contains(TimePoint t) const { return t >= start && t < end; }
  static TimeWindow always() { return {}; }
};

/// Which messages a rule applies to. `from`/`to` scope one link direction;
/// `peer` scopes every message touching that peer (either endpoint). All
/// three default to kAnyPeer (match everything) and compose conjunctively.
struct FaultScope {
  gossip::PeerId from = kAnyPeer;
  gossip::PeerId to = kAnyPeer;
  gossip::PeerId peer = kAnyPeer;

  bool matches(gossip::PeerId f, gossip::PeerId t) const {
    if (from != kAnyPeer && f != from) return false;
    if (to != kAnyPeer && t != to) return false;
    if (peer != kAnyPeer && f != peer && t != peer) return false;
    return true;
  }

  static FaultScope link(gossip::PeerId from, gossip::PeerId to) { return {from, to, kAnyPeer}; }
  static FaultScope of_peer(gossip::PeerId peer) { return {kAnyPeer, kAnyPeer, peer}; }
  static FaultScope any() { return {}; }
};

/// Message-type scoping for fault rules: values mirror the gossip::Message
/// variant indices so a rule can target one protocol leg (e.g. lose only
/// RumorWant replies and prove anti-entropy heals the stranded rumor). kAny
/// matches everything, including non-gossip traffic such as query RPCs.
enum class MsgClass : std::uint8_t {
  kRumor = 0,
  kRumorAck = 1,
  kSummaryRequest = 2,
  kSummary = 3,
  kPullRequest = 4,
  kPullResponse = 5,
  kRumorDigest = 6,
  kRumorWant = 7,
  kAny = 255,
};

/// The class of a concrete gossip message.
inline MsgClass msg_class_of(const gossip::Message& msg) {
  return static_cast<MsgClass>(msg.index());
}

enum class FaultAction : std::uint8_t {
  kDrop = 0,       ///< lose the message
  kDuplicate = 1,  ///< deliver an extra copy, lagging the original
  kDelay = 2,      ///< add latency to the message
  kReorder = 3,    ///< hold the message so later traffic overtakes it
};

struct FaultRule {
  FaultAction action = FaultAction::kDrop;
  FaultScope scope;
  TimeWindow window;
  double probability = 1.0;
  /// kDelay: fixed extra latency. kDuplicate/kReorder: minimum lag of the
  /// duplicate copy / held message.
  Duration delay = 0;
  /// Additional uniform-random latency in [0, jitter).
  Duration jitter = 0;
  /// Drop rules only: the sender is told delivery failed (TCP-like refusal)
  /// instead of the message vanishing silently (UDP-like loss).
  bool notify_sender = false;
  /// Restrict the rule to one gossip message type (kAny = all traffic).
  MsgClass msg = MsgClass::kAny;
};

/// A partition splits listed peers into groups; messages between different
/// groups are cut (with sender notification — a partitioned link refuses
/// connections, it does not silently eat traffic). Peers not listed in any
/// group are unaffected. The partition heals when the window ends.
struct PartitionSpec {
  TimeWindow window;
  std::unordered_map<gossip::PeerId, int> group_of;
};

/// Scheduled crash of a peer. With `lose_directory` the peer forgets all
/// protocol state (directory, hot rumors) as a process crash would; otherwise
/// it keeps its persisted directory, as PlanetP peers do (§3). restart_at == 0
/// means the peer never comes back.
struct CrashEvent {
  gossip::PeerId peer = kAnyPeer;
  TimePoint at = 0;
  TimePoint restart_at = 0;
  bool lose_directory = false;
};

/// What to do with one message. `duplicate_lags` holds the extra copies'
/// lags relative to the (already delayed) primary delivery.
struct FaultDecision {
  bool drop = false;
  bool partition_drop = false;  ///< drop was caused by a partition
  bool notify_sender = false;   ///< valid when drop: tell the sender
  bool delayed = false;
  bool reordered = false;
  Duration extra_delay = 0;
  std::vector<Duration> duplicate_lags;
};

/// Running totals of injected faults (also mirrored into NetworkStats by the
/// simulator so benches report convergence-vs-loss from one place).
struct FaultCounters {
  std::uint64_t dropped = 0;            ///< all dropped messages, partitions included
  std::uint64_t partition_dropped = 0;  ///< subset of `dropped` cut by partitions
  std::uint64_t duplicated = 0;         ///< extra copies injected
  std::uint64_t delayed = 0;
  std::uint64_t reordered = 0;
};

/// Declarative fault schedule. Builder methods return *this so plans read as
/// one chained expression; the plan itself holds no randomness.
class FaultPlan {
 public:
  FaultPlan& drop(FaultScope scope, TimeWindow window, double probability,
                  bool notify_sender = false, MsgClass msg = MsgClass::kAny);
  FaultPlan& duplicate(FaultScope scope, TimeWindow window, double probability,
                       Duration min_lag = 0, Duration jitter = kSecond,
                       MsgClass msg = MsgClass::kAny);
  FaultPlan& delay(FaultScope scope, TimeWindow window, Duration extra, Duration jitter = 0,
                   double probability = 1.0, MsgClass msg = MsgClass::kAny);
  FaultPlan& reorder(FaultScope scope, TimeWindow window, double probability,
                     Duration min_hold = 0, Duration jitter = kSecond,
                     MsgClass msg = MsgClass::kAny);
  FaultPlan& partition(TimeWindow window, const std::vector<std::vector<gossip::PeerId>>& groups);
  FaultPlan& crash(gossip::PeerId peer, TimePoint at, TimePoint restart_at = 0,
                   bool lose_directory = false);

  /// Uniform message loss: every message, everywhere, forever, silently
  /// lost with probability \p p.
  static FaultPlan uniform_drop(double p);

  bool empty() const { return rules_.empty() && partitions_.empty() && crashes_.empty(); }
  const std::vector<FaultRule>& rules() const { return rules_; }
  const std::vector<PartitionSpec>& partitions() const { return partitions_; }
  const std::vector<CrashEvent>& crashes() const { return crashes_; }

 private:
  std::vector<FaultRule> rules_;
  std::vector<PartitionSpec> partitions_;
  std::vector<CrashEvent> crashes_;
};

/// Applies a FaultPlan with a deterministic random stream. Thread-safe (the
/// live runtime calls decide() from several reactor threads sharing one
/// injector); the simulator's single-threaded use pays one uncontended lock.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan = {}, std::uint64_t seed = 0);

  /// Decide the fate of one message from \p from to \p to sent at \p now.
  /// Partitions are checked first, then rules in plan order; the first drop
  /// wins. Non-drop effects accumulate. \p msg lets class-scoped rules match
  /// only their message type; callers without a gossip message (query RPCs)
  /// pass kAny, which only class-less rules apply to.
  FaultDecision decide(gossip::PeerId from, gossip::PeerId to, TimePoint now,
                       MsgClass msg = MsgClass::kAny);

  const FaultPlan& plan() const { return plan_; }
  FaultCounters counters() const;
  void reset_counters();

 private:
  FaultPlan plan_;
  mutable std::mutex mu_;
  Rng rng_;
  FaultCounters counters_;
};

}  // namespace planetp::sim
