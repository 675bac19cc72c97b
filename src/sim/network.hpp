#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "gossip/messages.hpp"
#include "gossip/stats.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

/// \file network.hpp
/// Link-level model for the simulator, parameterized per Table 2: per-peer
/// access-link bandwidths from 56 Kb/s to 45 Mb/s, serialized transfers on
/// both endpoints' links, and a fixed per-message CPU gossiping cost (5 ms).

namespace planetp::sim {

/// Bandwidths used throughout §7.2, in bits per second.
namespace link_speed {
inline constexpr double kModem56k = 56'000.0;
inline constexpr double kDsl512k = 512'000.0;
inline constexpr double kCable5M = 5'000'000.0;
inline constexpr double kEthernet10M = 10'000'000.0;
inline constexpr double kLan45M = 45'000'000.0;
}  // namespace link_speed

/// Draw a per-peer bandwidth from the Gnutella/Napster mixture measured by
/// Saroiu et al. and used for the paper's MIX scenarios: 9% 56 Kb/s, 21%
/// 512 Kb/s, 50% 5 Mb/s, 16% 10 Mb/s, 4% 45 Mb/s.
double sample_mix_bandwidth(Rng& rng);

/// The paper's fast/slow split for bandwidth-aware gossiping: fast is
/// 512 Kb/s or better.
bool is_fast_link(double bits_per_second);

/// Network cost/accounting model.
struct NetworkParams {
  Duration cpu_gossip_time = 5 * kMillisecond;  ///< Table 2: CPU gossiping time
  Duration base_latency = 5 * kMillisecond;     ///< propagation delay floor
  Duration bandwidth_bucket = 10 * kSecond;     ///< granularity of the bytes/s series
};

/// Traffic class, for separating event-propagation traffic (rumors, acks,
/// pulls) from background anti-entropy (summary exchanges). Fig 2b reports
/// the former; the LAN-AE baseline propagates *through* the latter.
enum class TrafficKind { kRumor = 0, kAntiEntropy = 1 };

/// Aggregate traffic statistics for an experiment window.
class NetworkStats {
 public:
  explicit NetworkStats(std::size_t num_peers = 0, Duration bucket = 10 * kSecond)
      : per_peer_bytes_(num_peers, 0), bucket_(bucket) {}

  void record(std::uint32_t sender, std::size_t bytes, TimePoint at,
              TrafficKind kind = TrafficKind::kRumor);

  /// Per-message-type accounting, keyed by gossip::Message variant index
  /// (bench/gossip_throughput splits bytes/round by type from this).
  void record_typed(std::size_t type_index, std::size_t bytes) {
    if (type_index < bytes_by_type_.size()) {
      bytes_by_type_[type_index] += bytes;
      ++messages_by_type_[type_index];
    }
  }

  /// Injected-fault accounting (see sim/faults.hpp): every drop a
  /// FaultPlan rule or partition makes is counted, so loss experiments
  /// never under-report traffic.
  void record_dropped(bool partition) {
    ++dropped_messages_;
    if (partition) ++partition_dropped_messages_;
  }
  void record_duplicated(std::size_t copies) { duplicated_messages_ += copies; }
  void record_delayed() { ++delayed_messages_; }
  void record_reordered() { ++reordered_messages_; }

  /// Query/search RPC accounting (failure-aware retrieval, docs/SEARCH.md):
  /// first attempts, extra retry attempts, hedged duplicates, and contacts
  /// that never produced an answer.
  void record_query_sent() { ++query_rpcs_sent_; }
  void record_query_retried(std::uint64_t attempts) { query_rpcs_retried_ += attempts; }
  void record_query_hedged(std::uint64_t contacts) { query_rpcs_hedged_ += contacts; }
  void record_query_failed() { ++query_rpcs_failed_; }

  std::uint64_t dropped_messages() const { return dropped_messages_; }
  std::uint64_t partition_dropped_messages() const { return partition_dropped_messages_; }
  std::uint64_t duplicated_messages() const { return duplicated_messages_; }
  std::uint64_t delayed_messages() const { return delayed_messages_; }
  std::uint64_t reordered_messages() const { return reordered_messages_; }

  std::uint64_t query_rpcs_sent() const { return query_rpcs_sent_; }
  std::uint64_t query_rpcs_retried() const { return query_rpcs_retried_; }
  std::uint64_t query_rpcs_hedged() const { return query_rpcs_hedged_; }
  std::uint64_t query_rpcs_failed() const { return query_rpcs_failed_; }

  std::uint64_t total_bytes() const { return total_bytes_; }
  std::uint64_t rumor_bytes() const { return rumor_bytes_; }
  std::uint64_t anti_entropy_bytes() const { return total_bytes_ - rumor_bytes_; }
  std::uint64_t total_messages() const { return total_messages_; }
  const std::vector<std::uint64_t>& per_peer_bytes() const { return per_peer_bytes_; }

  /// Bytes / messages sent per gossip::Message variant index.
  const std::array<std::uint64_t, gossip::kMessageTypeCount>& bytes_by_type() const {
    return bytes_by_type_;
  }
  const std::array<std::uint64_t, gossip::kMessageTypeCount>& messages_by_type() const {
    return messages_by_type_;
  }

  /// Community-wide dissemination counters (payload pushes vs. duplicates,
  /// digests, served wants — docs/PROTOCOL.md "Lazy dissemination").
  /// SimCommunity::stats() installs the cumulative aggregate across every
  /// peer's Protocol on each access; the reported value is relative to the
  /// last reset(), like every other counter here.
  void set_gossip_stats(gossip::GossipStats cumulative) {
    gossip_cumulative_ = cumulative;
    cumulative -= gossip_baseline_;
    gossip_stats_ = cumulative;
  }
  const gossip::GossipStats& gossip_stats() const { return gossip_stats_; }

  /// (bucket start seconds, bytes in bucket) series for Fig 4c-style plots.
  std::vector<std::pair<double, std::uint64_t>> bytes_over_time() const;

  /// Reset counters (e.g. after warm-up) without losing sizing.
  void reset();

 private:
  std::uint64_t total_bytes_ = 0;
  std::uint64_t rumor_bytes_ = 0;
  std::uint64_t total_messages_ = 0;
  std::uint64_t dropped_messages_ = 0;
  std::uint64_t partition_dropped_messages_ = 0;
  std::uint64_t duplicated_messages_ = 0;
  std::uint64_t delayed_messages_ = 0;
  std::uint64_t reordered_messages_ = 0;
  std::uint64_t query_rpcs_sent_ = 0;
  std::uint64_t query_rpcs_retried_ = 0;
  std::uint64_t query_rpcs_hedged_ = 0;
  std::uint64_t query_rpcs_failed_ = 0;
  std::vector<std::uint64_t> per_peer_bytes_;
  std::array<std::uint64_t, gossip::kMessageTypeCount> bytes_by_type_{};
  std::array<std::uint64_t, gossip::kMessageTypeCount> messages_by_type_{};
  gossip::GossipStats gossip_stats_;
  gossip::GossipStats gossip_baseline_;
  gossip::GossipStats gossip_cumulative_;
  Duration bucket_;
  std::vector<std::uint64_t> buckets_;
  TimePoint origin_ = 0;
  bool origin_set_ = false;
};

/// Per-peer link state: models store-and-forward serialization on the
/// sender's uplink and the receiver's downlink. Both directions share one
/// access link per peer (DSL/modem links are the bottleneck the paper
/// studies, and gossip messages are small relative to link asymmetry).
class LinkModel {
 public:
  explicit LinkModel(NetworkParams params) : params_(params) {}
  LinkModel(std::vector<double> peer_bandwidths_bps, NetworkParams params);

  /// Register a peer's access link; ids are assigned densely in call order.
  void add_peer(double bandwidth_bps);

  /// Compute the delivery time of a \p bytes message from \p from to \p to
  /// starting at \p now, updating both links' busy horizons.
  TimePoint transfer(std::uint32_t from, std::uint32_t to, std::size_t bytes, TimePoint now);

  double bandwidth(std::uint32_t peer) const { return bandwidth_[peer]; }
  const NetworkParams& params() const { return params_; }

  /// Clear queued-busy state (between experiment phases).
  void reset_busy();

 private:
  std::vector<double> bandwidth_;
  std::vector<TimePoint> uplink_free_;
  std::vector<TimePoint> downlink_free_;
  NetworkParams params_;
};

}  // namespace planetp::sim
