#include <gtest/gtest.h>

#include "sim/community.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"

namespace planetp::sim {
namespace {

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(100, [&order, i] { order.push_back(i); });
  }
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RunUntilStopsAtLimit) {
  EventQueue q;
  int fired = 0;
  q.schedule(10, [&] { ++fired; });
  q.schedule(100, [&] { ++fired; });
  q.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 50);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, CallbacksCanScheduleMore) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) q.schedule(10, chain);
  };
  q.schedule(10, chain);
  q.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.now(), 50);
}

TEST(EventQueue, NegativeDelayClampsToNow) {
  EventQueue q;
  q.schedule(100, [&] {
    q.schedule(-50, [] {});
  });
  q.run();
  EXPECT_EQ(q.now(), 100);
}

TEST(LinkModel, TransferTimeMatchesBandwidth) {
  NetworkParams params;
  params.base_latency = 0;
  LinkModel links({1'000'000.0, 1'000'000.0}, params);  // 1 Mb/s each
  // 12500 bytes = 100,000 bits -> 0.1 s on each of the two links.
  const TimePoint arrival = links.transfer(0, 1, 12500, 0);
  EXPECT_NEAR(to_seconds(arrival), 0.2, 0.001);
}

TEST(LinkModel, SlowReceiverDominates) {
  NetworkParams params;
  params.base_latency = 0;
  LinkModel links({45'000'000.0, 56'000.0}, params);  // LAN -> modem
  const TimePoint arrival = links.transfer(0, 1, 7000, 0);  // 56,000 bits
  EXPECT_NEAR(to_seconds(arrival), 1.0, 0.01);  // bound by the modem
}

TEST(LinkModel, BackToBackTransfersQueue) {
  NetworkParams params;
  params.base_latency = 0;
  LinkModel links({1'000'000.0, 1'000'000.0, 1'000'000.0}, params);
  const TimePoint first = links.transfer(0, 1, 12500, 0);
  // Second message from the same sender must wait for the uplink.
  const TimePoint second = links.transfer(0, 2, 12500, 0);
  EXPECT_GT(second, first);
}

TEST(LinkModel, MixSamplerMatchesSaroiuFractions) {
  Rng rng(42);
  std::size_t slow = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (!is_fast_link(sample_mix_bandwidth(rng))) ++slow;
  }
  // 9% of the mixture is modem-speed (below 512 kb/s).
  EXPECT_NEAR(static_cast<double>(slow) / n, 0.09, 0.01);
}

TEST(NetworkStats, TracksBytesAndClasses) {
  NetworkStats stats(4);
  stats.record(0, 100, 0, TrafficKind::kRumor);
  stats.record(1, 50, kSecond, TrafficKind::kAntiEntropy);
  EXPECT_EQ(stats.total_bytes(), 150u);
  EXPECT_EQ(stats.rumor_bytes(), 100u);
  EXPECT_EQ(stats.anti_entropy_bytes(), 50u);
  EXPECT_EQ(stats.total_messages(), 2u);
  EXPECT_EQ(stats.per_peer_bytes()[0], 100u);
  EXPECT_EQ(stats.per_peer_bytes()[1], 50u);
}

TEST(NetworkStats, TimeSeriesBuckets) {
  NetworkStats stats(1, 10 * kSecond);
  stats.record(0, 10, 0);
  stats.record(0, 20, 5 * kSecond);
  stats.record(0, 30, 15 * kSecond);
  const auto series = stats.bytes_over_time();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].second, 30u);
  EXPECT_EQ(series[1].second, 30u);
}

TEST(SimCommunity, PropagatesFilterChangeToEveryone) {
  SimConfig cfg;
  cfg.seed = 5;
  SimCommunity community(cfg);
  for (int i = 0; i < 30; ++i) community.add_peer({link_speed::kLan45M, 1000});
  const auto tracker_idx = community.add_tracker("all", [](gossip::PeerId) { return true; });
  community.start_converged();
  community.run_until(2 * kMinute);

  community.inject_filter_change(0, 500);
  community.run_until(30 * kMinute);
  EXPECT_EQ(community.tracker(tracker_idx).converged_events(), 1u);
  EXPECT_EQ(community.tracker(tracker_idx).pending_events(), 0u);

  // Every peer's directory holds the new version.
  for (gossip::PeerId id = 0; id < 30; ++id) {
    const auto* r = community.protocol(id).directory().find(0);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->version, 2u) << id;
    EXPECT_EQ(r->key_count, 1500u) << id;
  }
}

TEST(SimCommunity, DeterministicForSeed) {
  auto run = [] {
    SimConfig cfg;
    cfg.seed = 99;
    SimCommunity community(cfg);
    for (int i = 0; i < 20; ++i) community.add_peer({link_speed::kDsl512k, 1000});
    const auto t = community.add_tracker("all", [](gossip::PeerId) { return true; });
    community.start_converged();
    community.run_until(kMinute);
    community.inject_filter_change(3, 100);
    community.run_until(20 * kMinute);
    return std::make_pair(community.tracker(t).durations().max(),
                          community.stats().total_bytes());
  };
  EXPECT_EQ(run(), run());
}

/// Full observable signature of a parallel-stepping run: convergence samples,
/// traffic, rounds, and every peer's final summary snapshot.
struct ParallelRunSignature {
  std::vector<double> durations;
  std::uint64_t total_bytes = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t rounds = 0;
  std::vector<std::vector<gossip::PeerSummary>> directories;
  bool consistent = false;

  bool operator==(const ParallelRunSignature&) const = default;
};

ParallelRunSignature parallel_run(std::size_t threads, Duration tick) {
  SimConfig cfg;
  cfg.seed = 99;
  cfg.parallel_round_tick = tick;
  cfg.parallel_threads = threads;
  SimCommunity community(cfg);
  for (int i = 0; i < 40; ++i) community.add_peer({link_speed::kDsl512k, 1000});
  const auto t = community.add_tracker("all", [](gossip::PeerId) { return true; });
  community.start_converged();
  community.run_until(kMinute);
  community.inject_filter_change(3, 100);
  community.inject_filter_change(17, 200);
  community.run_until(10 * kMinute);
  community.inject_filter_change(31, 50);
  community.run_until(40 * kMinute);

  ParallelRunSignature sig;
  sig.durations = community.tracker(t).durations().samples();
  sig.total_bytes = community.stats().total_bytes();
  sig.total_messages = community.stats().total_messages();
  sig.rounds = community.rounds_executed();
  for (gossip::PeerId id = 0; id < 40; ++id) {
    sig.directories.push_back(*community.protocol(id).directory().summary());
  }
  sig.consistent = community.directories_consistent();
  return sig;
}

TEST(SimCommunity, ParallelSteppingIdenticalAcrossThreadCounts) {
  // The determinism contract of SimConfig::parallel_round_tick: for a fixed
  // seed and tick, every observable — convergence samples, bytes, messages,
  // rounds, final directories — is identical whether same-tick rounds step
  // on 1 worker or many. (This test is also the TSan target for the
  // concurrent on_round path; see scripts/check.sh.)
  const ParallelRunSignature one = parallel_run(1, kSecond);
  const ParallelRunSignature four = parallel_run(4, kSecond);
  EXPECT_EQ(one, four);
  EXPECT_TRUE(one.consistent);
  EXPECT_EQ(one.durations.size(), 3u) << "all injected events must converge";
  EXPECT_GT(one.rounds, 0u);
}

TEST(SimCommunity, ParallelSteppingConvergesLikeSequential) {
  // Tick quantization may shift individual round times (by < tick), so exact
  // traces differ from the sequential engine — but the community still
  // converges, and rounds execute at the same overall rate.
  const ParallelRunSignature par = parallel_run(2, kSecond);
  EXPECT_TRUE(par.consistent);
  ASSERT_EQ(par.durations.size(), 3u);
  for (double d : par.durations) {
    EXPECT_GT(d, 0.0);
    EXPECT_LT(d, 30.0 * 60.0) << "convergence within the run window";
  }
}

TEST(SimCommunity, JoinerDownloadsDirectory) {
  SimConfig cfg;
  cfg.seed = 6;
  SimCommunity community(cfg);
  for (int i = 0; i < 10; ++i) community.add_peer({link_speed::kLan45M, 1000});
  community.start_converged();
  community.run_until(kMinute);

  const auto newbie = community.add_peer({link_speed::kLan45M, 2000});
  community.join(newbie, 0);
  community.run_until(30 * kMinute);

  EXPECT_EQ(community.protocol(newbie).directory().size(), 11u);
  // And everyone learned about the newbie.
  for (gossip::PeerId id = 0; id < 10; ++id) {
    EXPECT_NE(community.protocol(id).directory().find(newbie), nullptr) << id;
  }
  EXPECT_TRUE(community.directories_consistent());
}

TEST(SimCommunity, OfflinePeerMissesRumorsUntilRejoin) {
  SimConfig cfg;
  cfg.seed = 7;
  SimCommunity community(cfg);
  for (int i = 0; i < 10; ++i) community.add_peer({link_speed::kLan45M, 1000});
  community.start_converged();
  community.run_until(kMinute);

  community.go_offline(9);
  community.inject_filter_change(0, 100);
  community.run_until(20 * kMinute);
  EXPECT_EQ(community.protocol(9).directory().find(0)->version, 1u);

  community.rejoin(9, 0);
  community.run_until(60 * kMinute);
  EXPECT_EQ(community.protocol(9).directory().find(0)->version, 2u);
}

TEST(SimCommunity, MessageLossStillConverges) {
  SimConfig cfg;
  cfg.seed = 8;
  cfg.faults = FaultPlan::uniform_drop(0.10);  // failure injection
  SimCommunity community(cfg);
  for (int i = 0; i < 20; ++i) community.add_peer({link_speed::kLan45M, 1000});
  const auto t = community.add_tracker("all", [](gossip::PeerId) { return true; });
  community.start_converged();
  community.run_until(kMinute);
  community.inject_filter_change(0, 100);
  community.run_until(2 * kHour);
  EXPECT_EQ(community.tracker(t).pending_events(), 0u);
}

TEST(ConvergenceTracker, OfflinePeersDoNotGate) {
  ConvergenceTracker tracker("t", [](gossip::PeerId) { return true; });
  tracker.track({0, 1}, 0, {0, 1, 2}, 0);
  tracker.learned({0, 1}, 1, 10 * kSecond);
  EXPECT_EQ(tracker.pending_events(), 1u);
  tracker.peer_offline(2, 20 * kSecond);
  EXPECT_EQ(tracker.pending_events(), 0u);
  EXPECT_EQ(tracker.converged_events(), 1u);
  EXPECT_NEAR(tracker.durations().max(), 20.0, 1e-9);
}

TEST(ConvergenceTracker, DepartedPeersAreExcusedPermanently) {
  // Peers offline mid-event are excused and do not gate again on rejoin:
  // "known to everyone" is judged against the community as of the event.
  ConvergenceTracker tracker("t", [](gossip::PeerId) { return true; });
  tracker.track({0, 1}, 0, {0, 1, 2}, 0);
  tracker.peer_offline(2, 0);
  EXPECT_EQ(tracker.pending_events(), 1u);  // peer 1 still must learn
  tracker.learned({0, 1}, 1, kSecond);
  EXPECT_EQ(tracker.converged_events(), 1u);
  EXPECT_NEAR(tracker.durations().max(), 1.0, 1e-9);
}

TEST(ConvergenceTracker, OriginFilterSkipsEvents) {
  ConvergenceTracker tracker("fast-only", [](gossip::PeerId) { return true; },
                             [](gossip::PeerId origin) { return origin == 0; });
  tracker.track({0, 1}, 0, {0, 1}, 0);
  tracker.track({5, 1}, 0, {0, 1}, 5);  // filtered out
  EXPECT_EQ(tracker.tracked_events(), 1u);
}

}  // namespace
}  // namespace planetp::sim
