#include "sim/scenarios.hpp"

#include <gtest/gtest.h>

namespace planetp::sim {
namespace {

// Scenario tests use deliberately small communities so the full suite stays
// fast; the bench binaries run the paper-scale versions.

PropagationOptions small_propagation(std::size_t n) {
  PropagationOptions o;
  o.community_size = n;
  o.warmup = 2 * kMinute;
  o.timeout = 2 * kHour;
  return o;
}

TEST(Scenarios, PropagationConvergesOnLan) {
  auto o = small_propagation(50);
  o.profile = BandwidthProfile::kLan;
  const auto r = run_propagation(o);
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.propagation_seconds, 0.0);
  EXPECT_GT(r.event_bytes, 0u);
  EXPECT_LE(r.event_bytes, r.total_bytes);
}

TEST(Scenarios, PropagationTimeGrowsSlowlyWithSize) {
  // Propagation is O(log N): quadrupling the community must not quadruple
  // the time (allow generous noise margins).
  auto small = small_propagation(40);
  auto large = small_propagation(160);
  const auto rs = run_propagation(small);
  const auto rl = run_propagation(large);
  ASSERT_TRUE(rs.converged);
  ASSERT_TRUE(rl.converged);
  EXPECT_LT(rl.propagation_seconds, rs.propagation_seconds * 3.0);
}

TEST(Scenarios, AntiEntropyBaselineUsesMoreVolume) {
  // The paper's LAN-AE comparison: pure anti-entropy's summary messages
  // scale with community size, so past a modest size it moves more bytes
  // than the rumor-based algorithm for the same event (Fig 2b's crossover).
  auto planetp_opts = small_propagation(250);
  planetp_opts.profile = BandwidthProfile::kLan;
  auto ae_opts = planetp_opts;
  ae_opts.rumoring = false;

  const auto planetp_result = run_propagation(planetp_opts);
  const auto ae_result = run_propagation(ae_opts);
  ASSERT_TRUE(planetp_result.converged);
  ASSERT_TRUE(ae_result.converged);
  EXPECT_GT(ae_result.event_bytes, planetp_result.event_bytes);
}

TEST(Scenarios, SlowerGossipIntervalSlowsPropagation) {
  auto fast = small_propagation(50);
  fast.gossip_interval = 10 * kSecond;
  auto slow = small_propagation(50);
  slow.gossip_interval = 60 * kSecond;
  const auto rf = run_propagation(fast);
  const auto rs = run_propagation(slow);
  ASSERT_TRUE(rf.converged);
  ASSERT_TRUE(rs.converged);
  EXPECT_LT(rf.propagation_seconds, rs.propagation_seconds);
}

TEST(Scenarios, JoinReachesConsistency) {
  JoinOptions o;
  o.existing_members = 40;
  o.joiners = 10;
  o.keys_per_peer = 2000;
  o.warmup = 2 * kMinute;
  o.timeout = 4 * kHour;
  const auto r = run_join(o);
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.consistency_seconds, 0.0);
  EXPECT_GT(r.total_bytes, 0u);
}

TEST(Scenarios, MoreJoinersTakeMoreVolume) {
  JoinOptions small;
  small.existing_members = 40;
  small.joiners = 4;
  small.keys_per_peer = 2000;
  small.warmup = 2 * kMinute;
  JoinOptions large = small;
  large.joiners = 16;
  const auto rs = run_join(small);
  const auto rl = run_join(large);
  ASSERT_TRUE(rs.converged);
  ASSERT_TRUE(rl.converged);
  EXPECT_GT(rl.total_bytes, rs.total_bytes);
}

TEST(Scenarios, ArrivalsCdfIsComplete) {
  ArrivalOptions o;
  o.stable_members = 40;
  o.arrivals = 10;
  o.mean_interarrival = 30 * kSecond;
  o.warmup = 2 * kMinute;
  o.drain = kHour;
  const auto r = run_arrivals(o);
  EXPECT_EQ(r.events, 10u);
  EXPECT_EQ(r.converged, 10u);
  EXPECT_GT(r.mean_seconds, 0.0);
  EXPECT_LE(r.p50, r.p99);
  ASSERT_FALSE(r.cdf.empty());
  EXPECT_DOUBLE_EQ(r.cdf.back().second, 1.0);
}

TEST(Scenarios, DynamicCommunityConverges) {
  DynamicOptions o;
  o.members = 40;
  o.warmup = 5 * kMinute;
  o.duration = kHour;
  o.mean_online = 20 * kMinute;
  o.mean_offline = 30 * kMinute;
  const auto r = run_dynamic(o);
  EXPECT_GT(r.all.events, 0u);
  EXPECT_GT(r.all.converged, 0u);
  EXPECT_GT(r.total_bytes, 0u);
  EXPECT_FALSE(r.bandwidth_series.empty());
}

TEST(Scenarios, DynamicMixTracksFastAndSlowOrigins) {
  DynamicOptions o;
  o.members = 60;
  o.profile = BandwidthProfile::kMix;
  o.bandwidth_aware = true;
  o.warmup = 5 * kMinute;
  o.duration = kHour;
  o.mean_online = 20 * kMinute;
  o.mean_offline = 30 * kMinute;
  const auto r = run_dynamic(o);
  // Events split by origin class; the union matches the overall tracker.
  EXPECT_EQ(r.fast_only.events + r.slow_only.events, r.all.events);
}

// Exact traces of small paper-default runs: every GossipConfig field at its
// default apart from what the scenario itself sets. The other scenario tests
// check shapes, not figures; these pins make any change to the default
// dissemination path fail the suite. MIX with bandwidth_aware covers the
// slow-link rule. A changed value is a trace change: find its cause rather
// than re-recording it.
TEST(Scenarios, PaperDefaultTracesArePinned) {
  auto rumor = small_propagation(100);
  rumor.profile = BandwidthProfile::kDsl;
  auto ae = rumor;
  ae.rumoring = false;
  const auto pr = run_propagation(rumor);
  EXPECT_TRUE(pr.converged);
  EXPECT_EQ(pr.total_bytes, 1164834u);
  EXPECT_EQ(pr.event_bytes, 1006062u);
  EXPECT_DOUBLE_EQ(pr.propagation_seconds, 157.44352799999999);
  const auto pa = run_propagation(ae);
  EXPECT_TRUE(pa.converged);
  EXPECT_EQ(pa.total_bytes, 954360u);
  EXPECT_EQ(pa.event_bytes, 954360u);
  EXPECT_DOUBLE_EQ(pa.propagation_seconds, 288.661519);

  ArrivalOptions arrivals;
  arrivals.stable_members = 40;
  arrivals.arrivals = 8;
  arrivals.mean_interarrival = 30 * kSecond;
  arrivals.warmup = 2 * kMinute;
  arrivals.drain = kHour;
  const auto ar = run_arrivals(arrivals);
  EXPECT_EQ(ar.events, 8u);
  EXPECT_EQ(ar.converged, 8u);
  EXPECT_DOUBLE_EQ(ar.mean_seconds, 198.84451800000005);
  EXPECT_DOUBLE_EQ(ar.p50, 195.0159285);
  EXPECT_DOUBLE_EQ(ar.p90, 240.09788129999998);
  EXPECT_DOUBLE_EQ(ar.p99, 242.51454303);
  arrivals.partial_ae = false;
  const auto npa = run_arrivals(arrivals);
  EXPECT_EQ(npa.events, 8u);
  EXPECT_EQ(npa.converged, 8u);
  EXPECT_DOUBLE_EQ(npa.mean_seconds, 235.16863724999999);
  EXPECT_DOUBLE_EQ(npa.p50, 226.2852145);
  EXPECT_DOUBLE_EQ(npa.p90, 319.04100419999997);
  EXPECT_DOUBLE_EQ(npa.p99, 356.99270442);

  DynamicOptions mix;
  mix.members = 150;
  mix.profile = BandwidthProfile::kMix;
  mix.bandwidth_aware = true;
  mix.warmup = 5 * kMinute;
  mix.duration = kHour;
  mix.mean_online = 20 * kMinute;
  mix.mean_offline = 30 * kMinute;
  const auto d = run_dynamic(mix);
  EXPECT_EQ(d.total_bytes, 115104063u);
  EXPECT_EQ(d.all.events, 124u);
  EXPECT_EQ(d.all.converged, 116u);
  EXPECT_DOUBLE_EQ(d.all.mean_seconds, 372.3409660172415);
  EXPECT_EQ(d.fast_only.events, 110u);
  EXPECT_EQ(d.fast_only.converged, 104u);
  EXPECT_DOUBLE_EQ(d.fast_only.mean_seconds, 360.94942431730783);
  EXPECT_EQ(d.slow_only.events, 14u);
  EXPECT_EQ(d.slow_only.converged, 12u);
  EXPECT_DOUBLE_EQ(d.slow_only.mean_seconds, 405.19642975000005);
}

TEST(Scenarios, ProfileNamesAndBandwidths) {
  EXPECT_STREQ(to_string(BandwidthProfile::kLan), "LAN");
  EXPECT_STREQ(to_string(BandwidthProfile::kDsl), "DSL");
  EXPECT_STREQ(to_string(BandwidthProfile::kMix), "MIX");
  Rng rng(1);
  EXPECT_EQ(profile_bandwidth(BandwidthProfile::kLan, rng), link_speed::kLan45M);
  EXPECT_EQ(profile_bandwidth(BandwidthProfile::kDsl, rng), link_speed::kDsl512k);
}

}  // namespace
}  // namespace planetp::sim
