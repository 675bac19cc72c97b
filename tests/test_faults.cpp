#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "sim/community.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"

namespace planetp::sim {
namespace {

// ---------------------------------------------------------------------------
// TimeWindow / FaultScope primitives
// ---------------------------------------------------------------------------

TEST(TimeWindow, HalfOpenBoundaries) {
  const TimeWindow w{10 * kSecond, 20 * kSecond};
  EXPECT_FALSE(w.contains(10 * kSecond - 1));
  EXPECT_TRUE(w.contains(10 * kSecond));  // inclusive start
  EXPECT_TRUE(w.contains(15 * kSecond));
  EXPECT_TRUE(w.contains(20 * kSecond - 1));
  EXPECT_FALSE(w.contains(20 * kSecond));  // exclusive end
}

TEST(TimeWindow, AlwaysCoversEverything) {
  const TimeWindow w = TimeWindow::always();
  EXPECT_TRUE(w.contains(0));
  EXPECT_TRUE(w.contains(std::numeric_limits<TimePoint>::max() - 1));
}

TEST(FaultScope, LinkMatchesOneDirectionOnly) {
  const FaultScope s = FaultScope::link(0, 1);
  EXPECT_TRUE(s.matches(0, 1));
  EXPECT_FALSE(s.matches(1, 0));  // reverse direction is a different link
  EXPECT_FALSE(s.matches(0, 2));
  EXPECT_FALSE(s.matches(2, 1));
}

TEST(FaultScope, PeerMatchesEitherEndpoint) {
  const FaultScope s = FaultScope::of_peer(3);
  EXPECT_TRUE(s.matches(3, 7));
  EXPECT_TRUE(s.matches(7, 3));
  EXPECT_FALSE(s.matches(1, 2));
}

TEST(FaultScope, AnyMatchesEverything) {
  const FaultScope s = FaultScope::any();
  EXPECT_TRUE(s.matches(0, 1));
  EXPECT_TRUE(s.matches(99, 5));
}

TEST(FaultScope, FieldsComposeConjunctively) {
  FaultScope s = FaultScope::link(0, 1);
  s.peer = 1;
  EXPECT_TRUE(s.matches(0, 1));
  s.peer = 2;  // link matches but the peer constraint now fails
  EXPECT_FALSE(s.matches(0, 1));
}

// ---------------------------------------------------------------------------
// FaultInjector: rules, windows, scoping
// ---------------------------------------------------------------------------

TEST(FaultInjector, DropRuleRespectsWindowBoundaries) {
  FaultPlan plan;
  plan.drop(FaultScope::any(), {10 * kSecond, 20 * kSecond}, 1.0);
  FaultInjector inj(plan, 1);
  EXPECT_FALSE(inj.decide(0, 1, 10 * kSecond - 1).drop);
  EXPECT_TRUE(inj.decide(0, 1, 10 * kSecond).drop);
  EXPECT_TRUE(inj.decide(0, 1, 20 * kSecond - 1).drop);
  EXPECT_FALSE(inj.decide(0, 1, 20 * kSecond).drop);
  EXPECT_EQ(inj.counters().dropped, 2u);
}

TEST(FaultInjector, PerLinkVersusPerPeerScoping) {
  FaultPlan plan;
  plan.drop(FaultScope::link(0, 1), TimeWindow::always(), 1.0);
  plan.drop(FaultScope::of_peer(5), TimeWindow::always(), 1.0);
  FaultInjector inj(plan, 2);

  EXPECT_TRUE(inj.decide(0, 1, 0).drop);   // the scoped link
  EXPECT_FALSE(inj.decide(1, 0, 0).drop);  // reverse direction unaffected
  EXPECT_FALSE(inj.decide(0, 2, 0).drop);  // other destinations unaffected

  EXPECT_TRUE(inj.decide(5, 3, 0).drop);  // peer scope hits both directions
  EXPECT_TRUE(inj.decide(3, 5, 0).drop);
  EXPECT_FALSE(inj.decide(3, 4, 0).drop);
}

TEST(FaultInjector, SilentDropVersusNotifiedDrop) {
  FaultPlan plan;
  plan.drop(FaultScope::link(0, 1), TimeWindow::always(), 1.0, /*notify_sender=*/false);
  plan.drop(FaultScope::link(2, 3), TimeWindow::always(), 1.0, /*notify_sender=*/true);
  FaultInjector inj(plan, 3);
  const FaultDecision silent = inj.decide(0, 1, 0);
  EXPECT_TRUE(silent.drop);
  EXPECT_FALSE(silent.notify_sender);
  const FaultDecision refused = inj.decide(2, 3, 0);
  EXPECT_TRUE(refused.drop);
  EXPECT_TRUE(refused.notify_sender);
}

TEST(FaultInjector, DuplicateDelayReorderDecisions) {
  FaultPlan plan;
  plan.duplicate(FaultScope::link(0, 1), TimeWindow::always(), 1.0,
                 /*min_lag=*/2 * kSecond, /*jitter=*/kSecond);
  plan.delay(FaultScope::link(0, 2), TimeWindow::always(), /*extra=*/3 * kSecond,
             /*jitter=*/0);
  plan.reorder(FaultScope::link(0, 3), TimeWindow::always(), 1.0,
               /*min_hold=*/4 * kSecond, /*jitter=*/kSecond);
  FaultInjector inj(plan, 4);

  const FaultDecision dup = inj.decide(0, 1, 0);
  EXPECT_FALSE(dup.drop);
  ASSERT_EQ(dup.duplicate_lags.size(), 1u);
  EXPECT_GE(dup.duplicate_lags[0], 2 * kSecond);
  EXPECT_LT(dup.duplicate_lags[0], 3 * kSecond);

  const FaultDecision del = inj.decide(0, 2, 0);
  EXPECT_TRUE(del.delayed);
  EXPECT_EQ(del.extra_delay, 3 * kSecond);

  const FaultDecision reo = inj.decide(0, 3, 0);
  EXPECT_TRUE(reo.reordered);
  EXPECT_GE(reo.extra_delay, 4 * kSecond);
  EXPECT_LT(reo.extra_delay, 5 * kSecond);

  const FaultCounters c = inj.counters();
  EXPECT_EQ(c.duplicated, 1u);
  EXPECT_EQ(c.delayed, 1u);
  EXPECT_EQ(c.reordered, 1u);
  EXPECT_EQ(c.dropped, 0u);
}

TEST(FaultInjector, PartitionCutsCrossGroupTrafficUntilHeal) {
  FaultPlan plan;
  plan.partition({0, 100 * kSecond}, {{0, 1}, {2, 3}});
  FaultInjector inj(plan, 5);

  const FaultDecision cut = inj.decide(0, 2, 50 * kSecond);
  EXPECT_TRUE(cut.drop);
  EXPECT_TRUE(cut.partition_drop);
  EXPECT_TRUE(cut.notify_sender);  // a partitioned link refuses, not eats

  EXPECT_FALSE(inj.decide(0, 1, 50 * kSecond).drop);  // same group
  EXPECT_FALSE(inj.decide(2, 3, 50 * kSecond).drop);
  EXPECT_FALSE(inj.decide(4, 0, 50 * kSecond).drop);  // unlisted peer unaffected
  EXPECT_FALSE(inj.decide(0, 2, 100 * kSecond).drop);  // healed at window end

  const FaultCounters c = inj.counters();
  EXPECT_EQ(c.dropped, 1u);
  EXPECT_EQ(c.partition_dropped, 1u);
}

TEST(FaultInjector, CountersResetButPlanRemains) {
  FaultPlan plan;
  plan.drop(FaultScope::any(), TimeWindow::always(), 1.0);
  FaultInjector inj(plan, 6);
  (void)inj.decide(0, 1, 0);
  EXPECT_EQ(inj.counters().dropped, 1u);
  inj.reset_counters();
  EXPECT_EQ(inj.counters().dropped, 0u);
  EXPECT_TRUE(inj.decide(0, 1, 0).drop);  // rules still active
}

TEST(FaultPlan, CrashEventsAreRecorded) {
  FaultPlan plan;
  plan.crash(3, 10 * kMinute, 20 * kMinute, /*lose_directory=*/true);
  plan.crash(4, 5 * kMinute);  // never restarts
  ASSERT_EQ(plan.crashes().size(), 2u);
  EXPECT_EQ(plan.crashes()[0].peer, 3u);
  EXPECT_EQ(plan.crashes()[0].restart_at, 20 * kMinute);
  EXPECT_TRUE(plan.crashes()[0].lose_directory);
  EXPECT_EQ(plan.crashes()[1].restart_at, 0);
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(FaultPlan{}.empty());
}

// ---------------------------------------------------------------------------
// Determinism: same (plan, seed) => identical injected-fault sequence
// ---------------------------------------------------------------------------

std::vector<FaultDecision> decision_trace(std::uint64_t seed) {
  FaultPlan plan;
  plan.drop(FaultScope::any(), TimeWindow::always(), 0.3)
      .duplicate(FaultScope::any(), TimeWindow::always(), 0.3, kSecond, 2 * kSecond)
      .delay(FaultScope::any(), TimeWindow::always(), kSecond, kSecond, 0.5);
  FaultInjector inj(plan, seed);
  std::vector<FaultDecision> trace;
  for (int i = 0; i < 200; ++i) {
    trace.push_back(inj.decide(static_cast<gossip::PeerId>(i % 7),
                               static_cast<gossip::PeerId>((i + 1) % 7),
                               static_cast<TimePoint>(i) * kSecond));
  }
  return trace;
}

bool traces_equal(const std::vector<FaultDecision>& a, const std::vector<FaultDecision>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].drop != b[i].drop || a[i].partition_drop != b[i].partition_drop ||
        a[i].notify_sender != b[i].notify_sender || a[i].delayed != b[i].delayed ||
        a[i].reordered != b[i].reordered || a[i].extra_delay != b[i].extra_delay ||
        a[i].duplicate_lags != b[i].duplicate_lags) {
      return false;
    }
  }
  return true;
}

TEST(FaultInjector, SameSeedYieldsIdenticalFaultSequence) {
  EXPECT_TRUE(traces_equal(decision_trace(7), decision_trace(7)));
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  EXPECT_FALSE(traces_equal(decision_trace(7), decision_trace(8)));
}

// ---------------------------------------------------------------------------
// Uniform message loss
// ---------------------------------------------------------------------------

TEST(FaultPlan, UniformDropIsASingleSilentAnyRule) {
  const FaultPlan plan = FaultPlan::uniform_drop(0.25);
  ASSERT_EQ(plan.rules().size(), 1u);
  const FaultRule& r = plan.rules()[0];
  EXPECT_EQ(r.action, FaultAction::kDrop);
  EXPECT_EQ(r.scope.from, kAnyPeer);
  EXPECT_EQ(r.scope.to, kAnyPeer);
  EXPECT_EQ(r.scope.peer, kAnyPeer);
  EXPECT_TRUE(r.window.contains(0));
  EXPECT_EQ(r.window.end, std::numeric_limits<TimePoint>::max());
  EXPECT_DOUBLE_EQ(r.probability, 0.25);
  EXPECT_FALSE(r.notify_sender);  // UDP-like silent loss, the old behavior
}

TEST(FaultInjector, UniformDropRateMatchesProbability) {
  FaultInjector inj(FaultPlan::uniform_drop(0.2), 9);
  int dropped = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (inj.decide(0, 1, 0).drop) ++dropped;
  }
  EXPECT_NEAR(static_cast<double>(dropped) / n, 0.2, 0.01);
}

TEST(SimCommunity, ShimDropsAreCountedInNetworkStats) {
  // Uniform loss routes through the injector like every other rule, so
  // loss experiments account every drop in NetworkStats.
  SimConfig cfg;
  cfg.seed = 12;
  cfg.faults = FaultPlan::uniform_drop(0.20);
  SimCommunity community(cfg);
  for (int i = 0; i < 10; ++i) community.add_peer({link_speed::kLan45M, 1000});
  community.start_converged();
  community.inject_filter_change(0, 100);
  community.run_until(30 * kMinute);
  EXPECT_GT(community.stats().dropped_messages(), 0u);
  EXPECT_EQ(community.stats().dropped_messages(), community.faults().counters().dropped);
  EXPECT_EQ(community.stats().partition_dropped_messages(), 0u);
}

TEST(SimCommunity, ZeroDropProbInstallsNoRules) {
  SimConfig cfg;
  cfg.seed = 13;
  SimCommunity community(cfg);
  EXPECT_TRUE(community.faults().plan().empty());
}

}  // namespace
}  // namespace planetp::sim
