#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "gossip/protocol.hpp"
#include "sim/community.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"

/// \file test_lazy_gossip.cpp
/// Lazy dissemination (docs/PROTOCOL.md "Lazy dissemination"), selected by
/// GossipConfig::eager_fanout >= 0: digest/want/serve exchanges at the
/// protocol level, the body-to-digest cutover after eager_fanout pushes, the
/// introduction rule, the two-class scheduler's slow-link rule, and
/// community-level properties — eager_fanout kEagerAlways, 0 and 2 must
/// converge to byte-identical directories under fault injection on the
/// digest and want legs independently, a lost want must be healed by the
/// existing bounded anti-entropy machinery, and a converged community with
/// eager_fanout 0 must move zero rumor payload bytes.

namespace planetp::gossip {
namespace {

/// Tiny synchronous message pump (same idiom as test_gossip_protocol.cpp):
/// messages are delivered immediately, in FIFO order.
class Pump {
 public:
  Protocol& add(PeerId id, GossipConfig config = {}) {
    peers_.emplace(id, std::make_unique<Protocol>(id, config, Rng(id * 7919 + 13)));
    return *peers_.at(id);
  }

  Protocol& peer(PeerId id) { return *peers_.at(id); }

  void enqueue(PeerId from, std::vector<Protocol::Outgoing> batch) {
    for (auto& out : batch) queue_.push_back({from, std::move(out)});
  }

  std::size_t drain(TimePoint now = 0) {
    std::size_t delivered = 0;
    while (!queue_.empty()) {
      auto [from, out] = std::move(queue_.front());
      queue_.pop_front();
      auto it = peers_.find(out.to);
      if (it == peers_.end()) {
        peers_.at(from)->on_send_failed(out.to, now);
        continue;
      }
      enqueue(out.to, it->second->on_message(now, from, out.msg));
      ++delivered;
    }
    return delivered;
  }

  void round(PeerId id, TimePoint now = 0) { enqueue(id, peer(id).on_round(now)); }

 private:
  std::map<PeerId, std::unique_ptr<Protocol>> peers_;
  std::deque<std::pair<PeerId, Protocol::Outgoing>> queue_;
};

GossipConfig fanout_config(int eager_fanout) {
  GossipConfig cfg;
  cfg.eager_fanout = eager_fanout;
  cfg.stop_count = 2;
  return cfg;
}

/// Two-peer pump with A holding a fresh filter-change rumor.
void pair_with_rumor(Pump& pump, const GossipConfig& cfg, LinkClass b_class = LinkClass::kFast) {
  auto& a = pump.add(1, cfg);
  auto& b = pump.add(2, cfg);
  a.quiet_start("a", LinkClass::kFast, 0, {});
  b.quiet_start("b", b_class, 0, {});
  a.bootstrap({*b.directory().find(2)});
  b.bootstrap({*a.directory().find(1)});
  a.local_filter_change(1000, 1000, {}, {}, 0);
}

TEST(LazyGossip, DigestWantServeDeliversTheBody) {
  Pump pump;
  pair_with_rumor(pump, fanout_config(0));
  auto& a = pump.peer(1);
  auto& b = pump.peer(2);

  auto batch = a.on_round(0);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_NE(std::get_if<RumorDigestMsg>(&batch[0].msg), nullptr)
      << "lazy mode must open with a digest, not a payload";
  pump.enqueue(1, std::move(batch));
  pump.drain();

  const PeerRecord* seen = b.directory().find(1);
  ASSERT_NE(seen, nullptr);
  EXPECT_EQ(seen->version, 2u);
  EXPECT_EQ(seen->key_count, 1000u);
  EXPECT_EQ(a.stats().payloads_sent, 0u);
  EXPECT_EQ(a.stats().digests_sent, 1u);
  EXPECT_EQ(a.stats().wants_served, 1u);
  EXPECT_EQ(b.stats().wants_sent, 1u);
  EXPECT_EQ(b.stats().want_ids_sent, 1u);
}

TEST(LazyGossip, KnownDigestsRetireTheRumorWithoutPayloads) {
  Pump pump;
  pair_with_rumor(pump, fanout_config(0));
  auto& a = pump.peer(1);

  // Round 1 delivers the body via want/serve; subsequent digests earn
  // already_knew votes until stop_count retires the rumor. Rumoring rounds
  // only (the pump has no timers): stop before the AE cadence kicks in.
  for (int round = 1; round <= 6 && a.hot_rumor_count() > 0; ++round) {
    pump.round(1);
    pump.drain();
  }
  EXPECT_EQ(a.hot_rumor_count(), 0u) << "already_knew votes must retire the rumor";
  EXPECT_EQ(a.stats().payloads_sent, 0u) << "no blind payload even across retirement";
  EXPECT_EQ(a.stats().wants_served, 1u) << "the body travelled exactly once";
}

TEST(LazyGossip, HybridPushesEagerlyThenSwitchesToDigests) {
  GossipConfig cfg = fanout_config(1);
  Pump pump;
  pair_with_rumor(pump, cfg);
  auto& a = pump.peer(1);

  auto first = a.on_round(0);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_NE(std::get_if<RumorMsg>(&first[0].msg), nullptr)
      << "transmission 1 of eager_fanout=1 must carry the payload";
  pump.enqueue(1, std::move(first));
  pump.drain();
  EXPECT_EQ(a.stats().payloads_sent, 1u);

  auto second = a.on_round(0);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_NE(std::get_if<RumorDigestMsg>(&second[0].msg), nullptr)
      << "past eager_fanout the same rumor travels as a digest";
  pump.enqueue(1, std::move(second));
  pump.drain();
  EXPECT_EQ(a.stats().payloads_sent, 1u);
  EXPECT_EQ(a.stats().digests_sent, 1u);
  EXPECT_EQ(a.stats().wants_served, 0u) << "the target already held the body";
}

TEST(LazyGossip, SlowTargetsAlwaysGetDigestsInHybrid) {
  GossipConfig cfg = fanout_config(8);  // would stay eager for a fast target
  cfg.bandwidth_aware = true;
  Pump pump;
  pair_with_rumor(pump, cfg, LinkClass::kSlow);
  auto& a = pump.peer(1);
  auto& b = pump.peer(2);

  auto batch = a.on_round(0);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_NE(std::get_if<RumorDigestMsg>(&batch[0].msg), nullptr)
      << "two-class scheduler: slow links get ids, never blind bodies";
  pump.enqueue(1, std::move(batch));
  pump.drain();
  EXPECT_EQ(a.stats().payloads_sent, 0u);
  EXPECT_EQ(b.directory().find(1)->version, 2u) << "the want leg still delivers";
}

TEST(LazyGossip, JoinAnnouncementsTravelEagerlyEvenInLazyMode) {
  // A join rumor is the one message that carries a peer's address; a receiver
  // that only has the digest cannot even route its want back over a real
  // network (net::LiveNode drops messages to addressless peers). So
  // introductions carry their body for their first kIntroductionPushes
  // transmissions even at eager_fanout 0 — filter changes stay digest-first.
  GossipConfig cfg = fanout_config(0);
  Pump pump;
  auto& a = pump.add(1, cfg);
  auto& b = pump.add(2, cfg);
  a.local_join("a", LinkClass::kFast, 0, {}, 0);
  b.quiet_start("b", LinkClass::kFast, 0, {});
  a.bootstrap({*b.directory().find(2)});

  auto batch = a.on_round(0);
  ASSERT_EQ(batch.size(), 1u);
  const auto* eager = std::get_if<RumorMsg>(&batch[0].msg);
  ASSERT_NE(eager, nullptr) << "a join announcement must carry its body";
  ASSERT_EQ(eager->rumors.size(), 1u);
  EXPECT_EQ(eager->rumors[0].kind, EventKind::kJoin);
  pump.enqueue(1, std::move(batch));
  pump.drain();
  ASSERT_NE(b.directory().find(1), nullptr);
  EXPECT_EQ(b.directory().find(1)->address, "a");

  // Once past kIntroductionPushes transmissions the same rumor goes lazy.
  for (int i = 0; i < Protocol::kIntroductionPushes - 1; ++i) pump.drain(), a.on_round(0);
  const auto later = a.on_round(0);
  if (!later.empty()) {
    EXPECT_EQ(std::get_if<RumorMsg>(&later[0].msg), nullptr)
        << "introductions go lazy after kIntroductionPushes pushes";
  }
}

}  // namespace
}  // namespace planetp::gossip

namespace planetp::sim {
namespace {

gossip::PeerId pid(int i) { return static_cast<gossip::PeerId>(i); }

// Lazy peers on a shared base also exchange delta summaries, so the fault
// sweep covers the token'd summary path too.
SimConfig sim_config(int eager_fanout, std::uint64_t seed) {
  SimConfig cfg;
  cfg.seed = seed;
  cfg.gossip.eager_fanout = eager_fanout;
  return cfg;
}

/// Sorted (id, version) view of one peer's directory.
std::vector<gossip::PeerSummary> summary_of(SimCommunity& community, gossip::PeerId id) {
  return community.protocol(id).directory().summary_entries().list();
}

/// Runs one community of `peers` members through three filter changes with
/// faults injected on the digest and want legs independently (plus loss on
/// the eager payload leg), then drains. Returns the per-peer summaries.
std::vector<std::vector<gossip::PeerSummary>> run_faulted(int eager_fanout,
                                                          std::uint64_t seed, int peers,
                                                          bool* consistent) {
  SimConfig cfg = sim_config(eager_fanout, seed);
  const TimeWindow faulty{2 * kMinute, 12 * kMinute};
  cfg.faults.drop(FaultScope::any(), faulty, 0.3, false, MsgClass::kRumorDigest)
      .drop(FaultScope::any(), faulty, 0.3, false, MsgClass::kRumorWant)
      .duplicate(FaultScope::any(), faulty, 0.2, 0, kSecond, MsgClass::kRumorDigest)
      .duplicate(FaultScope::any(), faulty, 0.2, 0, kSecond, MsgClass::kRumorWant)
      .reorder(FaultScope::any(), faulty, 0.2, 0, kSecond, MsgClass::kRumorDigest)
      .reorder(FaultScope::any(), faulty, 0.2, 0, kSecond, MsgClass::kRumorWant)
      .drop(FaultScope::any(), faulty, 0.2, false, MsgClass::kRumor);

  SimCommunity community(cfg);
  for (int i = 0; i < peers; ++i) community.add_peer({link_speed::kLan45M, 1000});
  community.start_converged();

  community.run_until(3 * kMinute);
  community.inject_filter_change(pid(0), 100);
  community.run_until(4 * kMinute);
  community.inject_filter_change(pid(peers / 2), 150);
  community.run_until(5 * kMinute);
  community.inject_filter_change(pid(peers - 1), 200);
  community.run_until(45 * kMinute);

  *consistent = community.directories_consistent();
  std::vector<std::vector<gossip::PeerSummary>> out;
  out.reserve(static_cast<std::size_t>(peers));
  for (int i = 0; i < peers; ++i) out.push_back(summary_of(community, pid(i)));
  return out;
}

TEST(LazyGossip, AllModesConvergeToIdenticalDirectoriesUnderFaults) {
  constexpr int kPeers = 48;
  for (std::uint64_t seed : {7ull, 21ull, 1234ull}) {
    bool eager_ok = false, lazy_ok = false, hybrid_ok = false;
    const auto eager =
        run_faulted(gossip::GossipConfig::kEagerAlways, seed, kPeers, &eager_ok);
    const auto lazy = run_faulted(0, seed, kPeers, &lazy_ok);
    const auto hybrid = run_faulted(2, seed, kPeers, &hybrid_ok);
    EXPECT_TRUE(eager_ok) << "seed " << seed;
    EXPECT_TRUE(lazy_ok) << "seed " << seed;
    EXPECT_TRUE(hybrid_ok) << "seed " << seed;
    for (int i = 0; i < kPeers; ++i) {
      EXPECT_EQ(eager[static_cast<std::size_t>(i)], lazy[static_cast<std::size_t>(i)])
          << "lazy directory of peer " << i << " diverged (seed " << seed << ")";
      EXPECT_EQ(eager[static_cast<std::size_t>(i)], hybrid[static_cast<std::size_t>(i)])
          << "hybrid directory of peer " << i << " diverged (seed " << seed << ")";
    }
  }
}

TEST(LazyGossip, LostWantsAreHealedByAntiEntropy) {
  // Every RumorWant reply is lost, forever: the digest leg can announce ids
  // but no body is ever requested successfully. The existing anti-entropy
  // machinery (summary exchange -> PullRequest -> PullResponse) must still
  // deliver the record to everyone.
  SimConfig cfg = sim_config(0, 99);
  cfg.faults.drop(FaultScope::any(), TimeWindow::always(), 1.0, false, MsgClass::kRumorWant);

  constexpr int kPeers = 12;
  SimCommunity community(cfg);
  for (int i = 0; i < kPeers; ++i) community.add_peer({link_speed::kLan45M, 1000});
  community.start_converged();
  community.run_until(kMinute);
  community.inject_filter_change(pid(0), 100);
  community.run_until(40 * kMinute);

  EXPECT_GT(community.faults().counters().dropped, 0u) << "the want leg must really be cut";
  EXPECT_EQ(community.stats().gossip_stats().wants_served, 0u);
  for (int i = 0; i < kPeers; ++i) {
    const gossip::PeerRecord* r = community.protocol(pid(i)).directory().find(0);
    ASSERT_NE(r, nullptr) << i;
    EXPECT_EQ(r->version, 2u) << "peer " << i << " never learned the event";
  }
}

TEST(LazyGossip, ConvergedLazyCommunityMovesNoPayloadBytes) {
  SimConfig cfg = sim_config(0, 5);
  constexpr int kPeers = 50;
  SimCommunity community(cfg);
  for (int i = 0; i < kPeers; ++i) community.add_peer({link_speed::kLan45M, 1000});
  community.start_converged();

  // Absorb one event and drain until every hot rumor retires.
  community.run_until(kMinute);
  community.inject_filter_change(pid(3), 100);
  community.run_until(31 * kMinute);
  ASSERT_TRUE(community.directories_consistent());

  // Steady-state window: anti-entropy chatter only. Pinned to exact zeros —
  // any blind payload, re-delivery, served want or digest here is a bug.
  community.stats().reset();
  community.run_until(51 * kMinute);
  const gossip::GossipStats& window = community.stats().gossip_stats();
  EXPECT_EQ(window.payloads_sent, 0u);
  EXPECT_EQ(window.payload_bytes_sent, 0u);
  EXPECT_EQ(window.duplicate_payloads, 0u);
  EXPECT_EQ(window.wants_served, 0u);
  EXPECT_EQ(window.digests_sent, 0u) << "nothing is hot: no digests either";
  using Idx = std::underlying_type_t<MsgClass>;
  const auto& bytes = community.stats().bytes_by_type();
  EXPECT_EQ(bytes[static_cast<Idx>(MsgClass::kRumor)], 0u);
  EXPECT_EQ(bytes[static_cast<Idx>(MsgClass::kPullResponse)], 0u);
  EXPECT_EQ(bytes[static_cast<Idx>(MsgClass::kRumorDigest)], 0u);
  EXPECT_EQ(bytes[static_cast<Idx>(MsgClass::kRumorWant)], 0u);
  EXPECT_GT(bytes[static_cast<Idx>(MsgClass::kSummary)], 0u)
      << "anti-entropy keeps running underneath";
}

}  // namespace
}  // namespace planetp::sim
