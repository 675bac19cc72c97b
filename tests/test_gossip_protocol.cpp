#include "gossip/protocol.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>

#include "bloom/wire.hpp"

namespace planetp::gossip {
namespace {

/// Tiny synchronous message pump for driving a handful of Protocol instances
/// without a simulator: messages are delivered immediately, in FIFO order.
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

  /// Deliver every queued message (and the replies they generate).
  std::size_t drain(TimePoint now = 0) {
    std::size_t delivered = 0;
    while (!queue_.empty()) {
      auto [from, out] = std::move(queue_.front());
      queue_.pop_front();
      auto it = peers_.find(out.to);
      if (it == peers_.end() || offline_.contains(out.to)) {
        peers_.at(from)->on_send_failed(out.to, now);
        continue;
      }
      enqueue(out.to, it->second->on_message(now, from, out.msg));
      ++delivered;
    }
    return delivered;
  }

  void round(PeerId id, TimePoint now = 0) { enqueue(id, peer(id).on_round(now)); }

  void set_offline(PeerId id, bool offline) {
    if (offline) {
      offline_.insert(id);
    } else {
      offline_.erase(id);
    }
  }

 private:
  std::map<PeerId, std::unique_ptr<Protocol>> peers_;
  std::deque<std::pair<PeerId, Protocol::Outgoing>> queue_;
  std::set<PeerId> offline_;
};

GossipConfig test_config() {
  GossipConfig cfg;
  cfg.stop_count = 2;
  return cfg;
}

TEST(Protocol, LocalJoinCreatesOwnRecordAndHotRumor) {
  Protocol p(1, test_config(), Rng(1));
  p.local_join("addr:1", LinkClass::kFast, 500, {}, 0);
  EXPECT_EQ(p.own_version(), 1u);
  EXPECT_EQ(p.hot_rumor_count(), 1u);
  const PeerRecord* self = p.directory().find(1);
  ASSERT_NE(self, nullptr);
  EXPECT_EQ(self->key_count, 500u);
}

TEST(Protocol, QuietStartHasNoRumor) {
  Protocol p(1, test_config(), Rng(1));
  p.quiet_start("addr:1", LinkClass::kFast, 500, {});
  EXPECT_EQ(p.hot_rumor_count(), 0u);
  EXPECT_EQ(p.own_version(), 1u);
}

TEST(Protocol, FilterChangeBumpsVersionAndRumors) {
  Protocol p(1, test_config(), Rng(1));
  p.quiet_start("addr:1", LinkClass::kFast, 500, {});
  p.local_filter_change(600, 100, {}, {}, 0);
  EXPECT_EQ(p.own_version(), 2u);
  EXPECT_EQ(p.hot_rumor_count(), 1u);
  EXPECT_EQ(p.directory().find(1)->key_count, 600u);
}

TEST(Protocol, NewerLocalEventSupersedesOlderHotRumor) {
  Protocol p(1, test_config(), Rng(1));
  p.local_join("addr:1", LinkClass::kFast, 100, {}, 0);
  p.local_filter_change(200, 100, {}, {}, 0);
  // Only the newest version of our record should still be spreading.
  EXPECT_EQ(p.hot_rumor_count(), 1u);
}

TEST(Protocol, RumorSpreadsToTarget) {
  Pump pump;
  auto& a = pump.add(1);
  auto& b = pump.add(2);
  a.quiet_start("a", LinkClass::kFast, 0, {});
  b.quiet_start("b", LinkClass::kFast, 0, {});
  a.bootstrap({*b.directory().find(2)});
  b.bootstrap({*a.directory().find(1)});

  a.local_filter_change(1000, 1000, {}, {}, 0);
  pump.round(1);
  pump.drain();

  const PeerRecord* seen = b.directory().find(1);
  ASSERT_NE(seen, nullptr);
  EXPECT_EQ(seen->version, 2u);
  EXPECT_EQ(seen->key_count, 1000u);
  // B now spreads the rumor too.
  EXPECT_EQ(b.hot_rumor_count(), 1u);
}

TEST(Protocol, StopCounterRetiresRumor) {
  Pump pump;
  auto& a = pump.add(1);
  auto& b = pump.add(2);
  a.quiet_start("a", LinkClass::kFast, 0, {});
  b.quiet_start("b", LinkClass::kFast, 0, {});
  a.bootstrap({*b.directory().find(2)});
  b.bootstrap({*a.directory().find(1)});

  a.local_filter_change(10, 10, {}, {}, 0);
  // First round: b learns (counter resets). Next rounds: b already knows, so
  // after stop_count consecutive known-acks the rumor retires.
  for (int i = 0; i < 1 + test_config().stop_count; ++i) {
    pump.round(1);
    pump.drain();
  }
  EXPECT_EQ(a.hot_rumor_count(), 0u);
}

TEST(Protocol, AntiEntropyPullsMissingRecords) {
  Pump pump;
  auto& a = pump.add(1);
  auto& b = pump.add(2);
  a.quiet_start("a", LinkClass::kFast, 0, {});
  b.quiet_start("b", LinkClass::kFast, 0, {});
  a.bootstrap({*b.directory().find(2)});
  b.bootstrap({*a.directory().find(1)});

  // b knows about a third peer that a has never heard of.
  PeerRecord ghost;
  ghost.id = 3;
  ghost.address = "c";
  ghost.version = 4;
  ghost.key_count = 77;
  b.directory().apply(ghost);

  // a has no rumors -> its round is anti-entropy (SummaryRequest to b).
  pump.round(1);
  pump.drain();

  const PeerRecord* seen = a.directory().find(3);
  ASSERT_NE(seen, nullptr);
  EXPECT_EQ(seen->version, 4u);
  EXPECT_EQ(seen->key_count, 77u);
}

TEST(Protocol, PullResponsesShareOneRumorEncoding) {
  // Serving the same record to repeated pulls must hand out one interned
  // rumor (one wire encoding), and invalidate it when the record changes.
  Pump pump;
  auto& a = pump.add(1);
  auto& b = pump.add(2);
  a.quiet_start("a", LinkClass::kFast, 100, {});
  b.quiet_start("b", LinkClass::kFast, 0, {});
  a.bootstrap({*b.directory().find(2)});
  b.bootstrap({*a.directory().find(1)});

  const std::uint64_t v = a.directory().find(1)->version;
  auto r1 = a.on_message(0, 2, PullRequestMsg{{{1, v}}});
  auto r2 = a.on_message(0, 2, PullRequestMsg{{{1, v}}});
  ASSERT_EQ(r1.size(), 1u);
  ASSERT_EQ(r2.size(), 1u);
  const auto* p1 = std::get_if<PullResponseMsg>(&r1[0].msg);
  const auto* p2 = std::get_if<PullResponseMsg>(&r2[0].msg);
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  ASSERT_EQ(p1->rumors.size(), 1u);
  EXPECT_EQ(p1->rumors.ptr(0).get(), p2->rumors.ptr(0).get());

  a.local_filter_change(150, 50, {}, {}, 0);  // version bump stales the cache
  const std::uint64_t v2 = a.directory().find(1)->version;
  ASSERT_GT(v2, v);
  auto r3 = a.on_message(0, 2, PullRequestMsg{{{1, v2}}});
  const auto* p3 = std::get_if<PullResponseMsg>(&r3[0].msg);
  ASSERT_NE(p3, nullptr);
  ASSERT_EQ(p3->rumors.size(), 1u);
  EXPECT_NE(p3->rumors.ptr(0).get(), p1->rumors.ptr(0).get());
  EXPECT_EQ(p3->rumors[0].version, v2);
  EXPECT_EQ(p3->rumors[0].key_count, 150u);
}

TEST(Protocol, PartialAntiEntropyRecoversRetiredRumor) {
  // c missed the rumor while a spread and retired it; when a rumors
  // something else to c, the piggybacked recent ids let c pull the miss.
  GossipConfig cfg = test_config();
  cfg.stop_count = 5;  // keep rumors alive long enough to reach c at random
  Pump pump;
  auto& a = pump.add(1, cfg);
  auto& b = pump.add(2, cfg);
  auto& c = pump.add(3, cfg);
  a.quiet_start("a", LinkClass::kFast, 0, {});
  b.quiet_start("b", LinkClass::kFast, 0, {});
  c.quiet_start("c", LinkClass::kFast, 0, {});
  const std::vector<PeerRecord> all = {*a.directory().find(1), *b.directory().find(2),
                                       *c.directory().find(3)};
  a.bootstrap(all);
  b.bootstrap(all);
  c.bootstrap(all);

  // a creates a rumor about itself; a and b spread and retire it while c is
  // offline, so the event ends up only in their recent lists.
  pump.set_offline(3, true);
  a.local_filter_change(50, 50, {}, {}, 0);
  for (int i = 0; i < 30 && (a.hot_rumor_count() > 0 || b.hot_rumor_count() > 0); ++i) {
    pump.round(1);
    pump.round(2);
    pump.drain();
  }
  ASSERT_EQ(a.hot_rumor_count(), 0u);
  ASSERT_EQ(b.hot_rumor_count(), 0u);
  ASSERT_EQ(c.directory().find(1)->version, 1u);  // c missed it

  // c comes back; b starts an unrelated rumor (about itself). When b rumors
  // to c, the piggybacked recent ids include a's retired event, and c pulls
  // it — that is the partial anti-entropy path.
  pump.set_offline(3, false);
  a.directory().mark_online(3);
  b.directory().mark_online(3);
  b.local_filter_change(60, 10, {}, {}, 0);
  bool c_caught_up = false;
  for (int i = 0; i < 100 && !c_caught_up; ++i) {
    pump.round(2);
    pump.drain();
    c_caught_up = c.directory().find(1)->version >= 2;
  }
  EXPECT_TRUE(c_caught_up);
  EXPECT_EQ(c.directory().find(1)->key_count, 50u);
}

TEST(Protocol, JoinViaIntroducerDownloadsDirectory) {
  Pump pump;
  auto& a = pump.add(1);
  auto& b = pump.add(2);
  a.quiet_start("a", LinkClass::kFast, 0, {});
  b.quiet_start("b", LinkClass::kFast, 0, {});
  for (PeerId id = 10; id < 15; ++id) {
    PeerRecord r;
    r.id = id;
    r.version = 2;
    r.address = "peer" + std::to_string(id);
    a.directory().apply(r);
  }

  // b joins via a.
  b.local_join("b", LinkClass::kFast, 99, {}, 0);
  pump.enqueue(2, {b.join_via(1)});
  pump.drain();

  // b pulled everything a knew.
  EXPECT_GE(b.directory().size(), 7u);  // a + b + 5 ghosts
  EXPECT_NE(b.directory().find(12), nullptr);
}

TEST(Protocol, SendFailureMarksPeerOffline) {
  Pump pump;
  auto& a = pump.add(1);
  auto& b = pump.add(2);
  a.quiet_start("a", LinkClass::kFast, 0, {});
  b.quiet_start("b", LinkClass::kFast, 0, {});
  a.bootstrap({*b.directory().find(2)});

  pump.set_offline(2, true);
  a.local_filter_change(10, 10, {}, {}, 0);
  pump.round(1);
  pump.drain();
  EXPECT_FALSE(a.directory().find(2)->online);

  // Hearing from the peer again flips it back online.
  auto replies = a.on_message(0, 2, SummaryRequestMsg{});
  EXPECT_TRUE(a.directory().find(2)->online);
  EXPECT_FALSE(replies.empty());
}

TEST(Protocol, AdaptiveIntervalGrowsWhenStable) {
  GossipConfig cfg = test_config();
  Pump pump;
  auto& a = pump.add(1, cfg);
  auto& b = pump.add(2, cfg);
  a.quiet_start("a", LinkClass::kFast, 0, {});
  b.quiet_start("b", LinkClass::kFast, 0, {});
  a.bootstrap({*b.directory().find(2)});
  b.bootstrap({*a.directory().find(1)});

  const Duration base = a.current_interval();
  // Stable community: every round is a gossip-less anti-entropy contact.
  for (int i = 0; i < 2 * cfg.gossipless_threshold; ++i) {
    pump.round(1);
    pump.drain();
  }
  EXPECT_GT(a.current_interval(), base);
}

TEST(Protocol, AdaptiveIntervalCapsAtMax) {
  GossipConfig cfg = test_config();
  cfg.max_interval = cfg.base_interval + 2 * cfg.slow_down;
  Pump pump;
  auto& a = pump.add(1, cfg);
  auto& b = pump.add(2, cfg);
  a.quiet_start("a", LinkClass::kFast, 0, {});
  b.quiet_start("b", LinkClass::kFast, 0, {});
  a.bootstrap({*b.directory().find(2)});
  b.bootstrap({*a.directory().find(1)});

  for (int i = 0; i < 50; ++i) {
    pump.round(1);
    pump.drain();
  }
  EXPECT_EQ(a.current_interval(), cfg.max_interval);
}

TEST(Protocol, IntervalResetsOnIncomingRumor) {
  GossipConfig cfg = test_config();
  Pump pump;
  auto& a = pump.add(1, cfg);
  auto& b = pump.add(2, cfg);
  a.quiet_start("a", LinkClass::kFast, 0, {});
  b.quiet_start("b", LinkClass::kFast, 0, {});
  a.bootstrap({*b.directory().find(2)});
  b.bootstrap({*a.directory().find(1)});

  for (int i = 0; i < 2 * cfg.gossipless_threshold; ++i) {
    pump.round(1);
    pump.drain();
  }
  ASSERT_GT(a.current_interval(), cfg.base_interval);

  // b rumors to a -> a resets to the base interval.
  b.local_filter_change(5, 5, {}, {}, 0);
  pump.round(2);
  pump.drain();
  EXPECT_EQ(a.current_interval(), cfg.base_interval);
}

TEST(Protocol, AntiEntropyOnlyModePushesSummaries) {
  GossipConfig cfg = test_config();
  cfg.enable_rumoring = false;
  Pump pump;
  auto& a = pump.add(1, cfg);
  auto& b = pump.add(2, cfg);
  a.quiet_start("a", LinkClass::kFast, 0, {});
  b.quiet_start("b", LinkClass::kFast, 0, {});
  a.bootstrap({*b.directory().find(2)});
  b.bootstrap({*a.directory().find(1)});

  a.local_filter_change(10, 10, {}, {}, 0);
  // Rumoring is off: the round must emit a pushed summary, and b must pull
  // the new record through it.
  auto batch = a.on_round(0);
  ASSERT_EQ(batch.size(), 1u);
  const auto* summary = std::get_if<SummaryMsg>(&batch[0].msg);
  ASSERT_NE(summary, nullptr);
  EXPECT_TRUE(summary->push);

  pump.enqueue(1, std::move(batch));
  pump.drain();
  EXPECT_EQ(b.directory().find(1)->version, 2u);
}

TEST(Protocol, PartialAeDisabledSendsNoPiggyback) {
  GossipConfig cfg = test_config();
  cfg.enable_partial_ae = false;
  Protocol a(1, cfg, Rng(1));
  a.quiet_start("a", LinkClass::kFast, 0, {});
  PeerRecord b;
  b.id = 2;
  b.version = 1;
  b.address = "b";
  a.directory().apply(b);

  a.local_filter_change(10, 10, {}, {}, 0);
  auto batch = a.on_round(0);
  ASSERT_EQ(batch.size(), 1u);
  const auto* rumor = std::get_if<RumorMsg>(&batch[0].msg);
  ASSERT_NE(rumor, nullptr);
  EXPECT_TRUE(rumor->recent_ids.empty());
}

TEST(Protocol, DeadPeerExpiresAfterTDead) {
  GossipConfig cfg = test_config();
  cfg.t_dead = kHour;
  Protocol a(1, cfg, Rng(1));
  a.quiet_start("a", LinkClass::kFast, 0, {});
  PeerRecord b;
  b.id = 2;
  b.version = 1;
  b.address = "b";
  a.directory().apply(b);
  a.on_send_failed(2, 0);

  PeerId expired = kInvalidPeer;
  a.hooks().on_expire = [&](PeerId id) { expired = id; };
  a.on_round(2 * kHour);
  EXPECT_EQ(expired, 2u);
  EXPECT_EQ(a.directory().find(2), nullptr);
}

TEST(Protocol, StaleRumorsAboutExpiredPeersAreOldNews) {
  // A record at or below a peer's T_dead tombstone is refused by the
  // directory. The protocol must then treat it as old news however it
  // arrives: not hot, not applied, acknowledged as known (so the sender's
  // stop counter advances), and never pulled through a piggyback or digest.
  GossipConfig cfg = test_config();
  cfg.t_dead = kHour;
  Protocol a(1, cfg, Rng(1));
  a.quiet_start("a", LinkClass::kFast, 0, {});
  PeerRecord sender;
  sender.id = 2;
  sender.version = 1;
  sender.address = "b";
  a.directory().apply(sender);
  PeerRecord x;
  x.id = 3;
  x.version = 3;
  x.address = "x";
  a.directory().apply(x);
  a.directory().mark_offline(3, 0);
  ASSERT_EQ(a.directory().expire_dead(2 * kHour, cfg.t_dead), std::vector<PeerId>{3});
  ASSERT_EQ(a.directory().tombstone_version(3), 3u);

  int applied = 0;
  a.hooks().on_apply = [&](const RumorPayload&, TimePoint) { ++applied; };
  RumorPayload stale;
  stale.origin = 3;
  stale.version = 3;
  stale.address = "x";
  stale.kind = EventKind::kRejoin;
  const RumorId id{3, 3};

  RumorMsg rumor;
  rumor.rumors.push_back(stale);
  rumor.recent_ids = {id};
  const auto out = a.on_message(0, 2, rumor);
  EXPECT_EQ(a.hot_rumor_count(), 0u) << "a stale rumor must not spread";
  EXPECT_EQ(applied, 0) << "on_apply fires only for applied records";
  ASSERT_EQ(out.size(), 1u) << "the ack, and no PullRequest";
  const auto* ack = std::get_if<RumorAckMsg>(&out[0].msg);
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(ack->already_knew, std::vector<RumorId>{id});
  EXPECT_TRUE(ack->pull_ids.empty()) << "the piggyback must not pull it back";

  // The digest reply and the other three piggybacks refuse it too.
  RumorAckMsg their_ack;
  their_ack.recent_ids = {id};
  RumorDigestMsg digest;
  digest.ids = {id};
  digest.recent_ids = {id};
  RumorWantMsg want;
  want.recent_ids = {id};
  for (const Message& msg : {Message{their_ack}, Message{digest}, Message{want}}) {
    for (const auto& o : a.on_message(0, 2, msg)) {
      EXPECT_EQ(std::get_if<PullRequestMsg>(&o.msg), nullptr);
      if (const auto* w = std::get_if<RumorWantMsg>(&o.msg)) {
        EXPECT_TRUE(w->want.empty());
        EXPECT_EQ(w->already_knew, std::vector<RumorId>{id});
        EXPECT_TRUE(w->pull_ids.empty());
      }
    }
  }
  EXPECT_EQ(a.directory().find(3), nullptr) << "expired stays expired";
  EXPECT_EQ(a.hot_rumor_count(), 0u);

  // A strictly newer version is a real rejoin: applied and spread.
  RumorMsg rejoin;
  stale.version = 4;
  rejoin.rumors.push_back(stale);
  a.on_message(0, 2, rejoin);
  ASSERT_NE(a.directory().find(3), nullptr);
  EXPECT_EQ(a.directory().find(3)->version, 4u);
  EXPECT_EQ(a.hot_rumor_count(), 1u);
  EXPECT_EQ(applied, 1);
}

TEST(Protocol, LiveFilterDiffIsAppliedOnRumor) {
  // Full live-mode path: the origin sends a real encoded diff; a receiver
  // holding the base version applies it and ends with the exact filter.
  bloom::BloomParams params{4096, 2};
  bloom::BloomFilter v1(params);
  v1.insert("alpha");
  ByteWriter v1w;
  bloom::encode_filter(v1w, v1);
  const auto v1_wire = v1w.take();

  bloom::BloomFilter v2 = v1;
  v2.insert("beta");
  ByteWriter diffw;
  bloom::encode_diff(diffw, v2.diff_from(v1));

  Protocol a(1, test_config(), Rng(1));
  a.quiet_start("a", LinkClass::kFast, 1, {});
  // a holds b's v1 record with the v1 filter.
  PeerRecord b;
  b.id = 2;
  b.version = 1;
  b.address = "b";
  b.filter_wire = v1_wire;
  a.directory().apply(b);

  // b's v2 rumor arrives with a diff against v1.
  RumorPayload p;
  p.origin = 2;
  p.version = 2;
  p.address = "b";
  p.kind = EventKind::kFilterChange;
  p.key_count = 2;
  FilterUpdate f;
  f.base_version = 1;
  f.bits = diffw.take();
  f.key_count = 2;
  f.new_keys = 1;
  p.filter = std::move(f);

  RumorMsg msg;
  msg.rumors.push_back(std::move(p));
  a.on_message(0, 2, msg);

  const PeerRecord* seen = a.directory().find(2);
  ASSERT_NE(seen, nullptr);
  EXPECT_EQ(seen->version, 2u);
  ByteReader reader(seen->filter_wire);
  const bloom::BloomFilter reconstructed = bloom::decode_filter(reader);
  EXPECT_EQ(reconstructed, v2);
}

TEST(Protocol, DiffWithoutBaseTriggersFullPull) {
  Protocol a(1, test_config(), Rng(1));
  a.quiet_start("a", LinkClass::kFast, 1, {});

  // Rumor about an unknown peer whose filter is only a diff: a must accept
  // the record and ask the sender for the full filter.
  RumorPayload p;
  p.origin = 2;
  p.version = 5;
  p.address = "b";
  p.key_count = 10;
  FilterUpdate f;
  f.base_version = 4;       // we do not hold version 4
  f.bits = {1, 2, 3, 4};    // opaque diff bytes
  f.key_count = 10;
  f.new_keys = 1;
  p.filter = std::move(f);
  RumorMsg msg;
  msg.rumors.push_back(std::move(p));

  const auto replies = a.on_message(0, 3, msg);
  bool pulled = false;
  for (const auto& out : replies) {
    if (const auto* pull = std::get_if<PullRequestMsg>(&out.msg)) {
      ASSERT_EQ(pull->ids.size(), 1u);
      EXPECT_EQ(pull->ids[0], (RumorId{2, 5}));
      EXPECT_EQ(out.to, 3u);
      pulled = true;
    }
  }
  EXPECT_TRUE(pulled);
  EXPECT_EQ(a.directory().find(2)->version, 5u);
}

TEST(Protocol, BandwidthAwareFastPeerPrefersFast) {
  GossipConfig cfg = test_config();
  cfg.bandwidth_aware = true;
  cfg.fast_to_slow_prob = 0.0;  // deterministic: never talk to slow
  Protocol a(1, cfg, Rng(1));
  a.quiet_start("a", LinkClass::kFast, 0, {});
  PeerRecord fast;
  fast.id = 2;
  fast.version = 1;
  fast.link_class = LinkClass::kFast;
  PeerRecord slow;
  slow.id = 3;
  slow.version = 1;
  slow.link_class = LinkClass::kSlow;
  a.directory().apply(fast);
  a.directory().apply(slow);

  a.local_filter_change(10, 10, {}, {}, 0);
  for (int i = 0; i < 20; ++i) {
    auto batch = a.on_round(0);
    for (const auto& out : batch) {
      if (std::holds_alternative<RumorMsg>(out.msg)) {
        EXPECT_EQ(out.to, 2u);
      }
    }
  }
}


TEST(Protocol, RumorPayloadCapRotates) {
  GossipConfig cfg = test_config();
  // 100-byte budget fits two 48-byte filterless records per message.
  cfg.max_rumor_bytes_per_message = 100;
  Protocol a(1, cfg, Rng(1));
  a.quiet_start("a", LinkClass::kFast, 0, {});
  PeerRecord target;
  target.id = 2;
  target.version = 1;
  target.address = "b";
  a.directory().apply(target);

  // Five hot rumors about five remote origins (pulled knowledge spreads).
  RumorMsg incoming;
  for (PeerId origin = 10; origin < 15; ++origin) {
    RumorPayload p;
    p.origin = origin;
    p.version = 3;
    p.address = "peer" + std::to_string(origin);
    incoming.rumors.push_back(std::move(p));
  }
  a.on_message(0, 2, incoming);
  ASSERT_EQ(a.hot_rumor_count(), 5u);

  // Each round sends at most 2 payloads; over 3 rounds all 5 distinct
  // rumors must appear (rotation).
  std::set<PeerId> seen;
  for (int round = 0; round < 3; ++round) {
    auto batch = a.on_round(0);
    for (const auto& out : batch) {
      if (const auto* msg = std::get_if<RumorMsg>(&out.msg)) {
        EXPECT_LE(msg->rumors.size(), 2u);
        for (const auto& p : msg->rumors) seen.insert(p.origin);
      }
    }
  }
  EXPECT_EQ(seen.size(), 5u);
}

}  // namespace
}  // namespace planetp::gossip
