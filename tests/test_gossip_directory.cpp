#include "gossip/directory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace planetp::gossip {
namespace {

PeerRecord record(PeerId id, std::uint64_t version, LinkClass cls = LinkClass::kFast) {
  PeerRecord r;
  r.id = id;
  r.address = "peer://" + std::to_string(id);
  r.version = version;
  r.link_class = cls;
  return r;
}

TEST(Directory, ApplyInsertsUnknownPeer) {
  Directory dir(0);
  EXPECT_TRUE(dir.apply(record(1, 1)));
  EXPECT_EQ(dir.size(), 1u);
  ASSERT_NE(dir.find(1), nullptr);
  EXPECT_EQ(dir.find(1)->version, 1u);
}

TEST(Directory, ApplyRejectsStaleAndEqualVersions) {
  Directory dir(0);
  dir.apply(record(1, 5));
  EXPECT_FALSE(dir.apply(record(1, 5)));
  EXPECT_FALSE(dir.apply(record(1, 4)));
  EXPECT_TRUE(dir.apply(record(1, 6)));
  EXPECT_EQ(dir.find(1)->version, 6u);
}

TEST(Directory, ApplyNewVersionFlipsPeerBackOnline) {
  Directory dir(0);
  dir.apply(record(1, 1));
  dir.mark_offline(1, 100);
  EXPECT_FALSE(dir.find(1)->online);
  dir.apply(record(1, 2));
  EXPECT_TRUE(dir.find(1)->online);
}

TEST(Directory, MarkOfflineRecordsFirstFailureTime) {
  Directory dir(0);
  dir.apply(record(1, 1));
  dir.mark_offline(1, 12345);
  EXPECT_EQ(dir.find(1)->offline_since, 12345);
  // Second mark must not reset the clock (T_dead counts from first failure).
  dir.mark_offline(1, 99999);
  EXPECT_EQ(dir.find(1)->offline_since, 12345);
}

TEST(Directory, ExpireDeadDropsLongOfflinePeers) {
  Directory dir(0);
  dir.put_self(record(0, 1));
  dir.apply(record(1, 1));
  dir.apply(record(2, 1));
  dir.mark_offline(1, 0);

  const auto dropped = dir.expire_dead(10 * kHour, 6 * kHour);
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0], 1u);
  EXPECT_EQ(dir.find(1), nullptr);
  EXPECT_NE(dir.find(2), nullptr);
}

TEST(Directory, ExpireDeadSparesRecentlyOffline) {
  Directory dir(0);
  dir.apply(record(1, 1));
  dir.mark_offline(1, 5 * kHour);
  EXPECT_TRUE(dir.expire_dead(10 * kHour, 6 * kHour).empty());
}

TEST(Directory, ExpireNeverDropsSelf) {
  Directory dir(7);
  dir.put_self(record(7, 1));
  dir.mark_offline(7, 0);
  EXPECT_TRUE(dir.expire_dead(100 * kHour, kHour).empty());
}

TEST(Directory, RandomOnlineExcludesSelfAndOffline) {
  Directory dir(0);
  dir.put_self(record(0, 1));
  dir.apply(record(1, 1));
  dir.apply(record(2, 1));
  dir.mark_offline(2, 0);

  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(dir.random_online(rng), 1u);
  }
}

TEST(Directory, RandomOnlineReturnsInvalidWhenAlone) {
  Directory dir(0);
  dir.put_self(record(0, 1));
  Rng rng(2);
  EXPECT_EQ(dir.random_online(rng), kInvalidPeer);
}

TEST(Directory, RandomOnlineOfClass) {
  Directory dir(0);
  dir.put_self(record(0, 1));
  dir.apply(record(1, 1, LinkClass::kFast));
  dir.apply(record(2, 1, LinkClass::kSlow));
  Rng rng(3);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(dir.random_online_of_class(rng, LinkClass::kSlow), 2u);
    EXPECT_EQ(dir.random_online_of_class(rng, LinkClass::kFast), 1u);
  }
}

TEST(Directory, RandomOnlineCoversAllCandidates) {
  Directory dir(0);
  dir.put_self(record(0, 1));
  for (PeerId id = 1; id <= 10; ++id) dir.apply(record(id, 1));
  Rng rng(4);
  std::set<PeerId> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(dir.random_online(rng));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Directory, SummarySortedByPeer) {
  Directory dir(0);
  dir.apply(record(5, 2));
  dir.apply(record(1, 7));
  dir.apply(record(3, 1));
  const auto& summary = *dir.summary();
  ASSERT_EQ(summary.size(), 3u);
  EXPECT_EQ(summary[0].id, 1u);
  EXPECT_EQ(summary[0].version, 7u);
  EXPECT_EQ(summary[2].id, 5u);
}

TEST(Directory, NewerInFindsMissingAndStale) {
  Directory dir(0);
  dir.apply(record(1, 3));
  dir.apply(record(2, 1));

  const std::vector<PeerSummary> remote = {{1, 3}, {2, 5}, {9, 1}};
  const auto missing = dir.newer_in(remote);
  ASSERT_EQ(missing.size(), 2u);
  EXPECT_EQ(missing[0].origin, 2u);
  EXPECT_EQ(missing[0].version, 5u);
  EXPECT_EQ(missing[1].origin, 9u);
}

TEST(Directory, SameAsExactMatchOnly) {
  Directory dir(0);
  dir.apply(record(1, 1));
  dir.apply(record(2, 2));
  EXPECT_TRUE(dir.same_as(std::vector<PeerSummary>{{1, 1}, {2, 2}}));
  EXPECT_FALSE(dir.same_as(std::vector<PeerSummary>{{1, 1}}));
  EXPECT_FALSE(dir.same_as(std::vector<PeerSummary>{{1, 1}, {2, 3}}));
  EXPECT_FALSE(dir.same_as(std::vector<PeerSummary>{{1, 1}, {2, 2}, {3, 1}}));
}

TEST(Directory, SummarySnapshotSharedUntilMutation) {
  Directory dir(0);
  dir.apply(record(1, 1));
  dir.apply(record(2, 1));

  const SummarySnapshot a = dir.summary();
  const SummarySnapshot b = dir.summary();
  EXPECT_EQ(a.get(), b.get()) << "no mutation: same cached snapshot";
  EXPECT_EQ(dir.summary_builds(), 1u);

  // Local-only belief updates are invisible in summaries: no invalidation.
  dir.mark_offline(1, 100);
  dir.record_query_failure(2, 100);
  EXPECT_EQ(dir.summary().get(), a.get());
  EXPECT_EQ(dir.summary_builds(), 1u);

  // A version change invalidates; the old snapshot is untouched.
  dir.apply(record(1, 9));
  const SummarySnapshot c = dir.summary();
  EXPECT_NE(c.get(), a.get());
  EXPECT_EQ(dir.summary_builds(), 2u);
  ASSERT_EQ(a->size(), 2u);
  EXPECT_EQ((*a)[0].version, 1u) << "held snapshots are immutable";
  EXPECT_EQ((*c)[0].version, 9u);
}

TEST(Directory, EpochBumpsOnMembershipChangesOnly) {
  Directory dir(0);
  const std::uint64_t e0 = dir.epoch();
  dir.apply(record(1, 1));
  EXPECT_GT(dir.epoch(), e0);

  const std::uint64_t e1 = dir.epoch();
  EXPECT_FALSE(dir.apply(record(1, 1)));  // stale: no change
  dir.mark_offline(1, 0);
  dir.mark_online(1);
  EXPECT_EQ(dir.epoch(), e1);

  dir.expire_dead(0, kHour);  // nothing expires: no bump
  EXPECT_EQ(dir.epoch(), e1);

  dir.mark_offline(1, 0);
  const auto dropped = dir.expire_dead(10 * kHour, kHour);
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_GT(dir.epoch(), e1);
}

/// Runs the randomized cache property test on a classic directory (false)
/// or on one based on a shared DirectoryBase (true).
void check_cached_summary_under_random_ops(bool based) {
  // Property test: after any interleaving of apply / mark_offline /
  // expire_dead / rejoin / put_self / find_mutable, the epoch-cached
  // snapshot, view and (based mode) delta are element-identical to ones built
  // from scratch, and the merge-scan and shared-base newer_in/same_as agree
  // with the probe reference. These are the evidence that the caches are
  // behaviourally invisible.
  // Based mode: the base holds self and ids 1..20; ids 21..24 join beyond it.
  std::vector<PeerRecord> base_records;
  for (PeerId id = 0; id <= 20; ++id) base_records.push_back(record(id, 1));
  const DirectoryBasePtr base = make_directory_base(std::move(base_records));
  const auto make_dir = [&](PeerId self) {
    Directory d(self);
    if (based) {
      d.adopt_base(base);
    } else {
      d.put_self(record(self, 1));
    }
    return d;
  };
  Directory dir = make_dir(0);
  // The remote side of the SummaryEntries compares: a second directory on
  // the same base (based mode), driven by its own stream of ops.
  Directory other = make_dir(1);
  Rng rng(0xD1CE);
  Rng other_rng(0xBA5E);
  std::uint64_t next_version = 2;

  const auto fresh_summary = [&] {
    std::vector<PeerSummary> out;
    dir.for_each([&](const PeerRecord& r) { out.push_back(PeerSummary{r.id, r.version}); });
    std::sort(out.begin(), out.end(),
              [](const PeerSummary& a, const PeerSummary& b) { return a.id < b.id; });
    return out;
  };

  // \p fresh diffed with the base: entries whose (id, version) the base
  // lacks, and base ids \p fresh no longer holds.
  const auto fresh_delta = [&](const std::vector<PeerSummary>& fresh) {
    SummaryDelta d;
    const std::vector<PeerSummary>& b = *base->summary;
    for (const PeerSummary& s : fresh) {
      if (std::find(b.begin(), b.end(), s) == b.end()) d.entries.push_back(s);
    }
    for (const PeerSummary& s : b) {
      const bool held = std::any_of(fresh.begin(), fresh.end(),
                                    [&](const PeerSummary& f) { return f.id == s.id; });
      if (!held) d.removed.push_back(s.id);
    }
    return d;
  };

  const auto random_remote = [&] {
    std::vector<PeerSummary> remote;
    for (PeerId id = 1; id <= 24; ++id) {
      if (rng.below(3) == 0) continue;  // remote doesn't know this peer
      remote.push_back(PeerSummary{id, rng.below(8) + 1});
    }
    return remote;
  };

  const auto lt = [](const RumorId& a, const RumorId& b) {
    return a.origin != b.origin ? a.origin < b.origin : a.version < b.version;
  };
  const auto sorted = [&](std::vector<RumorId> v) {
    std::sort(v.begin(), v.end(), lt);
    return v;
  };

  for (int step = 0; step < 500; ++step) {
    const PeerId id = static_cast<PeerId>(1 + rng.below(24));
    switch (rng.below(6)) {
      case 0:
      case 1:
        dir.apply(record(id, next_version++));  // insert or update
        break;
      case 2:
        dir.apply(record(id, 1 + rng.below(4)));  // often stale
        break;
      case 3:
        dir.mark_offline(id, 0);
        break;
      case 4:
        dir.expire_dead(10 * kHour, kHour);
        break;
      case 5:
        if (PeerRecord* r = dir.find_mutable(id); r != nullptr) {
          r->version = next_version++;  // local version jump (rejoin path)
        }
        break;
    }
    const PeerId other_id = static_cast<PeerId>(2 + other_rng.below(23));
    switch (other_rng.below(4)) {
      case 0:
      case 1:
        other.apply(record(other_id, 1 + other_rng.below(next_version)));
        break;
      case 2:
        other.mark_offline(other_id, 0);
        break;
      case 3:
        other.expire_dead(10 * kHour, kHour);
        break;
    }

    const std::vector<PeerSummary> expect = fresh_summary();
    EXPECT_EQ(*dir.summary(), expect) << "step " << step;
    EXPECT_EQ(dir.summary().get(), dir.summary().get()) << "cache must hold";
    EXPECT_EQ(dir.summary_entries().list(), expect) << "step " << step;
    if (based) {
      const SummaryDelta want = fresh_delta(expect);
      EXPECT_EQ(dir.delta()->entries, want.entries) << "step " << step;
      EXPECT_EQ(dir.delta()->removed, want.removed) << "step " << step;
      EXPECT_EQ(dir.summary_entries().view(), dir.summary_entries().view())
          << "cache must hold";
    }

    std::size_t online = 0;
    dir.for_each([&](const PeerRecord& r) { online += r.online ? 1 : 0; });
    EXPECT_EQ(dir.online_count(), online) << "step " << step;

    const std::vector<PeerSummary> remote = random_remote();
    EXPECT_EQ(sorted(dir.newer_in(remote)), sorted(dir.newer_in_probe(remote)))
        << "step " << step;
    EXPECT_EQ(dir.same_as(remote), dir.same_as_probe(remote)) << "step " << step;
    EXPECT_TRUE(dir.same_as(expect)) << "step " << step;

    const SummaryEntries view = other.summary_entries();
    EXPECT_EQ(view.view() != nullptr, based);
    EXPECT_EQ(sorted(dir.newer_in(view)), sorted(dir.newer_in_probe(view.list())))
        << "step " << step;
    EXPECT_EQ(dir.same_as(view), dir.same_as_probe(view.list())) << "step " << step;
    EXPECT_TRUE(dir.same_as(dir.summary_entries())) << "step " << step;
  }
}

TEST(Directory, CachedSummaryMatchesFreshBuildUnderRandomOps) {
  check_cached_summary_under_random_ops(/*based=*/false);
}

TEST(Directory, CachedSummaryMatchesFreshBuildUnderRandomOpsOnBase) {
  check_cached_summary_under_random_ops(/*based=*/true);
}

TEST(Directory, OnlineCount) {
  Directory dir(0);
  dir.put_self(record(0, 1));
  dir.apply(record(1, 1));
  dir.apply(record(2, 1));
  EXPECT_EQ(dir.online_count(), 3u);
  dir.mark_offline(1, 0);
  EXPECT_EQ(dir.online_count(), 2u);
  dir.mark_online(1);
  EXPECT_EQ(dir.online_count(), 3u);
}

TEST(Directory, QueryFailuresAccumulateIntoSuspectOffline) {
  // Repeated query-time failures raise the local SUSPECT level; at the
  // threshold the peer is demoted to offline exactly as a failed gossip
  // contact would demote it (docs/SEARCH.md).
  Directory dir(0);
  dir.apply(record(1, 1));
  EXPECT_EQ(dir.suspicion(1), 0u);

  for (std::uint32_t i = 1; i < Directory::kSuspectThreshold; ++i) {
    EXPECT_EQ(dir.record_query_failure(1, 100), i);
    EXPECT_TRUE(dir.find(1)->online) << "below threshold must not demote";
  }
  EXPECT_EQ(dir.record_query_failure(1, 100), Directory::kSuspectThreshold);
  EXPECT_FALSE(dir.find(1)->online);
  EXPECT_EQ(dir.suspicion(1), Directory::kSuspectThreshold);
}

TEST(Directory, QuerySuccessClearsSuspicion) {
  Directory dir(0);
  dir.apply(record(1, 1));
  dir.record_query_failure(1, 100);
  dir.record_query_failure(1, 100);
  EXPECT_EQ(dir.suspicion(1), 2u);
  dir.record_query_success(1);
  EXPECT_EQ(dir.suspicion(1), 0u);
  EXPECT_TRUE(dir.find(1)->online);
}

TEST(Directory, SuspicionIsLocalAndResetByNewerGossip) {
  // A newer gossiped version is fresh evidence the peer lives: it resets the
  // local SUSPECT level (which is never serialized in the first place).
  Directory dir(0);
  dir.apply(record(1, 1));
  dir.record_query_failure(1, 100);
  dir.record_query_failure(1, 100);
  EXPECT_TRUE(dir.apply(record(1, 2)));
  EXPECT_EQ(dir.suspicion(1), 0u);

  // mark_online (anti-entropy contact, rejoin) clears it too.
  dir.record_query_failure(1, 100);
  dir.mark_online(1);
  EXPECT_EQ(dir.suspicion(1), 0u);
}

TEST(Directory, QueryFailureIgnoresSelfAndUnknownPeers) {
  Directory dir(0);
  dir.put_self(record(0, 1));
  EXPECT_EQ(dir.record_query_failure(0, 100), 0u);   // never suspect yourself
  EXPECT_EQ(dir.record_query_failure(42, 100), 0u);  // unknown peer: no-op
  EXPECT_EQ(dir.suspicion(0), 0u);
  EXPECT_EQ(dir.suspicion(42), 0u);
  EXPECT_TRUE(dir.find(0)->online);
}

TEST(Directory, ForEachVisitsEveryRecord) {
  Directory dir(0);
  for (PeerId id = 1; id <= 5; ++id) dir.apply(record(id, id));
  std::set<PeerId> seen;
  dir.for_each([&](const PeerRecord& r) { seen.insert(r.id); });
  EXPECT_EQ(seen.size(), 5u);
}

}  // namespace
}  // namespace planetp::gossip
