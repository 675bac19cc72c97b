#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "bloom/wire.hpp"
#include "gossip/directory.hpp"
#include "gossip/types.hpp"
#include "search/candidate_cache.hpp"
#include "search/distributed.hpp"

/// \file test_compressed_at_rest.cpp
/// The compressed-at-rest directory contract (docs/SCALE.md §1): a
/// community member whose directory holds peers' Bloom filters as Golomb
/// bytes — merging gossiped XOR diffs into them in the gap domain, while its
/// candidate cache holds decoded copies only, decoded from those bytes on
/// demand under an LRU byte bound — must answer every query
/// byte-identically to a member that keeps every filter fully decoded. Plus
/// the O(changed) summary-compare pin for shared-base directories.

using namespace planetp;
using namespace planetp::search;

namespace {

bloom::BloomParams small_params() { return bloom::BloomParams{65536, 2}; }

std::string term_name(std::size_t i) { return "term" + std::to_string(i); }

bloom::BloomFilter make_filter(const std::vector<std::size_t>& term_ids) {
  bloom::BloomFilter f(small_params());
  for (std::size_t t : term_ids) f.insert(term_name(t));
  return f;
}

std::vector<std::uint8_t> wire_of(const bloom::BloomFilter& f) {
  ByteWriter w;
  bloom::encode_filter(w, f);
  return w.take();
}

std::vector<std::uint8_t> diff_wire_of(const BitVector& diff) {
  ByteWriter w;
  bloom::encode_diff(w, diff);
  return w.take();
}

void expect_identical(const IpfTable& a, const IpfTable& b) {
  EXPECT_EQ(a.num_peers(), b.num_peers());
  ASSERT_EQ(a.terms(), b.terms());
  for (const std::string& t : a.terms()) {
    EXPECT_EQ(a.weight(t), b.weight(t)) << "term " << t;
    std::vector<std::uint32_t> pa = a.peers_with(t);
    std::vector<std::uint32_t> pb = b.peers_with(t);
    std::sort(pa.begin(), pa.end());
    std::sort(pb.begin(), pb.end());
    EXPECT_EQ(pa, pb) << "term " << t;
  }
  const auto ra = rank_peers(a);
  const auto rb = rank_peers(b);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].peer, rb[i].peer) << "rank position " << i;
    EXPECT_EQ(ra[i].rank, rb[i].rank) << "rank position " << i;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Directory bytes + decoded cache vs fully-decoded oracle
// ---------------------------------------------------------------------------

TEST(CompressedAtRest, RandomizedLifecycleMatchesDecodedOracle) {
  // Oracle: every filter decoded, never evicted. Subject: a cache fed the
  // way core::Peer feeds it — each peer's filter bytes held as a directory
  // holds them (merged with merge_diff_wire), every gossiped update handed
  // to apply_update, and lookups decoding through resident_filter — with a
  // decoded working set of only ~6 filters (65536 bits = 8 KB decoded
  // each), so lookups constantly decode in and evict.
  CandidateCacheConfig bounded;
  bounded.max_decoded_bytes = 48 * 1024;
  CandidateCache oracle;
  CandidateCache subject(bounded);

  std::mt19937_64 rng(20030611);
  constexpr std::size_t kPeers = 24;
  constexpr std::size_t kTermUniverse = 120;

  std::vector<bloom::BloomFilter> truth(kPeers, bloom::BloomFilter(small_params()));
  std::vector<std::uint64_t> version(kPeers, 0);
  std::vector<bool> known(kPeers, false);
  std::vector<std::vector<std::uint8_t>> bytes(kPeers);  // the directory's copy
  std::size_t resident_diffs = 0;
  std::size_t nonresident_diffs = 0;

  auto install = [&](std::size_t p) {  // a join, re-add or full replacement
    std::vector<std::size_t> terms;
    for (std::size_t t = 0; t < kTermUniverse; ++t) {
      if (rng() % 3 == 0) terms.push_back(t);
    }
    truth[p] = make_filter(terms);
    version[p] += 1;
    oracle.update_peer(p, std::make_shared<bloom::BloomFilter>(truth[p]), version[p]);
    bytes[p] = wire_of(truth[p]);
    subject.apply_update(static_cast<std::uint32_t>(p), version[p], true, 0, bytes[p]);
    known[p] = true;
  };
  for (std::size_t p = 0; p < kPeers; ++p) install(p);

  auto query = [&] {
    std::vector<std::string> terms;
    for (int i = 0; i < 6; ++i) {
      terms.push_back(term_name(rng() % (kTermUniverse + 10)));  // some unknown
    }
    std::vector<PeerFilter> oracle_view, subject_view, truth_view;
    std::vector<std::shared_ptr<const bloom::BloomFilter>> pins;
    for (std::size_t p = 0; p < kPeers; ++p) {
      if (!known[p]) continue;
      const auto id = static_cast<std::uint32_t>(p);
      auto of = oracle.filter_of(id);
      auto sf = subject.resident_filter(id, version[p], bytes[p]);
      ASSERT_NE(of, nullptr);
      ASSERT_NE(sf, nullptr);
      oracle_view.push_back(PeerFilter{id, of.get(), 0});
      subject_view.push_back(PeerFilter{id, sf.get(), 0});
      truth_view.push_back(PeerFilter{id, &truth[p], 0});
      pins.push_back(std::move(of));
      pins.push_back(std::move(sf));
    }
    const HashedTerms hashed = HashedTerms::from(terms);
    const IpfTable want(hashed, truth_view);
    const IpfTable from_oracle = oracle.lookup(hashed, oracle_view);
    expect_identical(from_oracle, want);
    expect_identical(subject.lookup(hashed, subject_view), from_oracle);
  };

  // Every resident filter is the decode of the directory's bytes at the
  // version the cache holds it at.
  auto check_resident = [&] {
    for (std::size_t p = 0; p < kPeers; ++p) {
      const auto id = static_cast<std::uint32_t>(p);
      const auto held = subject.version_of(id);
      if (!held.has_value()) continue;
      ASSERT_TRUE(known[p]) << "peer " << p;
      EXPECT_EQ(*held, version[p]) << "peer " << p;
      const auto f = subject.filter_of(id);
      ASSERT_NE(f, nullptr);
      EXPECT_EQ(*f, bloom::decode_filter_bytes(bytes[p])) << "peer " << p;
    }
  };

  for (int round = 0; round < 200; ++round) {
    const std::size_t p = rng() % kPeers;
    const auto id = static_cast<std::uint32_t>(p);
    switch (rng() % 5) {
      case 0: {  // XOR diff: a few new terms gossiped incrementally
        if (!known[p]) break;
        bloom::BloomFilter next = truth[p];
        for (int i = 0; i < 3; ++i) next.insert(term_name(rng() % kTermUniverse));
        const BitVector diff = next.diff_from(truth[p]);
        ASSERT_TRUE(oracle.apply_peer_diff(static_cast<std::uint32_t>(p), diff, version[p],
                                           version[p] + 1));
        const std::vector<std::uint8_t> diff_wire = diff_wire_of(diff);
        bytes[p] = bloom::merge_diff_wire(bytes[p], diff_wire);
        const bool resident = subject.version_of(id).has_value();
        const std::uint64_t decodes = subject.stats().wire_decodes;
        subject.apply_update(id, version[p] + 1, true, version[p], diff_wire);
        if (resident) {
          ++resident_diffs;
          EXPECT_EQ(subject.version_of(id), version[p] + 1);
        } else {
          // A diff for a peer that is not resident decodes nothing.
          ++nonresident_diffs;
          EXPECT_FALSE(subject.version_of(id).has_value());
        }
        EXPECT_EQ(subject.stats().wire_decodes, decodes);
        truth[p] = std::move(next);
        version[p] += 1;
        break;
      }
      case 1:  // rejoin: version bump, unchanged content
        if (!known[p]) break;
        version[p] += 1;
        EXPECT_TRUE(oracle.touch_peer(static_cast<std::uint32_t>(p), version[p]));
        subject.apply_update(id, version[p], false, 0, {});
        break;
      case 2:  // expiry (T_dead): both caches forget the peer
        oracle.remove_peer(static_cast<std::uint32_t>(p));
        subject.remove_peer(id);
        known[p] = false;
        bytes[p].clear();
        break;
      case 3:  // (re)join or full replacement with a fresh filter
        install(p);
        break;
      default:
        query();
        break;
    }
    check_resident();
  }
  query();
  check_resident();

  // Both diff paths ran, and the bound had teeth: filters were decoded on
  // demand and dropped along the way.
  EXPECT_GT(resident_diffs, 0u);
  EXPECT_GT(nonresident_diffs, 0u);
  EXPECT_GT(subject.stats().wire_decodes, 0u);
  EXPECT_GT(subject.stats().decoded_evictions, 0u);
  EXPECT_LE(subject.decoded_bytes(), bounded.max_decoded_bytes);
}

TEST(CompressedAtRest, DiffOnAtRestPeerNeverMaterializes) {
  // A diff for a peer the cache holds no decoded copy of decodes nothing; the
  // directory merges it into its bytes, and the next decode sees the merged
  // filter.
  CandidateCache cache({.max_decoded_bytes = 1});  // evict everything eagerly
  bloom::BloomFilter f = make_filter({1, 2, 3});
  std::vector<std::uint8_t> bytes = wire_of(f);
  ASSERT_NE(cache.resident_filter(7, 1, bytes), nullptr);  // pinned, then evicted
  EXPECT_FALSE(cache.version_of(7).has_value());
  EXPECT_EQ(cache.stats().wire_decodes, 1u);

  bloom::BloomFilter next = f;
  next.insert(term_name(4));
  const auto diff = diff_wire_of(next.diff_from(f));
  cache.apply_update(7, 2, true, 1, diff);
  EXPECT_EQ(cache.stats().wire_decodes, 1u);  // nothing decoded
  EXPECT_FALSE(cache.version_of(7).has_value());

  bytes = bloom::merge_diff_wire(bytes, diff);
  auto resident = cache.resident_filter(7, 2, bytes);
  ASSERT_NE(resident, nullptr);
  EXPECT_EQ(*resident, next);
  EXPECT_EQ(cache.stats().wire_decodes, 2u);
}

TEST(CompressedAtRest, WireDiffRefusedOnVersionOrGeometryMismatch) {
  // A diff the resident copy cannot take — against another version, or of
  // another geometry — drops the copy; the next resident_filter decodes the
  // record's bytes.
  CandidateCache cache;
  bloom::BloomFilter f = make_filter({1, 2});
  const std::vector<std::uint8_t> bytes = wire_of(f);
  ASSERT_NE(cache.resident_filter(1, 3, bytes), nullptr);
  EXPECT_EQ(cache.resident_filter(1, 3, bytes), cache.filter_of(1));  // no re-decode
  EXPECT_EQ(cache.stats().wire_decodes, 1u);

  bloom::BloomFilter next = f;
  next.insert(term_name(9));
  const auto diff = diff_wire_of(next.diff_from(f));
  cache.apply_update(2, 4, true, 3, diff);  // unknown peer: nothing to do
  EXPECT_EQ(cache.known_peers(), 1u);
  cache.apply_update(1, 4, true, 2, diff);  // wrong base version
  EXPECT_FALSE(cache.version_of(1).has_value());

  ASSERT_NE(cache.resident_filter(1, 3, bytes), nullptr);
  BitVector wrong_geometry(128);
  wrong_geometry.set(5);
  cache.apply_update(1, 4, true, 3, diff_wire_of(wrong_geometry));
  EXPECT_FALSE(cache.version_of(1).has_value());

  // Bytes that do not parse decode to nothing and leave nothing resident.
  ASSERT_NE(cache.resident_filter(1, 3, bytes), nullptr);
  const std::vector<std::uint8_t> garbage = {0xff, 0xff, 0xff};
  EXPECT_EQ(cache.resident_filter(1, 4, garbage), nullptr);
  EXPECT_FALSE(cache.version_of(1).has_value());
}

TEST(CompressedAtRest, SurgicalFixesApplyToResidentWireBackedPeers) {
  // A peer decoded from its record's bytes gets the same surgical treatment
  // as the decoded oracle: untouched cached terms stay warm, touched ones are
  // fixed.
  CandidateCache cache;
  bloom::BloomFilter f = make_filter({1});
  auto pin = cache.resident_filter(0, 1, wire_of(f));
  ASSERT_NE(pin, nullptr);

  const std::vector<PeerFilter> view = {{0, cache.filter_ptr(0), 0}};
  const std::vector<std::string> terms = {term_name(1), term_name(2)};
  const HashedTerms hashed = HashedTerms::from(terms);
  cache.lookup(hashed, view);
  ASSERT_EQ(cache.cached_terms(), 2u);

  bloom::BloomFilter next = f;
  next.insert(term_name(2));
  cache.apply_update(0, 2, true, 1, diff_wire_of(next.diff_from(f)));
  EXPECT_EQ(cache.version_of(0), 2u);
  EXPECT_GT(cache.stats().surgical_fixes, 0u);

  auto resident = cache.filter_of(0);
  ASSERT_NE(resident, nullptr);
  const std::vector<PeerFilter> after = {{0, resident.get(), 0}};
  expect_identical(cache.lookup(hashed, after), IpfTable(hashed, after));
  EXPECT_EQ(*resident, next);
  EXPECT_EQ(cache.stats().wire_decodes, 1u);
}

TEST(CompressedAtRest, ConcurrentDecodeEvictAndLookupAreSafe) {
  // Thread-safety under residency churn: concurrent decode-ins, evictions,
  // full updates and lookups on one shared cache (run under TSan in
  // check.sh).
  CandidateCacheConfig cfg;
  cfg.max_decoded_bytes = 24 * 1024;  // ~3 resident filters
  CandidateCache cache(cfg);
  constexpr std::size_t kPeers = 8;
  std::vector<std::vector<std::uint8_t>> bytes;
  for (std::size_t p = 0; p < kPeers; ++p) {
    bytes.push_back(wire_of(make_filter({p, p + 1, p + 2})));
  }

  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&cache, &bytes, w] {
      std::mt19937_64 rng(1000 + w);
      for (int i = 0; i < 200; ++i) {
        const auto p = static_cast<std::uint32_t>(rng() % kPeers);
        switch (rng() % 3) {
          case 0:
            cache.resident_filter(p, 1, bytes[p]);
            break;
          case 1:
            cache.apply_update(p, 1, true, 0, bytes[p]);
            break;
          default: {
            std::vector<PeerFilter> view;
            std::vector<std::shared_ptr<const bloom::BloomFilter>> pins;
            for (std::size_t q = 0; q < kPeers; ++q) {
              const auto id = static_cast<std::uint32_t>(q);
              if (auto f = cache.resident_filter(id, 1, bytes[q])) {
                view.push_back(PeerFilter{id, f.get(), 0});
                pins.push_back(std::move(f));
              }
            }
            const std::vector<std::string> terms = {term_name(rng() % 12)};
            const HashedTerms hashed = HashedTerms::from(terms);
            const IpfTable got = cache.lookup(hashed, view);
            expect_identical(got, IpfTable(hashed, view));
            break;
          }
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_LE(cache.decoded_bytes(), cfg.max_decoded_bytes);
}

// ---------------------------------------------------------------------------
// O(changed) summary compares between shared-base directories
// ---------------------------------------------------------------------------

TEST(ODeltaSummaries, MergeScanTouchesOnlyChangedRecords) {
  using namespace planetp::gossip;
  constexpr std::size_t kPeers = 400;
  std::vector<PeerRecord> records;
  for (PeerId id = 0; id < kPeers; ++id) {
    PeerRecord r;
    r.id = id;
    r.address = "sim://" + std::to_string(id);
    r.version = 1;
    r.key_count = 100;
    records.push_back(std::move(r));
  }
  const DirectoryBasePtr base = make_directory_base(std::move(records));

  Directory a(0), b(1);
  a.adopt_base(base);
  b.adopt_base(base);

  // Converged: the compare must scan zero entries, not 400.
  EXPECT_TRUE(b.same_as(a.summary_entries()));
  EXPECT_EQ(b.merge_scan_entries(), 0u);

  // Three records move forward on a; b's compare and merge scan exactly the
  // changed set.
  for (PeerId id : {7u, 123u, 398u}) {
    PeerRecord updated = *a.find(id);
    updated.version = 2;
    EXPECT_TRUE(a.apply(updated));
  }
  const auto summary = a.summary_entries();
  EXPECT_FALSE(b.same_as(summary));
  EXPECT_LE(b.merge_scan_entries(), 6u);  // both deltas, never O(peers)

  const auto newer = b.newer_in(summary);
  EXPECT_EQ(newer.size(), 3u);
  EXPECT_LE(b.merge_scan_entries(), 9u);
}
