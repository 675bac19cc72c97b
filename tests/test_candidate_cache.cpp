#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "search/candidate_cache.hpp"
#include "search/distributed.hpp"

using namespace planetp;
using namespace planetp::search;

namespace {

bloom::BloomParams small_params() { return bloom::BloomParams{65536, 2}; }

std::string term_name(std::size_t i) { return "term" + std::to_string(i); }

std::shared_ptr<bloom::BloomFilter> make_filter(const std::vector<std::size_t>& term_ids) {
  auto f = std::make_shared<bloom::BloomFilter>(small_params());
  for (std::size_t t : term_ids) f->insert(term_name(t));
  return f;
}

/// The tentpole invariant: for any view, the cache-assembled table must be
/// byte-identical to a from-scratch IpfTable over the same view — same term
/// weights, same candidate sets, and bitwise-equal rank_peers output.
void expect_identical(const IpfTable& cached, const IpfTable& fresh) {
  EXPECT_EQ(cached.num_peers(), fresh.num_peers());
  ASSERT_EQ(cached.terms(), fresh.terms());
  for (const std::string& t : cached.terms()) {
    EXPECT_EQ(cached.weight(t), fresh.weight(t)) << "term " << t;
    // Candidate lists are sets: order carries no meaning, membership must match.
    std::vector<std::uint32_t> a = cached.peers_with(t);
    std::vector<std::uint32_t> b = fresh.peers_with(t);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "term " << t;
  }
  const auto ra = rank_peers(cached);
  const auto rb = rank_peers(fresh);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].peer, rb[i].peer) << "rank position " << i;
    EXPECT_EQ(ra[i].rank, rb[i].rank) << "rank position " << i;
    EXPECT_EQ(ra[i].suspicion, rb[i].suspicion) << "rank position " << i;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Deterministic behaviour pins
// ---------------------------------------------------------------------------

TEST(CandidateCache, WarmLookupMatchesFreshTable) {
  CandidateCache cache;
  auto f0 = make_filter({1, 2, 3});
  auto f1 = make_filter({2, 3, 4});
  cache.update_peer(0, f0, 1);
  cache.update_peer(1, f1, 1);

  const std::vector<PeerFilter> view = {{0, cache.filter_ptr(0), 0},
                                        {1, cache.filter_ptr(1), 2}};
  const std::vector<std::string> terms = {term_name(2), term_name(4), term_name(9)};
  const HashedTerms hashed = HashedTerms::from(terms);

  const IpfTable cold = cache.lookup(hashed, view);
  expect_identical(cold, IpfTable(hashed, view));
  EXPECT_EQ(cache.stats().term_misses, 3u);

  const IpfTable warm = cache.lookup(hashed, view);
  expect_identical(warm, IpfTable(hashed, view));
  EXPECT_EQ(cache.stats().term_hits, 3u);
  EXPECT_EQ(cache.stats().term_misses, 3u);
  EXPECT_EQ(cache.cached_terms(), 3u);
}

TEST(CandidateCache, SurgicalDiffKeepsUntouchedTermsWarm) {
  CandidateCache cache;
  cache.update_peer(0, make_filter({1}), 1);

  const std::vector<PeerFilter> view = {{0, cache.filter_ptr(0), 0}};
  const HashedTerms hashed = HashedTerms::from({term_name(1), term_name(2)});
  cache.lookup(hashed, view);
  ASSERT_EQ(cache.cached_terms(), 2u);

  // A diff that only inserts term 7: neither cached term's bits move, so both
  // entries must be kept warm without re-probing.
  auto base = cache.filter_of(0);
  bloom::BloomFilter modified = *base;
  modified.insert(term_name(7));
  ASSERT_TRUE(cache.apply_peer_diff(0, modified.diff_from(*base), 1, 2));
  EXPECT_EQ(cache.version_of(0), 2u);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.surgical_keeps + stats.surgical_fixes, 2u);
  EXPECT_GE(stats.surgical_keeps, 1u);

  // Entries answered from cache (no new misses) and still byte-identical
  // against the updated filter.
  const std::vector<PeerFilter> view2 = {{0, cache.filter_ptr(0), 0}};
  const IpfTable after = cache.lookup(hashed, view2);
  expect_identical(after, IpfTable(hashed, view2));
  EXPECT_EQ(cache.stats().term_misses, 2u);
  EXPECT_EQ(cache.stats().term_hits, 2u);
}

TEST(CandidateCache, SurgicalDiffFixesTouchedTermMembership) {
  CandidateCache cache;
  cache.update_peer(0, make_filter({}), 1);

  const HashedTerms hashed = HashedTerms::from({term_name(5)});
  const std::vector<PeerFilter> view = {{0, cache.filter_ptr(0), 0}};
  const IpfTable before = cache.lookup(hashed, view);
  EXPECT_TRUE(before.peers_with(term_name(5)).empty());

  // The diff inserts exactly the cached term: its bits are touched, so the
  // entry's membership for peer 0 must flip without a full reprobe.
  auto base = cache.filter_of(0);
  bloom::BloomFilter modified = *base;
  modified.insert(term_name(5));
  ASSERT_TRUE(cache.apply_peer_diff(0, modified.diff_from(*base), 1, 2));
  EXPECT_GE(cache.stats().surgical_fixes, 1u);

  const std::vector<PeerFilter> view2 = {{0, cache.filter_ptr(0), 0}};
  const IpfTable after = cache.lookup(hashed, view2);
  expect_identical(after, IpfTable(hashed, view2));
  ASSERT_EQ(after.peers_with(term_name(5)).size(), 1u);
  EXPECT_EQ(after.peers_with(term_name(5))[0], 0u);
  EXPECT_EQ(cache.stats().term_misses, 1u);  // still answered from the entry
}

TEST(CandidateCache, StaleOrMismatchedDiffIsRejected) {
  CandidateCache cache;
  cache.update_peer(3, make_filter({1}), 5);

  auto base = cache.filter_of(3);
  bloom::BloomFilter modified = *base;
  modified.insert(term_name(2));
  const BitVector diff = modified.diff_from(*base);

  EXPECT_FALSE(cache.apply_peer_diff(3, diff, 4, 6));   // wrong base version
  EXPECT_FALSE(cache.apply_peer_diff(9, diff, 5, 6));   // unknown peer
  EXPECT_FALSE(cache.apply_peer_diff(3, BitVector(128), 5, 6));  // wrong geometry
  EXPECT_EQ(cache.version_of(3), 5u);
  EXPECT_TRUE(cache.apply_peer_diff(3, diff, 5, 6));
  EXPECT_EQ(cache.version_of(3), 6u);
}

TEST(CandidateCache, FullUpdateReprobesAndRemoveErases) {
  CandidateCache cache;
  cache.update_peer(0, make_filter({1}), 1);
  cache.update_peer(1, make_filter({1}), 1);

  const HashedTerms hashed = HashedTerms::from({term_name(1)});
  std::vector<PeerFilter> view = {{0, cache.filter_ptr(0), 0}, {1, cache.filter_ptr(1), 0}};
  EXPECT_EQ(cache.lookup(hashed, view).peers_with(term_name(1)).size(), 2u);

  // Replacing peer 0's filter with one lacking the term reprobes the warm
  // entry in place.
  cache.update_peer(0, make_filter({2}), 2);
  view = {{0, cache.filter_ptr(0), 0}, {1, cache.filter_ptr(1), 0}};
  IpfTable t = cache.lookup(hashed, view);
  expect_identical(t, IpfTable(hashed, view));
  ASSERT_EQ(t.peers_with(term_name(1)).size(), 1u);
  EXPECT_EQ(t.peers_with(term_name(1))[0], 1u);
  EXPECT_GT(cache.stats().full_reprobes, 0u);

  cache.remove_peer(1);
  EXPECT_EQ(cache.known_peers(), 1u);
  EXPECT_FALSE(cache.version_of(1).has_value());
  view = {{0, cache.filter_ptr(0), 0}};
  EXPECT_TRUE(cache.lookup(hashed, view).peers_with(term_name(1)).empty());
}

TEST(CandidateCache, TouchPeerKeepsEntriesWarm) {
  CandidateCache cache;
  cache.update_peer(0, make_filter({1}), 1);
  const HashedTerms hashed = HashedTerms::from({term_name(1)});
  const std::vector<PeerFilter> view = {{0, cache.filter_ptr(0), 0}};
  cache.lookup(hashed, view);

  EXPECT_TRUE(cache.touch_peer(0, 2));  // rejoin: version bump, same content
  EXPECT_FALSE(cache.touch_peer(7, 1));
  EXPECT_EQ(cache.version_of(0), 2u);

  cache.lookup(hashed, view);
  EXPECT_EQ(cache.stats().term_hits, 1u);
}

TEST(CandidateCache, EvictionBoundsEntriesAndStaysCorrect) {
  CandidateCacheConfig cfg;
  cfg.max_terms = 4;
  CandidateCache cache(cfg);
  cache.update_peer(0, make_filter({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}), 1);

  const std::vector<PeerFilter> view = {{0, cache.filter_ptr(0), 0}};
  std::vector<std::string> terms;
  for (std::size_t i = 0; i < 10; ++i) terms.push_back(term_name(i));
  const HashedTerms hashed = HashedTerms::from(terms);

  const IpfTable t = cache.lookup(hashed, view);
  expect_identical(t, IpfTable(hashed, view));
  EXPECT_LE(cache.cached_terms(), 4u);
  EXPECT_GE(cache.stats().evictions, 6u);

  // Evicted terms just miss again; results stay identical.
  const IpfTable again = cache.lookup(hashed, view);
  expect_identical(again, IpfTable(hashed, view));
}

TEST(CandidateCache, UnbackedAndDuplicateViewRowsAreProbedDirectly) {
  CandidateCache cache;
  cache.update_peer(0, make_filter({1}), 1);

  // Peer 5 is unknown to the cache; peer 0 appears twice (the duplicate row
  // must be probed directly so the fresh table's double-count is reproduced).
  auto foreign = make_filter({1});
  const std::vector<PeerFilter> view = {{0, cache.filter_ptr(0), 0},
                                        {5, foreign.get(), 1},
                                        {0, cache.filter_ptr(0), 0}};
  const HashedTerms hashed = HashedTerms::from({term_name(1)});
  const IpfTable t = cache.lookup(hashed, view);
  expect_identical(t, IpfTable(hashed, view));
  EXPECT_EQ(t.peers_with(term_name(1)).size(), 3u);
}

TEST(CandidateCache, ParallelKernelMatchesSingleThreaded) {
  CandidateCacheConfig cfg;
  cfg.parallel_threshold = 4;  // force the sharded path on a small population
  CandidateCache cache(cfg);

  std::vector<PeerFilter> view;
  for (std::uint32_t p = 0; p < 12; ++p) {
    cache.update_peer(p, make_filter({p % 5, p % 3}), 1);
  }
  for (std::uint32_t p = 0; p < 12; ++p) view.push_back({p, cache.filter_ptr(p), 0});

  std::vector<std::string> terms;
  for (std::size_t i = 0; i < 5; ++i) terms.push_back(term_name(i));
  const HashedTerms hashed = HashedTerms::from(terms);
  const IpfTable t = cache.lookup(hashed, view);
  expect_identical(t, IpfTable(hashed, view));
  EXPECT_GT(cache.stats().parallel_scans, 0u);
}

// ---------------------------------------------------------------------------
// Property test: randomized gossip interleavings
// ---------------------------------------------------------------------------

/// Drive the cache through random interleavings of the operations gossip
/// performs on it — full filter replacements, surgical XOR diffs, version
/// touches, removals, stale diffs — interleaved with queries, and require
/// every query to be byte-identical to an uncached IpfTable over the same
/// view (including extra rows the cache has never seen and random SUSPECT
/// levels). Evictions are forced by a small max_terms.
TEST(CandidateCacheProperty, RandomInterleavingsMatchUncachedTables) {
  std::mt19937_64 rng(20260806);
  constexpr std::size_t kPeers = 12;
  constexpr std::size_t kVocab = 40;
  constexpr int kIterations = 400;

  CandidateCacheConfig cfg;
  cfg.max_terms = 16;
  CandidateCache cache(cfg);

  std::vector<std::uint64_t> version(kPeers, 0);
  auto extra = make_filter({0, 1, 2});

  auto random_filter = [&] {
    std::vector<std::size_t> ids;
    for (std::size_t t = 0; t < kVocab; ++t) {
      if (rng() % 100 < 30) ids.push_back(t);
    }
    return make_filter(ids);
  };

  // Seed half the population so early queries see both hits and empty views.
  for (std::size_t p = 0; p < kPeers; p += 2) {
    cache.update_peer(static_cast<std::uint32_t>(p), random_filter(), ++version[p]);
  }

  std::size_t queries_checked = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    const std::uint32_t peer = static_cast<std::uint32_t>(rng() % kPeers);
    switch (rng() % 8) {
      case 0:  // full filter replacement (kFilterChange with full bits)
        cache.update_peer(peer, random_filter(), ++version[peer]);
        break;
      case 1: {  // surgical XOR diff on a known peer
        auto base = cache.filter_of(peer);
        if (base == nullptr) break;
        bloom::BloomFilter modified = *base;
        const std::size_t adds = 1 + rng() % 3;
        for (std::size_t a = 0; a < adds; ++a) modified.insert(term_name(rng() % kVocab));
        ASSERT_TRUE(cache.apply_peer_diff(peer, modified.diff_from(*base),
                                          version[peer], version[peer] + 1));
        ++version[peer];
        break;
      }
      case 2:  // rejoin: version touch, content unchanged
        if (cache.version_of(peer).has_value()) {
          ASSERT_TRUE(cache.touch_peer(peer, ++version[peer]));
        }
        break;
      case 3:  // expiry
        cache.remove_peer(peer);
        break;
      case 4: {  // stale diff must be rejected and change nothing
        auto base = cache.filter_of(peer);
        if (base == nullptr) break;
        bloom::BloomFilter modified = *base;
        modified.insert(term_name(rng() % kVocab));
        EXPECT_FALSE(cache.apply_peer_diff(peer, modified.diff_from(*base),
                                           version[peer] + 17, version[peer] + 18));
        break;
      }
      default: {  // query
        std::vector<PeerFilter> view;
        for (std::uint32_t p = 0; p < kPeers; ++p) {
          const bloom::BloomFilter* f = cache.filter_ptr(p);
          if (f != nullptr) {
            view.push_back({p, f, static_cast<std::uint32_t>(rng() % 3)});
          }
        }
        if (rng() % 2 == 0) view.push_back({100, extra.get(), 0});  // unbacked row
        if (rng() % 4 == 0 && !view.empty()) view.push_back(view.front());  // duplicate

        std::vector<std::string> terms;
        const std::size_t nterms = 1 + rng() % 4;
        for (std::size_t t = 0; t < nterms; ++t) terms.push_back(term_name(rng() % kVocab));
        const HashedTerms hashed = HashedTerms::from(terms);

        expect_identical(cache.lookup(hashed, view), IpfTable(hashed, view));
        ++queries_checked;
        break;
      }
    }
    if (HasFatalFailure() || HasNonfatalFailure()) {
      FAIL() << "diverged at iteration " << iter;
    }
  }

  EXPECT_GT(queries_checked, 100u);
  const auto stats = cache.stats();
  // The interleavings must have exercised every maintenance path.
  EXPECT_GT(stats.term_hits, 0u);
  EXPECT_GT(stats.term_misses, 0u);
  EXPECT_GT(stats.surgical_keeps, 0u);
  EXPECT_GT(stats.surgical_fixes, 0u);
  EXPECT_GT(stats.full_reprobes, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

// ---------------------------------------------------------------------------
// Epoch advance: E-consistent or transparently re-probed to E+1 — never a mix
// ---------------------------------------------------------------------------

TEST(CandidateCache, EpochAdvanceServesConsistentResultsNeverAMix) {
  CandidateCache cache;
  auto f0 = make_filter({1, 2, 3});
  auto f1 = make_filter({2, 3, 4});
  cache.update_peer(0, f0, 1);
  cache.update_peer(1, f1, 1);
  const std::uint64_t epoch_e = cache.population_epoch();
  EXPECT_EQ(epoch_e, 2u);

  // Prime on epoch E: both terms cached, answers E-consistent.
  const std::vector<std::string> terms = {term_name(2), term_name(4)};
  const HashedTerms hashed = HashedTerms::from(terms);
  const std::vector<PeerFilter> view_e = {{0, cache.filter_ptr(0), 0},
                                          {1, cache.filter_ptr(1), 0}};
  expect_identical(cache.lookup(hashed, view_e), IpfTable(hashed, view_e));
  EXPECT_EQ(cache.stats().term_misses, 2u);
  EXPECT_EQ(cache.cached_terms(), 2u);
  EXPECT_EQ(cache.population_epoch(), epoch_e);  // queries never advance the epoch

  // A warm E lookup is pure epoch-E state: hits only, no re-probe counters.
  expect_identical(cache.lookup(hashed, view_e), IpfTable(hashed, view_e));
  EXPECT_EQ(cache.stats().term_hits, 2u);
  EXPECT_EQ(cache.stats().full_reprobes, 0u);

  // Population change -> epoch E+1: peer 1's filter flips membership of both
  // cached terms (drops term 2 and 4, gains term 9). The cache must re-probe
  // its entries *at update time*, so the next lookup serves E+1 throughout.
  auto f1b = make_filter({3, 9});
  cache.update_peer(1, f1b, 2);
  EXPECT_EQ(cache.population_epoch(), epoch_e + 1);
  // The counter pinning which path ran: a full filter replacement re-probes
  // every cached entry (2 of them) in place.
  EXPECT_EQ(cache.stats().full_reprobes, 2u);

  const std::vector<PeerFilter> view_e1 = {{0, cache.filter_ptr(0), 0},
                                           {1, cache.filter_ptr(1), 0}};
  const IpfTable after = cache.lookup(hashed, view_e1);
  // Fully E+1-consistent: identical to a from-scratch table over the new
  // view. In particular peer 1 is out of term 2's and term 4's candidates —
  // an E/E+1 mix would have kept it for the warm entries.
  expect_identical(after, IpfTable(hashed, view_e1));
  std::vector<std::uint32_t> t2 = after.peers_with(term_name(2));
  EXPECT_EQ(t2, std::vector<std::uint32_t>{0});
  EXPECT_TRUE(after.peers_with(term_name(4)).empty());
  // ...and it was served from the re-probed (warm) entries, not from fresh
  // kernel probes: hits advanced, misses did not.
  EXPECT_EQ(cache.stats().term_hits, 4u);
  EXPECT_EQ(cache.stats().term_misses, 2u);
}
