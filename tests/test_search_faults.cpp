#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "corpus/placement.hpp"
#include "corpus/synthetic.hpp"
#include "search/distributed.hpp"
#include "search/evaluation.hpp"
#include "search/experiment.hpp"
#include "sim/community.hpp"

/// Failure-aware retrieval under injected faults (docs/SEARCH.md): the query
/// RPCs of tfipf_search routed through SimCommunity's FaultInjector, with the
/// recall/coverage guarantees the robustness work promises pinned as tests.

namespace planetp::search {
namespace {

constexpr std::size_t kPeers = 40;
constexpr std::size_t kTopK = 20;

struct Scenario {
  corpus::SynthCollection collection;
  RetrievalSetup setup;

  Scenario() {
    collection = corpus::generate(corpus::preset_tiny());
    corpus::PlacementOptions placement;
    placement.kind = corpus::PlacementKind::kUniform;
    placement.seed = 7;
    setup = distribute_collection(collection, kPeers, placement);
  }

  /// Build a simulated community whose query path injects \p faults.
  std::unique_ptr<sim::SimCommunity> make_sim(sim::FaultPlan faults,
                                              std::uint64_t seed = 11) const {
    sim::SimConfig cfg;
    cfg.seed = seed;
    cfg.faults = std::move(faults);
    auto sim = std::make_unique<sim::SimCommunity>(std::move(cfg));
    for (std::size_t i = 0; i < kPeers; ++i) sim->add_peer({});
    sim->start_converged();
    return sim;
  }

  sim::SimCommunity::LocalEvalFn local_eval() const {
    return [this](gossip::PeerId peer,
                  const std::unordered_map<std::string, double>& weights) {
      return score_snapshot(setup.peer_snapshots[peer], weights);
    };
  }

  /// Fault-free recall of one query (direct in-process contacts).
  double baseline_recall(const corpus::SynthQuery& q) const {
    DistributedSearchOptions opts;
    opts.k = kTopK;
    const auto r = tfipf_search(query_term_strings(q), setup.filter_views(),
                                setup.local_contact(kTopK), opts);
    return recall(r.docs, judgment_set(q));
  }
};

TEST(SearchFaults, UniformLossRecallStaysWithinFivePercent) {
  // 20% of all messages silently lost on both legs of every query RPC; the
  // retry budget plus substitution must keep mean recall within 5% of the
  // fault-free run (the headline robustness claim).
  const Scenario s;
  auto sim = s.make_sim(sim::FaultPlan::uniform_drop(0.2));

  double base_sum = 0.0;
  double faulted_sum = 0.0;
  for (const auto& q : s.collection.queries) {
    base_sum += s.baseline_recall(q);

    DistributedSearchOptions opts;
    opts.k = kTopK;
    opts.retry.max_attempts = 4;
    opts.retry.base_backoff = kMillisecond;
    opts.seed = q.id + 1;
    const auto contact = sim->search_contact(0, s.local_eval());
    const auto r = tfipf_search(query_term_strings(q), s.setup.filter_views(),
                                contact, opts);
    sim->note_search(r);
    faulted_sum += recall(r.docs, judgment_set(q));
    EXPECT_GE(r.coverage, 0.0);
    EXPECT_LE(r.coverage, 1.0);
  }
  const std::size_t n = s.collection.queries.size();
  ASSERT_GT(n, 0u);
  const double base_mean = base_sum / static_cast<double>(n);
  const double faulted_mean = faulted_sum / static_cast<double>(n);
  ASSERT_GT(base_mean, 0.0);
  EXPECT_GE(faulted_mean, 0.95 * base_mean)
      << "base=" << base_mean << " faulted=" << faulted_mean;

  // The loss actually happened: RPCs were sent, some failed, retries fired.
  const auto& stats = sim->stats();
  EXPECT_GT(stats.query_rpcs_sent(), 0u);
  EXPECT_GT(stats.query_rpcs_failed(), 0u);
  EXPECT_GT(stats.query_rpcs_retried(), 0u);
}

TEST(SearchFaults, KillingTopRankedPeersMidQueryDegradesGracefully) {
  // Kill the top 10% of each query's eq. 3 ranking *mid-query*: every remote
  // contact costs 10ms of simulated service time, and the kill window opens
  // halfway through the victim prefix — so the first victims answer before
  // dying and the rest silently vanish while the search is underway. The
  // search must still return within its deadline, report coverage < 1.0, and
  // keep recall at >= 90% of the fault-free run via substitution down the
  // ranking.
  constexpr Duration kServiceTime = 10 * kMillisecond;
  const Scenario s;
  const auto views = s.setup.filter_views();

  double base_sum = 0.0;
  double faulted_sum = 0.0;
  std::size_t evaluated = 0;
  for (const auto& q : s.collection.queries) {
    const auto terms = query_term_strings(q);
    const auto ranked = rank_peers(IpfTable(terms, views));
    // Victims: the top tenth of candidates, never the searcher itself (a
    // self-contact bypasses the network and cannot be killed).
    std::vector<gossip::PeerId> victims;
    const std::size_t quota =
        (ranked.size() + 9) / 10;  // ceil(10%), at least 1 when candidates exist
    for (const auto& rp : ranked) {
      if (victims.size() >= quota) break;
      if (rp.peer != 0) victims.push_back(rp.peer);
    }
    if (victims.empty()) continue;

    // Victim j is contacted no earlier than j * kServiceTime, so opening the
    // window at floor(quota/2) * kServiceTime guarantees the later half of
    // the victims (at least the last one) dies before it is reached.
    sim::TimeWindow window;
    window.start = static_cast<TimePoint>(victims.size() / 2) * kServiceTime;
    sim::FaultPlan plan;
    for (gossip::PeerId v : victims) {
      plan.drop(sim::FaultScope::of_peer(v), window, 1.0);
    }
    auto sim = s.make_sim(std::move(plan), /*seed=*/q.id + 101);

    DistributedSearchOptions opts;
    opts.k = kTopK;
    opts.retry.max_attempts = 2;
    opts.retry.base_backoff = kMillisecond;
    opts.deadline = 5 * kSecond;
    opts.seed = q.id + 1;
    const auto inner = sim->search_contact(0, s.local_eval());
    // Charge each remote contact its service time on the simulation clock so
    // the kill window can open while the query is in flight.
    const auto contact = [&](std::uint32_t peer,
                             const std::unordered_map<std::string, double>& w) {
      auto res = inner(peer, w);
      if (peer != 0) {
        sim->queue().run_until(sim->queue().now() + kServiceTime);
        res.latency += kServiceTime;
      }
      return res;
    };
    const auto r = tfipf_search(terms, views, contact, opts);
    sim->note_search(r);

    EXPECT_FALSE(r.deadline_exceeded);
    EXPECT_LE(r.elapsed, opts.deadline);
    EXPECT_GE(r.failed_peers, 1u);  // a top-ranked victim died mid-query
    EXPECT_LT(r.coverage, 1.0);
    EXPECT_GT(r.substituted_peers, 0u);
    EXPECT_GT(sim->stats().query_rpcs_failed(), 0u);

    base_sum += s.baseline_recall(q);
    faulted_sum += recall(r.docs, judgment_set(q));
    ++evaluated;
  }
  ASSERT_GT(evaluated, 0u);
  ASSERT_GT(base_sum, 0.0);
  EXPECT_GE(faulted_sum, 0.9 * base_sum)
      << "base=" << base_sum / evaluated << " faulted=" << faulted_sum / evaluated;
}

/// Hand-built 4-peer community sharing one term: deterministic contact order
/// (equal mass resolves to ascending id, searcher 0 first) for exact counter
/// assertions.
struct TinyCommunity {
  bloom::BloomParams params{65536, 2};
  std::vector<bloom::BloomFilter> filters;
  std::vector<PeerFilter> views;

  TinyCommunity() {
    for (std::uint32_t i = 0; i < 4; ++i) {
      filters.emplace_back(params);
      filters.back().insert("t");
    }
    for (std::uint32_t i = 0; i < 4; ++i) views.push_back({i, &filters[i]});
  }

  static sim::SimCommunity::LocalEvalFn one_doc_each() {
    return [](gossip::PeerId peer, const std::unordered_map<std::string, double>&) {
      std::vector<ScoredDoc> docs;
      docs.push_back({{peer, 0}, 1.0 / (static_cast<double>(peer) + 1.0)});
      return docs;
    };
  }
};

TEST(SearchFaults, CountersTrackSentRetriedAndFailed) {
  const TinyCommunity tiny;
  sim::FaultPlan plan;
  plan.drop(sim::FaultScope::of_peer(1), sim::TimeWindow::always(), 1.0);

  sim::SimConfig cfg;
  cfg.faults = std::move(plan);
  sim::SimCommunity sim(std::move(cfg));
  for (int i = 0; i < 4; ++i) sim.add_peer({});
  sim.start_converged();

  DistributedSearchOptions opts;
  opts.k = 10;
  opts.retry.max_attempts = 3;
  opts.retry.base_backoff = kMillisecond;
  const auto contact = sim.search_contact(0, TinyCommunity::one_doc_each());
  const auto r = tfipf_search({"t"}, tiny.views, contact, opts);
  sim.note_search(r);

  // Contact order 0 (local), 1 (3 failed attempts, substituted), 2, 3.
  EXPECT_EQ(r.contacted, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(r.failed_peers, 1u);
  EXPECT_EQ(r.substituted_peers, 1u);
  EXPECT_EQ(r.retries, 2u);
  EXPECT_LT(r.coverage, 1.0);
  EXPECT_EQ(r.docs.size(), 3u);

  const auto& stats = sim.stats();
  EXPECT_EQ(stats.query_rpcs_sent(), 5u);    // 3 attempts at peer 1, one each at 2 and 3
  EXPECT_EQ(stats.query_rpcs_failed(), 3u);  // every attempt at peer 1
  EXPECT_EQ(stats.query_rpcs_retried(), 2u);
  EXPECT_EQ(stats.query_rpcs_hedged(), 0u);
}

TEST(SearchFaults, CountersTrackHedgedContacts) {
  const TinyCommunity tiny;
  sim::FaultPlan plan;
  plan.delay(sim::FaultScope::of_peer(1), sim::TimeWindow::always(), 20 * kMillisecond);

  sim::SimConfig cfg;
  cfg.faults = std::move(plan);
  sim::SimCommunity sim(std::move(cfg));
  for (int i = 0; i < 4; ++i) sim.add_peer({});
  sim.start_converged();

  DistributedSearchOptions opts;
  opts.k = 10;
  opts.hedge_threshold = 10 * kMillisecond;
  const auto contact = sim.search_contact(0, TinyCommunity::one_doc_each());
  const auto r = tfipf_search({"t"}, tiny.views, contact, opts);
  sim.note_search(r);

  // Peer 1's 40ms round trip (20ms per leg) crosses the hedge threshold, so
  // peer 2 is contacted as a hedge duplicate; peer 3 follows normally.
  EXPECT_EQ(r.contacted, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(r.hedged_contacts, 1u);
  ASSERT_EQ(r.outcomes.size(), 4u);
  EXPECT_FALSE(r.outcomes[1].hedged);
  EXPECT_EQ(r.outcomes[1].latency, 40 * kMillisecond);
  EXPECT_TRUE(r.outcomes[2].hedged);
  EXPECT_EQ(r.failed_peers, 0u);
  EXPECT_EQ(r.docs.size(), 4u);

  const auto& stats = sim.stats();
  EXPECT_EQ(stats.query_rpcs_sent(), 3u);
  EXPECT_EQ(stats.query_rpcs_failed(), 0u);
  EXPECT_EQ(stats.query_rpcs_hedged(), 1u);
}

TEST(DistributedSearchConcurrent, SearchesShareOneFaultInjector) {
  // Several threads search concurrently, each routing contacts through the
  // same (thread-safe) FaultInjector — the sharing pattern LiveNode uses.
  // Exists to run under TSan via scripts/check.sh.
  const TinyCommunity tiny;
  sim::FaultInjector injector(sim::FaultPlan::uniform_drop(0.3), /*seed=*/5);

  constexpr int kThreads = 8;
  std::atomic<std::uint64_t> contacts{0};
  std::vector<std::thread> workers;
  std::vector<DistributedSearchResult> results(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto contact = [&](std::uint32_t peer,
                         const std::unordered_map<std::string, double>&)
          -> PeerSearchResult {
        contacts.fetch_add(1, std::memory_order_relaxed);
        const auto decision = injector.decide(100 + static_cast<gossip::PeerId>(t), peer, 0);
        if (decision.drop) return PeerSearchResult::failure(ContactStatus::kTimeout);
        std::vector<ScoredDoc> docs;
        docs.push_back({{peer, 0}, 1.0 / (static_cast<double>(peer) + 1.0)});
        return PeerSearchResult::ok(std::move(docs), decision.extra_delay);
      };
      DistributedSearchOptions opts;
      opts.k = 4;
      opts.retry.max_attempts = 2;
      opts.retry.base_backoff = kMillisecond;
      opts.hedge_threshold = 10 * kMillisecond;
      opts.seed = static_cast<std::uint64_t>(t) + 1;
      results[t] = tfipf_search({"t"}, tiny.views, contact, opts);
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_GT(contacts.load(), 0u);
  EXPECT_GT(injector.counters().dropped, 0u);
  for (const auto& r : results) {
    EXPECT_EQ(r.candidate_peers, 4u);
    EXPECT_GE(r.coverage, 0.0);
    EXPECT_LE(r.coverage, 1.0);
  }
}

}  // namespace
}  // namespace planetp::search
