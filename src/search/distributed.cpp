#include "search/distributed.hpp"

#include <algorithm>

#include "search/candidate_cache.hpp"
#include <unordered_set>
#include <utility>

namespace planetp::search {

const char* contact_status_name(ContactStatus status) {
  switch (status) {
    case ContactStatus::kOk: return "ok";
    case ContactStatus::kTimeout: return "timeout";
    case ContactStatus::kError: return "error";
    case ContactStatus::kUnreachable: return "unreachable";
  }
  return "unknown";
}

Duration RetryPolicy::backoff_before(std::uint32_t retry, Rng& rng) const {
  if (retry == 0 || base_backoff <= 0) return 0;
  Duration backoff = base_backoff;
  for (std::uint32_t i = 1; i < retry && backoff < max_backoff; ++i) backoff *= 2;
  if (max_backoff > 0) backoff = std::min(backoff, max_backoff);
  const double slice = std::clamp(jitter, 0.0, 1.0);
  if (slice > 0.0) {
    const auto window = static_cast<Duration>(static_cast<double>(backoff) * slice);
    if (window > 0) {
      backoff = backoff - window +
                static_cast<Duration>(rng.below(static_cast<std::uint64_t>(window) + 1));
    }
  }
  return backoff;
}

std::vector<RankedPeer> rank_peers(const IpfTable& ipf) {
  // Gossip allocates peer ids densely, so the eq. 3 mass almost always
  // accumulates into a flat array (one indexed add per candidate instead of
  // a hashed insert); sparse/huge id spaces fall back to the map. Both paths
  // add each peer's terms in the same (sorted-term) order and the sort below
  // is a total order, so the output is identical either way. A zero mass
  // means "untouched": every accumulated weight is > 0.
  static constexpr std::uint32_t kDenseLimit = 1u << 22;  // 32 MB accumulator cap
  std::uint32_t max_id = 0;
  std::size_t candidates = 0;
  for (const std::string& term : ipf.terms()) {
    for (std::uint32_t peer : ipf.peers_with(term)) {
      max_id = std::max(max_id, peer);
      ++candidates;
    }
  }
  std::vector<RankedPeer> out;
  if (candidates > 0 && max_id < kDenseLimit) {
    std::vector<double> mass(static_cast<std::size_t>(max_id) + 1, 0.0);
    std::vector<std::uint32_t> touched;
    touched.reserve(candidates);
    for (const std::string& term : ipf.terms()) {
      const double w = ipf.weight(term);
      if (w <= 0.0) continue;
      for (std::uint32_t peer : ipf.peers_with(term)) {
        if (mass[peer] == 0.0) touched.push_back(peer);
        mass[peer] += w;
      }
    }
    out.reserve(touched.size());
    for (std::uint32_t peer : touched) {
      out.push_back(RankedPeer{peer, mass[peer], ipf.suspicion_of(peer)});
    }
  } else {
    std::unordered_map<std::uint32_t, double> acc;
    for (const std::string& term : ipf.terms()) {
      const double w = ipf.weight(term);
      if (w <= 0.0) continue;
      for (std::uint32_t peer : ipf.peers_with(term)) acc[peer] += w;
    }
    out.reserve(acc.size());
    for (const auto& [peer, rank] : acc) {
      out.push_back(RankedPeer{peer, rank, ipf.suspicion_of(peer)});
    }
  }
  std::sort(out.begin(), out.end(), [](const RankedPeer& a, const RankedPeer& b) {
    const double ra = a.effective_rank();
    const double rb = b.effective_rank();
    if (ra != rb) return ra > rb;
    return a.peer < b.peer;  // deterministic: equal mass resolves to lowest id
  });
  return out;
}

DistributedSearchResult tfipf_search(const std::vector<std::string>& query_terms,
                                     const std::vector<PeerFilter>& filters,
                                     const PeerSearchFn& contact,
                                     const DistributedSearchOptions& opts) {
  DistributedSearchResult result;

  // Hash the query once; the eq. 3 table (cached or scanned) and every
  // downstream probe reuse the HashPairs.
  const HashedTerms hashed = HashedTerms::from(query_terms);
  const IpfTable ipf = opts.cache != nullptr ? opts.cache->lookup(hashed, filters)
                                             : IpfTable(hashed, filters);
  const auto weights = ipf.weights();
  const auto peers = rank_peers(ipf);
  result.candidate_peers = peers.size();

  const std::size_t patience = opts.stopping.patience(filters.size(), opts.k);
  const std::size_t group = std::max<std::size_t>(1, opts.group_size);

  Rng rng(opts.seed);
  const TimePoint start = opts.clock ? opts.clock() : 0;
  Duration virtual_elapsed = 0;  // latency + backoff accounting when no clock
  auto elapsed_now = [&]() -> Duration {
    return opts.clock ? (opts.clock() - start) : virtual_elapsed;
  };
  auto charge = [&](Duration d) {
    if (!opts.clock && d > 0) virtual_elapsed += d;
  };
  auto over_deadline = [&]() { return opts.deadline > 0 && elapsed_now() >= opts.deadline; };

  double attempted_mass = 0.0;
  double ok_mass = 0.0;

  // Contact one peer with bounded retry (single attempt for hedges). Records
  // the outcome, the time charged, and the coverage masses.
  auto contact_peer = [&](const RankedPeer& rp,
                          bool hedged) -> std::pair<bool, std::vector<ScoredDoc>> {
    PeerOutcome outcome;
    outcome.peer = rp.peer;
    outcome.hedged = hedged;
    result.contacted.push_back(rp.peer);
    attempted_mass += rp.rank;

    std::vector<ScoredDoc> docs;
    const std::uint32_t budget =
        hedged ? 1u : std::max<std::uint32_t>(1, opts.retry.max_attempts);
    for (std::uint32_t attempt = 1; attempt <= budget; ++attempt) {
      PeerSearchResult res = contact(rp.peer, weights);
      outcome.attempts = attempt;
      outcome.status = res.status;
      outcome.latency += res.latency;
      charge(res.latency);
      if (res.is_ok()) {
        docs = std::move(res.docs);
        break;
      }
      // No route at all: retrying immediately cannot help inside one query.
      if (res.status == ContactStatus::kUnreachable) break;
      if (attempt >= budget || over_deadline()) break;
      const Duration backoff = opts.retry.backoff_before(attempt, rng);
      if (opts.sleep) opts.sleep(backoff);
      charge(backoff);
      outcome.latency += backoff;
      ++result.retries;
    }

    const bool ok = outcome.status == ContactStatus::kOk;
    if (ok) {
      ok_mass += rp.rank;
    } else {
      ++result.failed_peers;
    }
    result.outcomes.push_back(outcome);
    return {ok, std::move(docs)};
  };

  std::vector<ScoredDoc> merged;
  std::size_t no_contribution_streak = 0;

  auto merge_docs = [&](const std::vector<ScoredDoc>& local) {
    merged.insert(merged.end(), local.begin(), local.end());
    std::sort(merged.begin(), merged.end(), ranks_before);
  };
  auto contributed_to_top_k = [&](const std::vector<ScoredDoc>& local) {
    std::unordered_set<index::DocumentId, index::DocumentIdHash> top;
    const std::size_t top_n = std::min(opts.k, merged.size());
    for (std::size_t t = 0; t < top_n; ++t) top.insert(merged[t].doc);
    for (const ScoredDoc& d : local) {
      if (top.contains(d.doc)) return true;
    }
    return false;
  };

  // Candidate walk: a single cursor over the eq. 3 ranking. Hedges and
  // substitutions consume candidates from the same cursor, so every peer is
  // contacted at most once per query.
  std::size_t cursor = 0;
  auto next_candidate = [&]() -> const RankedPeer* {
    return cursor < peers.size() ? &peers[cursor++] : nullptr;
  };

  bool stop = false;
  while (cursor < peers.size() && !stop) {
    if (opts.max_peers != 0 && result.contacted.size() >= opts.max_peers) break;

    // One group step (the paper's latency optimization; group = 1 reproduces
    // the sequential algorithm). A failed peer does not consume a slot or
    // touch the stopping streak: the next candidate is substituted in its
    // place so eq. 4 still judges `patience` *productive* contacts.
    std::size_t slots = 0;
    while (slots < group) {
      if (over_deadline()) {
        result.deadline_exceeded = true;
        stop = true;
        break;
      }
      const RankedPeer* next = next_candidate();
      if (next == nullptr) {
        stop = true;
        break;
      }
      const RankedPeer rp = *next;
      auto [ok, local] = contact_peer(rp, /*hedged=*/false);
      if (!ok) {
        if (cursor < peers.size()) ++result.substituted_peers;
        continue;  // substitution: same slot, next candidate
      }

      merge_docs(local);
      const bool contributed = contributed_to_top_k(local);

      // Hedging: a successful-but-slow contact also fires one duplicate
      // request at the next-ranked candidate to cut tail latency.
      if (opts.hedge_threshold > 0 &&
          result.outcomes.back().latency >= opts.hedge_threshold) {
        if (const RankedPeer* hp = next_candidate()) {
          const RankedPeer hedge = *hp;
          ++result.hedged_contacts;
          auto [hok, hlocal] = contact_peer(hedge, /*hedged=*/true);
          if (hok) merge_docs(hlocal);
        }
      }

      if (contributed) {
        no_contribution_streak = 0;
      } else if (++no_contribution_streak >= patience && merged.size() >= opts.k) {
        stop = true;
      }
      ++slots;
      if (stop) break;
    }
  }

  result.coverage =
      (result.failed_peers == 0 || attempted_mass <= 0.0) ? 1.0 : ok_mass / attempted_mass;
  result.elapsed = elapsed_now();

  truncate_top_k(merged, opts.k);
  result.docs = std::move(merged);
  return result;
}

}  // namespace planetp::search
