#pragma once

#include <cmath>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "search/ipf.hpp"
#include "search/ranker.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

/// \file distributed.hpp
/// PlanetP's two-stage ranked retrieval (§5.2): rank peers by eq. 3 using
/// IPF over the gossiped Bloom filters, then contact them top-down, ranking
/// returned documents with eq. 2 (IPF substituted for IDF) and stopping
/// adaptively per eq. 4.
///
/// The contact loop is failure-aware (see docs/SEARCH.md): a contact returns
/// an outcome rather than a bare result vector, failed peers are retried with
/// exponential backoff and then *substituted* by the next candidate down the
/// eq. 3 ranking (so eq. 4 still sees productive consecutive contacts), slow
/// peers can be hedged with a duplicate request to the next candidate, and
/// the whole search respects an optional deadline. The result reports
/// coverage so callers can distinguish a complete answer from a degraded one.

namespace planetp::search {

/// Eq. 4's adaptive stopping rule: stop after p consecutive peers contribute
/// nothing to the current top-k, with
///   p = floor(2 + N/300) + 2 * floor(k/50).
struct StoppingHeuristic {
  double base = 2.0;
  double community_divisor = 300.0;
  double k_multiplier = 2.0;
  double k_divisor = 50.0;

  /// Patience per eq. 4. Degenerate configurations are guarded rather than
  /// trusted: a non-positive or non-finite divisor contributes nothing
  /// (instead of dividing by zero), and the result is clamped to
  /// [0, kMaxPatience] so casting the double cannot overflow size_t.
  std::size_t patience(std::size_t community_size, std::size_t k) const {
    static constexpr double kMaxPatience = 1e9;
    double first = base;
    if (std::isfinite(community_divisor) && community_divisor > 0.0) {
      first += static_cast<double>(community_size) / community_divisor;
    }
    double second = 0.0;
    if (std::isfinite(k_divisor) && k_divisor > 0.0 && std::isfinite(k_multiplier)) {
      second = k_multiplier * std::floor(static_cast<double>(k) / k_divisor);
    }
    double total = std::floor(first) + std::floor(second);
    if (!std::isfinite(total) || total < 0.0) total = 0.0;
    return static_cast<std::size_t>(std::min(total, kMaxPatience));
  }
};

/// Peer relevance per eq. 3: R_i(Q) = sum of IPF_t over query terms t that
/// hit peer i's Bloom filter. Peers with R_i = 0 are omitted.
///
/// Ordering is explicitly deterministic: descending *effective* rank (eq. 3
/// mass demoted by the peer's local SUSPECT level), ties broken by ascending
/// peer id. Substitution order under failure is therefore reproducible from
/// the searcher's directory state alone.
struct RankedPeer {
  std::uint32_t peer = 0;
  double rank = 0.0;           ///< raw eq. 3 candidate mass
  std::uint32_t suspicion = 0; ///< SUSPECT level copied from the searcher's view

  /// Rank used for ordering: each recorded query-time failure halves-ish the
  /// peer's priority without erasing its candidate mass.
  double effective_rank() const { return rank / (1.0 + static_cast<double>(suspicion)); }
};
std::vector<RankedPeer> rank_peers(const IpfTable& ipf);

/// Outcome classification of one peer contact.
enum class ContactStatus : std::uint8_t {
  kOk = 0,           ///< peer answered; docs are valid
  kTimeout = 1,      ///< no answer within the per-peer deadline (retryable)
  kError = 2,        ///< peer answered garbage / reported failure (retryable)
  kUnreachable = 3,  ///< no route to the peer at all (not retried in-query)
};

const char* contact_status_name(ContactStatus status);

/// What one contact attempt produced. Implicitly constructible from a bare
/// document vector so infallible in-process contact functions stay terse.
struct PeerSearchResult {
  ContactStatus status = ContactStatus::kOk;
  std::vector<ScoredDoc> docs;
  Duration latency = 0;  ///< observed service time; drives hedging/deadline

  PeerSearchResult() = default;
  PeerSearchResult(std::vector<ScoredDoc> d) : docs(std::move(d)) {}  // NOLINT: implicit

  static PeerSearchResult ok(std::vector<ScoredDoc> docs, Duration latency = 0) {
    PeerSearchResult r;
    r.docs = std::move(docs);
    r.latency = latency;
    return r;
  }
  static PeerSearchResult failure(ContactStatus status, Duration latency = 0) {
    PeerSearchResult r;
    r.status = status;
    r.latency = latency;
    return r;
  }
  bool is_ok() const { return status == ContactStatus::kOk; }
};

/// Contact function: evaluate the weighted query at a peer and report the
/// outcome. In-process communities call straight into the peer's index; the
/// live runtime issues an RPC and maps timeout/decode failures onto the
/// status codes. tfipf_search may invoke it several times for the same peer
/// (bounded retry) and concurrently from hedged searches, so it must be
/// re-entrant with respect to the data it captures.
///
/// A contact built for a search with result budget k may return only the
/// peer's own top k (search::top_k) rather than every match: ranks_before
/// is a strict total order, so a document that enters the merged top-k is
/// in its peer's top-k, and tfipf_search's result, eq. 4 contribution test
/// and stop test come out the same (docs/SEARCH.md §1). The function does
/// not receive k; a contact captures it.
using PeerSearchFn = std::function<PeerSearchResult(
    std::uint32_t peer, const std::unordered_map<std::string, double>& term_weights)>;

/// Bounded retry with exponential backoff and deterministic jitter.
struct RetryPolicy {
  std::uint32_t max_attempts = 2;             ///< total tries per peer; 1 = no retry
  Duration base_backoff = 50 * kMillisecond;  ///< wait before the first retry
  Duration max_backoff = 1 * kSecond;         ///< backoff growth cap
  double jitter = 0.5;                        ///< fraction of the backoff randomized

  /// Backoff before retry number \p retry (1-based): min(base * 2^(retry-1),
  /// max), with a uniform jitter slice drawn from \p rng so synchronized
  /// searchers do not retry in lockstep. Deterministic given the rng state.
  Duration backoff_before(std::uint32_t retry, Rng& rng) const;
};

struct DistributedSearchOptions {
  std::size_t k = 20;          ///< user's result budget
  std::size_t group_size = 1;  ///< m: peers contacted per step (§5.2's parallel variant)
  StoppingHeuristic stopping;
  std::size_t max_peers = 0;   ///< hard cap on contacts; 0 = unlimited

  RetryPolicy retry;           ///< per-peer retry budget for kTimeout/kError
  /// Total time budget for the whole search; 0 = unlimited. Measured with
  /// `clock` when provided, otherwise by accumulating reported contact
  /// latencies and backoff waits (the simulator's virtual cost model).
  Duration deadline = 0;
  /// A successful contact slower than this also triggers a duplicate
  /// ("hedged") request to the next-ranked uncontacted candidate; 0 = off.
  Duration hedge_threshold = 0;
  std::uint64_t seed = 0;      ///< jitter stream; fixed seed => reproducible schedule
  /// Optional query-hot-path cache (docs/SEARCH.md). When set, the eq. 3
  /// IpfTable is assembled from warm term→candidate entries instead of
  /// probing every filter; results are byte-identical to the uncached scan.
  CandidateCache* cache = nullptr;
  /// Backoff sleep hook for live runtimes; nullptr = don't sleep (in-process
  /// and simulated communities have no wall clock to burn).
  std::function<void(Duration)> sleep;
  /// Wall-clock source for the deadline; nullptr = accumulate latencies.
  std::function<TimePoint()> clock;
};

/// Final per-peer contact record, in contact order.
struct PeerOutcome {
  std::uint32_t peer = 0;
  ContactStatus status = ContactStatus::kOk;  ///< outcome of the *last* attempt
  std::uint32_t attempts = 0;                 ///< 1 = answered first try
  Duration latency = 0;                       ///< total time spent on this peer
  bool hedged = false;                        ///< contacted as a hedge duplicate
};

struct DistributedSearchResult {
  std::vector<ScoredDoc> docs;            ///< final top-k
  std::vector<std::uint32_t> contacted;   ///< peers contacted (attempted), in order
  std::size_t candidate_peers = 0;        ///< peers with non-zero rank

  std::vector<PeerOutcome> outcomes;      ///< per-peer final outcome + latency
  std::size_t failed_peers = 0;           ///< peers that never answered
  std::size_t substituted_peers = 0;      ///< failures replaced by a lower-ranked candidate
  std::size_t retries = 0;                ///< extra attempts beyond each peer's first
  std::size_t hedged_contacts = 0;        ///< duplicate requests to next-ranked peers
  /// Candidate mass reached: eq. 3 mass of peers that answered divided by the
  /// mass of peers attempted. 1.0 means every contacted peer answered (a
  /// complete answer as far as the stopping rule saw); < 1.0 means the result
  /// is degraded by unreachable/timed-out peers.
  double coverage = 1.0;
  bool deadline_exceeded = false;         ///< stopped by opts.deadline
  Duration elapsed = 0;                   ///< total time charged to the search
};

/// Run the full TFxIPF retrieval against the searcher's view of the
/// community (\p filters) using \p contact to reach peers. With default
/// options and an infallible contact function the behaviour (contact order,
/// merged ranking, returned top-k) is identical to the pre-failure-aware
/// implementation.
DistributedSearchResult tfipf_search(const std::vector<std::string>& query_terms,
                                     const std::vector<PeerFilter>& filters,
                                     const PeerSearchFn& contact,
                                     const DistributedSearchOptions& opts);

}  // namespace planetp::search
