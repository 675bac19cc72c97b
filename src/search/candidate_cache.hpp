#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "search/ipf.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

/// \file candidate_cache.hpp
/// The query hot path (docs/SEARCH.md "Query hot path"). Table 1 of the
/// paper shows the "rank peers" step — probing every peer's 50 KB Bloom
/// filter for every query term — dominating query cost at 5000 peers. Between
/// gossip rounds the filter set is immutable, and filter updates arrive as
/// XOR diffs that say exactly which bits changed; re-deriving the
/// term→candidate mapping per query throws that structure away. Following
/// Witten et al.'s precompute-and-maintain doctrine, CandidateCache keeps:
///
///  1. a versioned store of decoded Bloom filters (the searcher's directory
///     view). It holds no encoded bytes: the directory record's filter_wire
///     is the only stored encoding of a remote peer's filter, and
///     resident_filter() decodes it on a miss or a version change. The
///     decoded working set is LRU-bounded by max_decoded_bytes. A gossiped
///     XOR diff for a resident peer is applied *surgically*: its flipped bit
///     positions (bloom::diff_positions) go onto a copy of the decoded
///     filter, and only the cached terms whose bit positions the diff
///     touches have their (term, peer) membership fixed; a diff for a peer
///     that is not resident decodes nothing;
///  2. a bounded (LRU) term → candidate-peers map over the resident filter
///     population, consulted by lookup();
///  3. a filter-major batched probe kernel for cache misses: one pass over
///     the peers, probing all missing terms back-to-back per filter with
///     pre-hashed HashPairs, word-aligned bit reads and software prefetch,
///     sharded across a lazily created ThreadPool for large communities.
///
/// lookup() is byte-identical to building an IpfTable from scratch: candidate
/// membership is a pure function of filter contents, per-peer rank mass
/// accumulates in the same (sorted-term) order, and rank_peers orders its
/// output by a deterministic total order — candidate-list order carries no
/// meaning. All public methods are thread-safe.

namespace planetp::search {

struct CandidateCacheConfig {
  /// Bound on cached term entries; least-recently-used entries evict first.
  std::size_t max_terms = 4096;
  /// Probe kernels over at least this many filters shard across the thread
  /// pool; smaller scans stay single-threaded (fork/join overhead dominates).
  std::size_t parallel_threshold = 2048;
  /// Worker threads for the parallel scan; 0 = hardware concurrency. The
  /// pool is created lazily on the first scan that crosses the threshold.
  std::size_t max_threads = 0;
  /// Bound on decoded filter bytes held. Beyond it the least-recently-used
  /// filter is dropped; the caller still holds what it came from (the
  /// directory record's bytes), and the next resident_filter() re-decodes
  /// them. 0 = unbounded.
  std::size_t max_decoded_bytes = 0;
};

/// Monotonic counters; read them to pin cache behaviour in tests.
struct CandidateCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t term_hits = 0;        ///< terms answered from a warm entry
  std::uint64_t term_misses = 0;      ///< terms probed by the kernel
  std::uint64_t surgical_keeps = 0;   ///< diff left a cached term untouched
  std::uint64_t surgical_fixes = 0;   ///< diff hit a term's bits; membership re-probed
  std::uint64_t view_memo_hits = 0;   ///< lookups that reused the memoized view split
  std::uint64_t full_reprobes = 0;    ///< full filter replacement re-probed entries
  std::uint64_t evictions = 0;        ///< entries dropped by the max_terms bound
  std::uint64_t parallel_scans = 0;   ///< kernel invocations that used the pool
  std::uint64_t wire_decodes = 0;     ///< resident_filter() decodes of record bytes
  std::uint64_t decoded_evictions = 0;  ///< filters dropped by the max_decoded_bytes bound
};

class CandidateCache {
 public:
  explicit CandidateCache(CandidateCacheConfig config = {});
  ~CandidateCache();

  // ------------------------------------------------------------------
  // Population maintenance (drive from directory / gossip events)
  // ------------------------------------------------------------------

  /// Install or replace \p peer's filter at \p version. Every cached term is
  /// re-probed against the new filter, so existing entries stay warm and
  /// correct. The cache shares ownership of the filter; callers handing over
  /// a non-owning aliasing pointer must keep the filter alive and unchanged.
  void update_peer(std::uint32_t peer, std::shared_ptr<const bloom::BloomFilter> filter,
                   std::uint64_t version);

  /// \p peer's decoded filter at \p version, where \p wire is that version's
  /// encode_filter bytes as the caller's directory record holds them. A
  /// resident copy at \p version is returned as it is; otherwise the bytes
  /// are decoded and installed like update_peer (possibly dropping the
  /// least-recently-used filters to stay under max_decoded_bytes). The
  /// returned shared_ptr pins the filter for the caller even if the cache
  /// drops its own copy. nullptr, with any older copy dropped, when the
  /// bytes do not parse.
  std::shared_ptr<const bloom::BloomFilter> resident_filter(
      std::uint32_t peer, std::uint64_t version, std::span<const std::uint8_t> wire);

  /// Surgical update from an XOR diff: applies \p diff to a private copy of
  /// the stored filter and fixes only the cached terms whose bit positions
  /// the diff touches. Returns false (no change) when the stored version is
  /// not \p base_version or the geometry differs — the caller should fall
  /// back to a full update_peer. The decoded-domain oracle the tests compare
  /// apply_update against.
  bool apply_peer_diff(std::uint32_t peer, const BitVector& diff,
                       std::uint64_t base_version, std::uint64_t new_version);

  /// Record a version bump whose filter content is unchanged (a rejoin
  /// rumor). Returns false when the peer is not resident.
  bool touch_peer(std::uint32_t peer, std::uint64_t version);

  /// The one maintenance path for a gossiped update to a remote \p peer at
  /// \p version, taken by both runtimes once their directory applied it.
  /// Unchanged content (\p filter_changed false: a rejoin, or a record
  /// without a filter) is a version touch. An XOR diff (\p base_version !=
  /// 0, \p filter_bits an encode_diff string) for a peer resident at
  /// \p base_version flips the diff's positions on a copy of the decoded
  /// filter, with the surgical entry fixes. A diff for a peer that is not
  /// resident is ignored (nothing is decoded). Anything else — a full
  /// filter, a diff against another version, a diff that does not parse or
  /// fit — drops the peer, and the next resident_filter() decodes the
  /// record's bytes.
  void apply_update(std::uint32_t peer, std::uint64_t version, bool filter_changed,
                    std::uint64_t base_version, std::span<const std::uint8_t> filter_bits);

  /// Forget a peer (expired from the directory): its filter is dropped and
  /// it is removed from every cached candidate list.
  void remove_peer(std::uint32_t peer);

  /// Drop everything (filters and entries).
  void clear();

  /// Version the cache holds for \p peer, if resident.
  std::optional<std::uint64_t> version_of(std::uint32_t peer) const;

  /// The stored decoded filter (shared ownership), or nullptr when the peer
  /// is not resident (no decode is triggered).
  std::shared_ptr<const bloom::BloomFilter> filter_of(std::uint32_t peer) const;

  /// Raw pointer to the stored decoded filter; valid until the next
  /// update_peer / apply_peer_diff / apply_update / remove_peer / clear for
  /// that peer — or, under a max_decoded_bytes bound, until eviction.
  /// Callers that hold filters across further cache traffic should pin the
  /// shared_ptr from filter_of() or resident_filter() instead.
  const bloom::BloomFilter* filter_ptr(std::uint32_t peer) const;

  /// Bytes of decoded filter payload currently resident (all peers).
  std::size_t decoded_bytes() const;

  // ------------------------------------------------------------------
  // Query path
  // ------------------------------------------------------------------

  /// IpfTable over \p view, byte-identical to IpfTable(terms, view). View
  /// entries whose filter pointer is the cache's own stored filter resolve
  /// through the cached candidate sets (warm terms) or the batched kernel
  /// (misses, which also populate the cache); any other view entry — an
  /// unknown peer, a stale pointer, the searcher's own scratch filter — is
  /// probed directly, so correctness never depends on callers keeping the
  /// cache perfectly synchronized.
  IpfTable lookup(const HashedTerms& terms, const std::vector<PeerFilter>& view);
  IpfTable lookup(const std::vector<std::string>& terms,
                  const std::vector<PeerFilter>& view);

  CandidateCacheStats stats() const;
  std::size_t cached_terms() const;
  std::size_t known_peers() const;  ///< peers with a resident filter
  const CandidateCacheConfig& config() const { return config_; }

  /// Population epoch: bumped on every content change (update_peer, a
  /// resident_filter decode, apply_peer_diff, apply_update, remove_peer, an
  /// eviction, clear; touch_peer leaves content — and so the epoch —
  /// alone). A lookup runs entirely against one epoch: a
  /// cache primed on epoch E serves E-consistent results, and a population
  /// change re-probes every cached entry (full_reprobes / surgical_* count
  /// which path) before epoch E+1 answers — never a mix of the two.
  std::uint64_t population_epoch() const;

 private:
  struct TermEntry {
    HashPair hp;
    std::vector<std::uint32_t> peers;        ///< sorted ids over all resident peers
    std::list<std::string>::iterator lru;    ///< position in lru_ (front = hottest)
  };
  struct PeerState {
    std::shared_ptr<const bloom::BloomFilter> filter;  ///< decoded, never null
    std::uint64_t version = 0;
    std::list<std::uint32_t>::iterator lru;  ///< slot in decoded_lru_
  };
  using PeerMap = std::unordered_map<std::uint32_t, PeerState>;
  /// Memoized backed/extra split of the most recent view (see lookup()):
  /// callers rebuild the same directory view query after query, so the
  /// per-row classification — one hash lookup per peer — is paid once per
  /// population epoch instead of once per query. Defined in the .cpp;
  /// shared_ptr so a lookup keeps its snapshot alive across the unlocked
  /// probe even when a concurrent query with a different view replaces it.
  struct ViewMemo;

  using EntryMap = std::unordered_map<std::string, TermEntry, StringHash, std::equal_to<>>;

  /// Probe \p terms against \p filters (filter-major, prefetching), sharded
  /// over the pool when the population is large. out[t] = ids whose filter
  /// contains terms[t], in filter order. Caller must not hold mu_.
  void probe_batch(const std::vector<std::pair<std::uint32_t, const bloom::BloomFilter*>>& filters,
                   const std::vector<HashPair>& terms,
                   std::vector<std::vector<std::uint32_t>>& out);

  /// Re-probe every cached entry's membership of \p peer against \p filter
  /// (nullptr = remove). Caller holds mu_.
  void reprobe_entries(std::uint32_t peer, const bloom::BloomFilter* filter);

  void evict_to_bound();  ///< caller holds mu_

  /// Install \p filter as \p peer's at \p version (replacing any older
  /// copy), re-probe every cached entry against it, then evict down to
  /// max_decoded_bytes. Caller holds mu_.
  void install(std::uint32_t peer, std::shared_ptr<const bloom::BloomFilter> filter,
               std::uint64_t version);

  /// Replace \p it's filter with \p updated at \p version, where the two
  /// differ exactly at the sorted bit positions \p flips: only the cached
  /// terms whose bit positions a flip touches are re-probed. Caller holds mu_.
  void apply_flips(PeerMap::iterator it, std::shared_ptr<const bloom::BloomFilter> updated,
                   const std::vector<std::uint64_t>& flips, std::uint64_t version);

  /// Forget \p it's peer: its filter, its LRU slot and its entry
  /// memberships. Caller holds mu_.
  void drop(PeerMap::iterator it);

  /// Drop least-recently-used filters until decoded_bytes_ fits
  /// max_decoded_bytes. Caller holds mu_.
  void evict_decoded_to_bound();

  mutable std::mutex mu_;
  CandidateCacheConfig config_;
  EntryMap entries_;
  std::list<std::string> lru_;  ///< most recently used at front
  PeerMap peers_;
  std::list<std::uint32_t> decoded_lru_;  ///< resident peers, hottest first
  std::size_t decoded_bytes_ = 0;         ///< resident decoded payload (all peers)
  /// Bumped on every population change; in-flight miss probes only install
  /// their results when the epoch they were computed against still holds.
  std::uint64_t epoch_ = 0;
  std::shared_ptr<const ViewMemo> memo_;  ///< last view's classification
  std::unique_ptr<ThreadPool> pool_;  ///< created on first large scan
  CandidateCacheStats stats_;
};

}  // namespace planetp::search
