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
///  1. a versioned store of each peer's Bloom filter (the searcher's
///     directory view), kept current by full updates, version touches, and
///     *surgical* XOR-diff application: an incoming diff is tested against
///     every cached term's bit positions, so an update that does not touch a
///     term's bits leaves its candidate entry warm, and one that does fixes
///     just that (term, peer) membership instead of invalidating wholesale.
///     Filters fed as wire bytes (update_peer_wire) stay Golomb-compressed
///     *at rest*: they decode on first use, the decoded working set is
///     LRU-bounded by max_decoded_bytes, and gossiped diffs merge into the
///     compressed form directly (gap-domain XOR) so an at-rest peer is
///     updated without ever materializing its bit vector;
///  2. a bounded (LRU) term → candidate-peers map over the known filter
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
  /// Master switch for the term→candidate entries. Disabled, lookup() still
  /// runs the batched probe kernel (every term a miss, nothing stored) and
  /// the filter store still serves as the decoded-filter cache.
  bool enabled = true;
  /// Bound on cached term entries; least-recently-used entries evict first.
  std::size_t max_terms = 4096;
  /// Probe kernels over at least this many filters shard across the thread
  /// pool; smaller scans stay single-threaded (fork/join overhead dominates).
  std::size_t parallel_threshold = 2048;
  /// Worker threads for the parallel scan; 0 = hardware concurrency. The
  /// pool is created lazily on the first scan that crosses the threshold.
  std::size_t max_threads = 0;
  /// Bound on decoded filter bytes held for wire-backed peers (those fed via
  /// update_peer_wire). Beyond it the least-recently-used decoded filter is
  /// dropped back to its Golomb-compressed wire form — the next
  /// resident_filter() re-decodes on demand. 0 = unbounded. Filters installed
  /// without wire backing (update_peer) count toward the bound but are never
  /// evicted: the wire bytes are the only durable copy a wire-backed peer
  /// needs, a decoded-only peer has nothing to fall back to.
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
  std::uint64_t wire_decodes = 0;     ///< on-demand decodes of at-rest wire filters
  std::uint64_t decoded_evictions = 0;  ///< decoded filters dropped back to wire form
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

  /// Install or replace \p peer's filter *at rest*: the cache keeps only the
  /// Golomb-compressed \p wire bytes (exactly what encode_filter emits) and
  /// decodes on the first resident_filter() call. With max_decoded_bytes set
  /// this is what keeps directory-of-the-community memory at compressed cost
  /// plus a bounded decoded working set. Empty \p wire forgets the peer.
  void update_peer_wire(std::uint32_t peer, std::vector<std::uint8_t> wire,
                        std::uint64_t version);

  /// Surgical update from a gossiped XOR diff: applies \p diff to a private
  /// copy of the stored filter and fixes only the cached terms whose bit
  /// positions the diff touches. Returns false (no change) when the stored
  /// version is not \p base_version — the caller should fall back to a full
  /// update_peer with the record's filter. Refuses wire-backed peers (use
  /// apply_peer_diff_wire, which keeps the at-rest bytes in sync).
  bool apply_peer_diff(std::uint32_t peer, const BitVector& diff,
                       std::uint64_t base_version, std::uint64_t new_version);

  /// Wire-domain diff for a wire-backed peer: the at-rest bytes are updated
  /// by a Golomb gap merge (bloom::merge_diff_wire — no bit vector is ever
  /// materialized) and, when the peer is decoded-resident, the same flips are
  /// mirrored onto the decoded copy with the usual surgical entry fixes.
  /// \p diff_wire is an encode_diff byte string. Returns false when the peer
  /// is not wire-backed at \p base_version or the streams do not parse — the
  /// caller should fall back to update_peer_wire with the record's full wire.
  bool apply_peer_diff_wire(std::uint32_t peer, std::span<const std::uint8_t> diff_wire,
                            std::uint64_t base_version, std::uint64_t new_version);

  /// Record a version bump whose filter content is unchanged (a rejoin
  /// rumor). Returns false when the peer is unknown.
  bool touch_peer(std::uint32_t peer, std::uint64_t version);

  /// The one maintenance path for a gossiped update to a remote \p peer at
  /// \p version, taken by both runtimes once their directory applied it.
  /// Unchanged content (\p filter_changed false: a rejoin, or a record
  /// without a filter) is a version touch. An XOR diff (\p base_version !=
  /// 0, \p filter_bits an encode_diff string) merges through
  /// apply_peer_diff_wire. Anything else — a full filter, or a diff the
  /// cache refuses — forgets the peer, and the next update_peer_wire of the
  /// record's full wire re-warms it. Both runtimes keep remote peers
  /// wire-backed, so a refused diff has no decoded fallback to try.
  void apply_update(std::uint32_t peer, std::uint64_t version, bool filter_changed,
                    std::uint64_t base_version, std::span<const std::uint8_t> filter_bits);

  /// Forget a peer (expired from the directory): its filter is dropped and
  /// it is removed from every cached candidate list.
  void remove_peer(std::uint32_t peer);

  /// Drop everything (filters and entries).
  void clear();

  /// Version the cache holds for \p peer, if any.
  std::optional<std::uint64_t> version_of(std::uint32_t peer) const;

  /// The stored decoded filter (shared ownership), or nullptr when unknown
  /// or currently at rest in wire form (no decode is triggered).
  std::shared_ptr<const bloom::BloomFilter> filter_of(std::uint32_t peer) const;

  /// Raw pointer to the stored decoded filter; valid until the next
  /// update_peer / apply_peer_diff / remove_peer / clear for that peer — or,
  /// for wire-backed peers under a max_decoded_bytes bound, until eviction.
  /// Callers that hold filters across further cache traffic should pin the
  /// shared_ptr from resident_filter() instead.
  const bloom::BloomFilter* filter_ptr(std::uint32_t peer) const;

  /// The peer's decoded filter, decoding it from the at-rest wire bytes on
  /// demand (and possibly evicting the LRU decoded filter to stay under
  /// max_decoded_bytes). The returned shared_ptr pins the decoded filter for
  /// the caller even if the cache drops its own copy. nullptr when the peer
  /// is unknown or its wire bytes do not parse.
  std::shared_ptr<const bloom::BloomFilter> resident_filter(std::uint32_t peer);

  /// Bytes of decoded filter payload currently resident (all peers).
  std::size_t decoded_bytes() const;

  /// Peers whose filter is currently decoded-resident.
  std::size_t resident_peers() const;

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
  std::size_t known_peers() const;
  const CandidateCacheConfig& config() const { return config_; }

  /// Population epoch: bumped on every content change (update_peer,
  /// apply_peer_diff, remove_peer, clear; touch_peer leaves content — and
  /// so the epoch — alone). A lookup runs entirely against one epoch: a
  /// cache primed on epoch E serves E-consistent results, and a population
  /// change re-probes every cached entry (full_reprobes / surgical_* count
  /// which path) before epoch E+1 answers — never a mix of the two.
  std::uint64_t population_epoch() const;

 private:
  struct TermEntry {
    HashPair hp;
    std::vector<std::uint32_t> peers;        ///< sorted ids over all known peers
    std::list<std::string>::iterator lru;    ///< position in lru_ (front = hottest)
  };
  struct PeerState {
    std::shared_ptr<const bloom::BloomFilter> filter;  ///< decoded; null = at rest
    std::vector<std::uint8_t> wire;  ///< compressed at-rest copy (empty = decoded-only)
    std::uint64_t version = 0;
    std::list<std::uint32_t>::iterator lru;  ///< decoded_lru_ slot; valid iff evictable
    bool evictable = false;  ///< wire-backed and decoded-resident (in decoded_lru_)
  };
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

  /// Drop \p st's decoded filter (bytes accounting + LRU unlink); the caller
  /// is responsible for the matching reprobe_entries call. Caller holds mu_.
  void detach_residency(PeerState& st);

  /// Evict least-recently-used wire-backed decoded filters until
  /// decoded_bytes_ fits max_decoded_bytes. Caller holds mu_.
  void evict_decoded_to_bound();

  mutable std::mutex mu_;
  CandidateCacheConfig config_;
  EntryMap entries_;
  std::list<std::string> lru_;  ///< most recently used at front
  std::unordered_map<std::uint32_t, PeerState> peers_;
  std::list<std::uint32_t> decoded_lru_;  ///< evictable resident peers, hottest first
  std::size_t decoded_bytes_ = 0;         ///< resident decoded payload (all peers)
  /// Bumped on every population change; in-flight miss probes only install
  /// their results when the epoch they were computed against still holds.
  std::uint64_t epoch_ = 0;
  std::shared_ptr<const ViewMemo> memo_;  ///< last view's classification
  std::unique_ptr<ThreadPool> pool_;  ///< created on first large scan
  CandidateCacheStats stats_;
};

}  // namespace planetp::search
