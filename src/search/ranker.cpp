#include "search/ranker.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string_view>

#include "search/vector_model.hpp"

namespace planetp::search {

namespace {

using index::CompressedIndex;
using index::InvertedIndex;
using index::Posting;
using index::TermId;

/// Upper bounds are inflated by this slack before any comparison against
/// the heap threshold. The exact per-document sum re-associates the same
/// multiplications the bounds estimate ((w_{D,t} * norm) * weight vs.
/// (w_{D,t} * weight) summed then * norm), so a bound computed with ideal
/// reals could under-estimate the floating-point score by a few ulps; a
/// relative 1e-9 dwarfs the worst-case accumulated rounding (~m * 2^-52)
/// while staying far too small to cost measurable pruning power. All
/// threshold comparisons are *strict* (<): a candidate that merely ties the
/// heap root must still be evaluated, because the ascending-DocumentId
/// tie-break can rank it ahead.
constexpr double kBoundSlack = 1.0 + 1e-9;

/// Below this many total candidate postings the pruned driver's per-term
/// bookkeeping costs more than it saves; fall back to exhaustive scoring
/// (which is also the correctness-critical path for tiny corpora).
constexpr std::uint64_t kMinPrunedPostings = 4 * CompressedIndex::kBlockPostings;

/// Below this many indexed documents the exhaustive compressed arm finishes
/// in tens of microseconds, and without direct frequency rows (gated at
/// CompressedIndex::kDirectMinDocs) the pruned driver's warm-up and survivor
/// probes cannot recoup themselves; measured break-even is around 1k docs.
constexpr std::uint32_t kMinPrunedDocs = 1024;

/// Resolved (term id, weight) pairs of a query, in lexicographic term order.
/// The canonical order makes the floating-point accumulation below bitwise
/// reproducible no matter how the caller's container iterates — so the heap
/// top-k, the full-sort path, and CompressedIndex::score all agree exactly.
struct ResolvedTerms {
  std::vector<std::pair<TermId, double>> entries;
};

/// One term's state in the pruned document-at-a-time scan.
struct PrunedCursor {
  CompressedIndex::PostingCursor cur;
  double weight = 0.0;  ///< query weight of the term
  double ub = 0.0;      ///< list_max * weight * kBoundSlack (norm folded in)
  /// doc_weight(list max freq) * weight * kBoundSlack — the *pre-norm*
  /// bound. For a candidate whose length norm is known exactly, wub * norm
  /// is far tighter than ub on bursty corpora: ub charges every candidate
  /// with the shortest document's norm, wub only with its own.
  double wub = 0.0;
};

/// The one place both bounds are derived — the pruned driver's cursors are
/// all built through this so no screen ever sees a defaulted bound.
PrunedCursor make_pruned_cursor(CompressedIndex::PostingCursor cur, double weight) {
  const double ub = cur.list_max() * weight * kBoundSlack;
  const double wub = doc_weight(cur.list_max_freq()) * weight * kBoundSlack;
  return PrunedCursor{std::move(cur), weight, ub, wub};
}

/// Per-thread scratch reused across queries: the eval hot path performs no
/// per-query allocations in steady state (vectors keep their capacity).
struct RankScratch {
  std::vector<std::pair<std::string_view, double>> weighted;  ///< lex-sorted query
  std::vector<std::string_view> sorted_terms;
  ResolvedTerms resolved;
  std::vector<double> acc;
  std::vector<std::uint64_t> bm;  ///< accumulated-slot bitmap (pruned scan)
  std::vector<std::uint32_t> touched;
  std::vector<ScoredDoc> heap;
  std::vector<PrunedCursor> cursors;       ///< lexicographic term order
  std::vector<std::uint32_t> by_ub;        ///< cursor indices, descending ub
  std::vector<double> tail_ub;             ///< suffix sums over by_ub
  std::vector<double> tail_wub;            ///< pre-norm suffix sums over by_ub
  std::vector<char> ess;                   ///< essential flags, lex order
  std::vector<std::uint32_t> ess_idx;      ///< essential cursor indices
  std::vector<std::uint32_t> blk_ptr;      ///< pass-1 per-list range pointers
  std::vector<double> lb;                  ///< tier-2 per-list bounds, lex order
  std::vector<double> contrib;             ///< staged-eval exact contributions
  std::vector<std::uint32_t> eval_order;   ///< non-essential probe order
  std::vector<PrunedCursor> eval_cursors;  ///< survivor-probe cursor copies
  std::vector<PrunedCursor> warm_cursors;  ///< theta warm-up scratch copies
  std::vector<std::uint32_t> warm;         ///< dense ids scored by the warm-up
  std::size_t warm_pos = 0;                ///< main-scan pointer into warm
};

RankScratch& scratch() {
  static thread_local RankScratch s;
  return s;
}

template <typename WeightFn>
void resolve_term(const InvertedIndex& idx, std::string_view term, ResolvedTerms& out,
                  WeightFn&& weight_of) {
  const TermId id = idx.term_id(term);
  if (id == index::kInvalidTermId) return;
  for (const auto& [prev, w] : out.entries) {
    if (prev == id) return;  // queries hold a handful of terms: linear dedup
  }
  const double weight = weight_of(id);
  if (weight <= 0.0) return;
  out.entries.emplace_back(id, weight);
}

/// Accumulate eq. 2 partial sums into a dense per-slot array. Returns the
/// touched slots (each once, in first-touch order) in \p touched.
void accumulate(const InvertedIndex& idx, const ResolvedTerms& terms, std::vector<double>& acc,
                std::vector<std::uint32_t>& touched) {
  acc.assign(idx.doc_slot_count(), 0.0);
  touched.clear();
  for (const auto& [term, weight] : terms.entries) {
    const std::vector<Posting>& postings = idx.postings_by_id(term);
    const std::vector<std::uint32_t>& slots = idx.posting_slots(term);
    for (std::size_t i = 0; i < postings.size(); ++i) {
      const std::uint32_t slot = slots[i];
      // Contributions are strictly positive (weight > 0, freq >= 1), so an
      // exact zero means "first touch".
      if (acc[slot] == 0.0) touched.push_back(slot);
      acc[slot] += score_contribution(postings[i].term_freq, weight);
    }
  }
}

ScoredDoc scored_at(const InvertedIndex& idx, std::uint32_t slot, double sum) {
  return ScoredDoc{idx.doc_at_slot(slot), sum * length_norm(idx.doc_length_at_slot(slot))};
}

/// Deduplicated (term, weight) pairs in lexicographic term order — the
/// string-keyed analogue of ResolvedTerms for snapshot scoring, where terms
/// resolve by string lookup instead of TermId.
void sort_weighted_terms(const std::unordered_map<std::string, double>& term_weights,
                         std::vector<std::pair<std::string_view, double>>& sorted) {
  sorted.clear();
  sorted.reserve(term_weights.size());
  for (const auto& [term, weight] : term_weights) {
    if (weight > 0.0) sorted.emplace_back(term, weight);
  }
  std::sort(sorted.begin(), sorted.end());
}

/// Accumulate eq. 2 partial sums over a snapshot's slot domain: base
/// postings through s.cursors (one per weighted term the base holds, in
/// lexicographic order), pending segment postings through the snapshot. A
/// slot lives in exactly one of the two, and each receives its
/// contributions in the same lexicographic term order as accumulate() above
/// (a document has at most one live posting per term), so the per-slot sums
/// are bitwise identical to an InvertedIndex's.
void accumulate_snapshot(const index::EpochSnapshot& snap, RankScratch& s) {
  s.acc.assign(snap.slot_count(), 0.0);
  s.touched.clear();
  const bool tombstones = snap.tombstone_count() > 0;
  for (PrunedCursor& c : s.cursors) {
    for (; !c.cur.done(); c.cur.next()) {
      if (tombstones && snap.base_dead(c.cur.doc())) continue;
      const std::uint32_t dense = c.cur.dense();
      if (s.acc[dense] == 0.0) s.touched.push_back(dense);
      s.acc[dense] += score_contribution_memo(c.cur.term_freq(), c.weight);
    }
  }
  for (const auto& [term, weight] : s.weighted) {
    const double w = weight;
    snap.for_each_segment_posting(term, [&s, w](std::uint32_t slot, std::uint32_t freq) {
      if (s.acc[slot] == 0.0) s.touched.push_back(slot);
      s.acc[slot] += score_contribution_memo(freq, w);
    });
  }
}

ScoredDoc snapshot_scored_at(const index::EpochSnapshot& snap, std::uint32_t slot, double sum) {
  // Base slots read the base's precomputed norm (the same bits as
  // length_norm of the document's length).
  const CompressedIndex* base = snap.base();
  if (base != nullptr && slot < base->num_documents()) {
    return ScoredDoc{base->doc_at(slot), sum * base->doc_norm_at(slot)};
  }
  return ScoredDoc{snap.doc_at_slot(slot), sum * length_norm(snap.doc_length_at_slot(slot))};
}

/// Offer \p cand to a bounded min-heap of the k best seen so far (root =
/// worst kept). ranks_before is a strict total order (docs are distinct),
/// so the kept set is exactly the best k regardless of offer order.
bool heap_offer(std::vector<ScoredDoc>& heap, std::size_t k, const ScoredDoc& cand) {
  if (heap.size() < k) {
    heap.push_back(cand);
    std::push_heap(heap.begin(), heap.end(), ranks_before);
    return true;
  }
  if (ranks_before(cand, heap.front())) {
    std::pop_heap(heap.begin(), heap.end(), ranks_before);
    heap.back() = cand;
    std::push_heap(heap.begin(), heap.end(), ranks_before);
    return true;
  }
  return false;
}

/// Bounded top-k selection over touched slots; byte-identical to sorting
/// all matches and truncating. When k covers every match the heap is
/// skipped and the matches are sorted outright (the same order).
template <typename ScoreAt>
std::vector<ScoredDoc> select_top_k(const std::vector<std::uint32_t>& touched, std::size_t k,
                                    ScoreAt&& scored) {
  std::vector<ScoredDoc> heap;
  heap.reserve(std::min(k, touched.size()));
  if (k >= touched.size()) {
    for (const std::uint32_t slot : touched) heap.push_back(scored(slot));
  } else {
    for (const std::uint32_t slot : touched) heap_offer(heap, k, scored(slot));
  }
  std::sort(heap.begin(), heap.end(), ranks_before);
  return heap;
}

/// The rank-safe block-max pruned scan over a snapshot's block-structured
/// base CompressedIndex (docs/INDEX.md "Block-max pruning"). Inputs:
///   - s.cursors: the query's non-empty base posting cursors in
///     lexicographic term order, ub = list_max * weight * kBoundSlack;
///   - s.heap: the bounded min-heap, possibly pre-seeded with *exact*
///     scores from outside the base (pending epoch segments);
///   - snap.base_dead(doc): drops tombstone-killed base occurrences per
///     candidate.
/// On return s.heap holds the best k of {seeds} ∪ {live base documents},
/// unsorted.
///
/// Organization (MaxScore in Turtle & Flood's term-at-a-time form, with
/// Block-Max-WAND's per-block bounds layered on):
///   1. theta warm-up — score the best-ub list's best block exactly so the
///      threshold opens near its final value;
///   2. partition the lists: the non-essential suffix (by ascending ub)
///      cannot lift a document above theta on its own;
///   3. pass 1 folds only the essential lists through the exhaustive arm's
///      accumulator loop;
///   4. pass 2 screens every touched slot against theta — first with the
///      precomputed non-essential bound, then (zero-decode) with the
///      candidate block's max via skip entries — and re-scores the few
///      survivors exactly.
/// Every surviving document is scored by accumulating score_contribution
/// in lexicographic term order from 0.0 and multiplying by its length norm
/// once — bitwise the exhaustive path's arithmetic — and every skip
/// decision compares an inflated upper bound *strictly* against the
/// threshold, so no document the exhaustive path would keep is ever
/// dropped (rank safety; the property test pins byte-identity).
void pruned_base_scan(const index::EpochSnapshot& snap, std::size_t k, RankScratch& s,
                      PruneStats* stats) {
  const CompressedIndex& ci = *snap.base();
  const std::size_t m = s.cursors.size();
  if (m == 0 || k == 0) return;

  // MaxScore order: cursor indices by descending upper bound. tail_ub[i] is
  // the combined bound of the i-th..last lists in that order.
  s.by_ub.resize(m);
  for (std::size_t i = 0; i < m; ++i) s.by_ub[i] = static_cast<std::uint32_t>(i);
  std::sort(s.by_ub.begin(), s.by_ub.end(), [&s](std::uint32_t a, std::uint32_t b) {
    if (s.cursors[a].ub != s.cursors[b].ub) return s.cursors[a].ub > s.cursors[b].ub;
    return a < b;
  });
  s.tail_ub.assign(m + 1, 0.0);
  s.tail_wub.assign(m + 1, 0.0);
  for (std::size_t i = m; i-- > 0;) {
    s.tail_ub[i] = s.tail_ub[i + 1] + s.cursors[s.by_ub[i]].ub;
    s.tail_wub[i] = s.tail_wub[i + 1] + s.cursors[s.by_ub[i]].wub;
  }

  // Essential lists: by_ub[0..ne_start). The non-essential suffix's combined
  // bound sits strictly below the threshold, so a document matching only
  // non-essential terms can never enter the heap — candidates are drawn
  // from essential lists only. The threshold never decreases, so ne_start
  // only ever moves left (refined from its previous value).
  std::size_t ne_start = m;
  auto refresh_partition = [&]() {
    if (s.heap.size() < k) return;
    const double theta = s.heap.front().score;
    while (ne_start > 0 && s.tail_ub[ne_start - 1] < theta) --ne_start;
  };
  refresh_partition();

  // Theta warm-up. The main scan meets candidates in ascending dense
  // order, so with a cold heap the first k enter uncontested and the
  // bounds only start cutting once the threshold has risen — by which
  // point a hot essential list is half decoded. Spend a few blocks up
  // front instead: round r walks the best block of the r-th-highest-ub
  // list on *copies* of the cursors and scores its documents exactly
  // (same lex-order arithmetic). Each round seeds the heap with near-final
  // scores, raising the threshold and often demoting the next list to
  // non-essential — rounds stop as soon as the partition has shrunk past
  // the round's list, so pass 1 usually folds a single list. Every dense
  // id a warmed block holds is recorded (sorted, deduplicated) and skipped
  // by the main scan — each was either offered exactly, abandoned under a
  // valid bound, or tombstoned, and the heap holds no duplicates, so
  // byte-identity is preserved.
  s.warm.clear();
  s.warm_pos = 0;
  if (k > 0) {
    constexpr std::size_t kMaxWarmRounds = 4;
    std::size_t sorted_end = 0;  // s.warm[0..sorted_end) is sorted (prior rounds)
    for (std::size_t r = 0; r < m && r < kMaxWarmRounds; ++r) {
      // Once the r-th list is already non-essential, further rounds only
      // nudge theta without shrinking pass 1 — not worth their blocks.
      if (ne_start <= r) break;
      const std::size_t ne_before = ne_start;
      // Fresh copies per round: block dense ranges of different lists may
      // overlap, and the probe/eval cursors only ever seek forward.
      s.warm_cursors.assign(s.cursors.begin(), s.cursors.end());
      index::CompressedIndex::PostingCursor& c0 = s.warm_cursors[s.by_ub[r]].cur;
      std::uint32_t bstar = 0;
      for (std::uint32_t b = 1; b < c0.num_blocks(); ++b) {
        if (c0.block_max(b) > c0.block_max(bstar)) bstar = b;
      }
      if (bstar > 0) c0.seek_to(c0.block_last(bstar - 1) + 1);
      for (; !c0.done() && c0.current_block() == bstar; c0.next()) {
        const std::uint32_t dw = c0.dense();
        // Already offered (or abandoned under a valid bound) by an earlier
        // round's block — a document is never offered twice.
        if (std::binary_search(s.warm.begin(), s.warm.begin() + sorted_end, dw)) continue;
        s.warm.push_back(dw);
        if (snap.base_dead(ci.doc_at(dw))) continue;
        const double norm = ci.doc_norm_at(dw);
        if (s.heap.size() >= k) {
          // Zero-decode norm-aware screen, same bounds as the main scan's
          // tier 2: exact contributions where a cursor already sits on dw,
          // the block's max-frequency weight where it lags — all pre-norm,
          // multiplied once by dw's own (exact) length norm.
          const double theta = s.heap.front().score;
          double bound = 0.0;  // normalized domain
          for (std::size_t i = 0; i < m; ++i) {
            const PrunedCursor& c = s.warm_cursors[i];
            if (c.cur.direct()) {
              bound += score_contribution_memo(c.cur.freq_at(dw), c.weight) * norm;
              continue;
            }
            if (c.cur.done()) continue;
            const std::uint32_t at = c.cur.dense();
            if (at == dw) {
              bound += score_contribution_memo(c.cur.term_freq(), c.weight) * norm;
            } else if (at < dw) {
              const std::uint32_t b = c.cur.find_block(dw);
              if (b == c.cur.num_blocks()) continue;
              // Two valid per-block bounds: the block max contribution (norm
              // of the block's best doc folded in) and the block max
              // frequency at *this* candidate's norm. Whichever is tighter.
              bound += std::min(c.cur.block_max(b) * c.weight,
                                doc_weight_memo(c.cur.block_max_freq(b)) * c.weight * norm);
            }
          }
          if (bound * kBoundSlack < theta) {
            if (stats) ++stats->docs_abandoned;
            continue;
          }
        }
        double sum = 0.0;  // exact lex-order accumulation, as everywhere
        for (std::size_t i = 0; i < m; ++i) {
          PrunedCursor& c = s.warm_cursors[i];
          if (c.cur.direct()) {
            sum += score_contribution_memo(c.cur.freq_at(dw), c.weight);
            continue;
          }
          if (c.cur.done()) continue;
          if (c.cur.dense() < dw) {
            c.cur.seek_to(dw);
            if (c.cur.done() || c.cur.dense() != dw) continue;
          } else if (c.cur.dense() > dw) {
            continue;
          }
          sum += score_contribution_memo(c.cur.term_freq(), c.weight);
        }
        if (stats) ++stats->docs_evaluated;
        if (heap_offer(s.heap, k, ScoredDoc{ci.doc_at(dw), sum * norm})) refresh_partition();
      }
      if (stats) {
        for (std::size_t i = 0; i < m; ++i) {
          stats->postings_decoded +=
              s.warm_cursors[i].cur.postings_decoded() - s.cursors[i].cur.postings_decoded();
          stats->blocks_skipped +=
              s.warm_cursors[i].cur.blocks_jumped() - s.cursors[i].cur.blocks_jumped();
        }
      }
      std::inplace_merge(s.warm.begin(), s.warm.begin() + sorted_end, s.warm.end());
      sorted_end = s.warm.size();
      (void)ne_before;
    }
  }

  // Freeze the partition for the scan: the screen below charges exactly
  // the lists pass 1 leaves out, even as theta keeps rising.
  const std::size_t ne = ne_start;
  const double ne_bound = s.tail_ub[ne];    // norm folded in (worst-case doc)
  const double ne_wbound = s.tail_wub[ne];  // pre-norm (candidate's own norm)

  // Pass 1 — term-at-a-time over the essential lists only (Turtle &
  // Flood's original MaxScore organization) — *except* the largest
  // essential list, the "stream" list. Folding it into the accumulator
  // would materialize every one of its postings as a candidate slot, only
  // for the scan below to re-read each through another cache round-trip;
  // instead its postings are screened inline as they decode, interleaved
  // (in ascending dense order, so survivor probes stay forward-only) with
  // the candidates the smaller essential lists accumulated. A document
  // matching only non-essential lists is bounded by ne_bound < theta, so
  // it can never enter the heap — candidates are exactly {accumulated
  // slots} ∪ {stream postings}.
  s.ess.assign(m, 0);
  for (std::size_t j = 0; j < ne; ++j) s.ess[s.by_ub[j]] = 1;
  std::size_t stream = m;
  for (std::size_t j = 0; j < ne; ++j) {
    const std::uint32_t i = s.by_ub[j];
    if (stream == m || s.cursors[i].cur.size() > s.cursors[stream].cur.size()) stream = i;
  }
  // Survivors are re-scored exactly from untouched cursor copies; pass 1
  // and the stream consume the originals.
  s.eval_cursors.assign(s.cursors.begin(), s.cursors.end());
  std::uint64_t eval_dec0 = 0;
  std::uint64_t eval_jmp0 = 0;
  for (const PrunedCursor& c : s.eval_cursors) {
    eval_dec0 += c.cur.postings_decoded();
    eval_jmp0 += c.cur.blocks_jumped();
  }
  // With a single essential list everything streams: no accumulator (or
  // clearing) needed at all.
  const bool have_acc = ne > 1;
  const std::uint32_t nwords = (static_cast<std::uint32_t>(ci.num_documents()) + 63) / 64;
  if (have_acc) {
    s.acc.assign(ci.num_documents(), 0.0);
    s.bm.assign(nwords, 0);  // touched-slot bitmap, drained in dense order
  }
  const bool can_skip_blocks = s.heap.size() >= k;
  const double theta0 = can_skip_blocks ? s.heap.front().score : 0.0;
  s.ess_idx.clear();
  for (std::size_t j = 0; j < ne; ++j) s.ess_idx.push_back(s.by_ub[j]);
  for (std::size_t i = 0; i < m; ++i) {
    if (!s.ess[i] || i == stream) continue;
    PrunedCursor& c = s.cursors[i];
    // Per-block viability, even for essential lists: a document inside
    // block b of this list scores at most the block's own max contribution,
    // plus — for every *other* essential list — the largest block max among
    // that list's blocks intersecting b's dense range (the document, if
    // present there at all, sits in one of them), plus the non-essential
    // tail bound. When that total sits below the warm threshold the whole
    // block is globally dead — no membership pattern across other lists
    // can rescue any of its documents — so pass 1 skips it without
    // decoding. theta never decreases after the warm-up, so the decision
    // stays valid for the rest of the query. Documents in skipped blocks
    // may still be touched through another list's viable block with a
    // partial accumulator; the screens below may then under-estimate
    // them, but abandoning a globally-dead document is sound no matter
    // what bound the screen used, and exact evaluation always re-scores
    // survivors from fresh cursors.
    s.blk_ptr.assign(m, 0);  // per-other-list range pointer, advances with b
    std::uint32_t b = c.cur.current_block();
    const std::uint32_t nb = c.cur.num_blocks();
    while (!c.cur.done()) {
      if (can_skip_blocks) {
        std::uint32_t vb = b;
        for (; vb < nb; ++vb) {
          const std::uint32_t lo = vb == 0 ? 0 : c.cur.block_last(vb - 1) + 1;
          const std::uint32_t hi = c.cur.block_last(vb);
          double cover = s.tail_ub[ne];
          for (const std::uint32_t o : s.ess_idx) {
            if (o == i) continue;
            // Skip-table-only range max; the pointer never rewinds because
            // lo grows with vb. Positions of consumed cursors don't matter
            // — block metadata is position-independent.
            const auto& oc = s.cursors[o].cur;
            std::uint32_t& p = s.blk_ptr[o];
            const std::uint32_t onb = oc.num_blocks();
            while (p < onb && oc.block_last(p) < lo) ++p;
            double mx = 0.0;
            for (std::uint32_t q = p; q < onb; ++q) {
              if ((q == 0 ? 0 : oc.block_last(q - 1) + 1) > hi) break;
              mx = std::max(mx, oc.block_max(q));
            }
            cover += mx * s.cursors[o].weight * kBoundSlack;
          }
          if ((c.cur.block_max(vb) * c.weight + cover) * kBoundSlack >= theta0) break;
        }
        if (vb == nb) break;  // remainder of the list is globally dead
        if (vb != b) {
          c.cur.seek_to(c.cur.block_last(vb - 1) + 1);
          b = vb;
          if (c.cur.done()) break;
        }
      }
      for (; !c.cur.done() && c.cur.current_block() == b; c.cur.next()) {
        const std::uint32_t slot = c.cur.dense();
        s.bm[slot >> 6] |= std::uint64_t{1} << (slot & 63);
        s.acc[slot] += score_contribution_memo(c.cur.term_freq(), c.weight);
      }
      ++b;
    }
  }

  // Non-essential probe order for the staged evaluation below: direct
  // lists first (O(1) probes that also refund their exact tier-2 bound),
  // then ascending document frequency, so the costliest cursor seeks are
  // reached only by candidates every cheaper list failed to kill.
  s.eval_order.clear();
  for (std::size_t j = ne; j < m; ++j) s.eval_order.push_back(s.by_ub[j]);
  std::sort(s.eval_order.begin(), s.eval_order.end(), [&s](std::uint32_t a, std::uint32_t b) {
    const bool da = s.cursors[a].cur.direct();
    const bool db = s.cursors[b].cur.direct();
    if (da != db) return da;
    if (s.cursors[a].cur.size() != s.cursors[b].cur.size()) {
      return s.cursors[a].cur.size() < s.cursors[b].cur.size();
    }
    return a < b;
  });
  s.lb.assign(m, 0.0);

  // Pass 2 — visit every candidate in ascending dense order (the survivor
  // probes seek forward-only), screening each against the live threshold
  // before paying for an exact evaluation. \p known is the candidate's
  // partial essential sum (accumulated lists plus its stream contribution);
  // \p sfreq its stream-list term frequency (0 = not a stream posting).
  auto visit = [&](std::uint32_t slot, double known, std::uint32_t sfreq) {
    // Slots the warm-up blocks already accounted for: scored exactly (in
    // the heap if they rank) or abandoned under a valid bound — a
    // document is never offered twice.
    while (s.warm_pos < s.warm.size() && s.warm[s.warm_pos] < slot) ++s.warm_pos;
    if (s.warm_pos < s.warm.size() && s.warm[s.warm_pos] == slot) return;
    const double norm = ci.doc_norm_at(slot);
    bool bounded = false;
    double theta = 0.0;
    double cur = 0.0;  // live upper bound on the score, normalized domain
    if (s.heap.size() >= k) {
      theta = s.heap.front().score;
      // Rank-safe: the slot's essential partial sum re-associates within
      // kBoundSlack of the exact lex-order sum, and the non-essential
      // suffix contributes at most doc_weight(list max freq) * weight per
      // list — all pre-norm, multiplied once by the candidate's *exact*
      // length norm. That norm-awareness is the screen's teeth: the
      // norm-folded tail_ub charges every candidate with the corpus's
      // shortest document, this charges each with its own — tighter for
      // long documents; tail_ub stays tighter for short ones, so the
      // screen abandons on whichever bound falls below theta. (tail_ub
      // alone still covers documents pass 1 never touched — their norm is
      // unknown, see the partition above.) Strict <, so ties survive.
      const double screened = known * norm * kBoundSlack;
      if (screened + ne_bound < theta || screened + ne_wbound * norm * kBoundSlack < theta) {
        if (stats) ++stats->docs_abandoned;
        return;
      }
      if (ne < m) {
        // Tier-2 screen, still zero-decode: a bursty posting somewhere in
        // a non-essential list keeps its list-level bound loose, but the
        // block that could actually hold this slot is bounded by its own
        // (usually much smaller) block max frequency — a pure skip-entry
        // lookup — and a direct list answers with its *exact* contribution
        // in O(1). Refining every non-essential bound *before* any block
        // is decoded keeps survivor probes from dragging whole hot lists
        // through the decoder. Each list's bound is kept for the staged
        // evaluation below, which refunds it as probes turn exact.
        bounded = true;
        cur = known * norm;  // normalized domain
        for (std::size_t j = ne; j < m; ++j) {
          const std::uint32_t i = s.by_ub[j];
          const PrunedCursor& c = s.eval_cursors[i];
          double b_i = 0.0;
          if (c.cur.direct()) {
            b_i = score_contribution_memo(c.cur.freq_at(slot), c.weight) * norm;
          } else if (!c.cur.done()) {
            const std::uint32_t at = c.cur.dense();
            if (at == slot) {
              b_i = score_contribution_memo(c.cur.term_freq(), c.weight) * norm;
            } else if (at < slot) {
              const std::uint32_t b = c.cur.find_block(slot);
              if (b != c.cur.num_blocks()) {
                // Tighter of the block's two bounds (see the warm-up screen).
                b_i = std::min(c.cur.block_max(b) * c.weight,
                               doc_weight_memo(c.cur.block_max_freq(b)) * c.weight * norm);
              }
            }
          }
          s.lb[i] = b_i;
          cur += b_i;
        }
        if (cur * kBoundSlack < theta) {
          if (stats) {
            ++stats->docs_abandoned;
            ++stats->blocks_skipped;
          }
          return;
        }
      }
    }
    // Tombstones are only consulted for candidates that survived every
    // screen: the screens are score-only (a dead document abandoned by a
    // bound was going to be dropped anyway), and the per-candidate doc-id
    // load + liveness probe is pure overhead for the ~97% the screens kill.
    if (snap.base_dead(ci.doc_at(slot))) return;
    // Staged exact evaluation. The reported score must accumulate every
    // matching list in global lexicographic order from 0.0, so exact
    // contributions are collected per cursor first and summed at the end —
    // the arithmetic is byte-identical to the exhaustive path no matter
    // what order the probes resolved in. Probe order: essential lists
    // first (their aggregate is already known, the probes mostly re-read
    // warm cursor positions or direct arrays), then non-essential lists
    // cheapest-first, replacing each tier-2 bound with the exact
    // contribution and re-checking theta — the huge head lists at the end
    // are only ever decoded for documents that are still alive.
    s.contrib.assign(m, 0.0);
    double exact_ess = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      if (!s.ess[i]) continue;
      if (i == stream) {
        // The stream posting's frequency arrived with the visit — exact,
        // no probe. sfreq == 0 means the candidate is not in the stream
        // list at all (term frequencies in postings are >= 1).
        const double ex = sfreq == 0
                              ? 0.0
                              : score_contribution_memo(sfreq, s.cursors[i].weight);
        s.contrib[i] = ex;
        exact_ess += ex;
        continue;
      }
      PrunedCursor& c = s.eval_cursors[i];
      double ex = 0.0;
      if (c.cur.direct()) {
        ex = score_contribution_memo(c.cur.freq_at(slot), c.weight);
      } else if (!c.cur.done()) {
        if (c.cur.dense() < slot) c.cur.seek_to(slot);
        if (!c.cur.done() && c.cur.dense() == slot) {
          ex = score_contribution_memo(c.cur.term_freq(), c.weight);
        }
      }
      s.contrib[i] = ex;
      exact_ess += ex;
    }
    if (bounded) {
      // known aggregated the same essential contributions (equal when the
      // accumulator is complete; smaller only for globally-dead documents
      // touched through a partial list, where growing the bound is sound).
      cur += (exact_ess - known) * norm;
      if (cur * kBoundSlack < theta) {
        if (stats) ++stats->docs_abandoned;
        return;
      }
    }
    for (const std::uint32_t i : s.eval_order) {
      PrunedCursor& c = s.eval_cursors[i];
      double ex = 0.0;
      if (c.cur.direct()) {
        ex = score_contribution_memo(c.cur.freq_at(slot), c.weight);
      } else if (!c.cur.done()) {
        if (c.cur.dense() < slot) c.cur.seek_to(slot);
        if (!c.cur.done() && c.cur.dense() == slot) {
          ex = score_contribution_memo(c.cur.term_freq(), c.weight);
        }
      }
      s.contrib[i] = ex;
      if (bounded) {
        cur += ex * norm - s.lb[i];
        if (cur * kBoundSlack < theta) {
          if (stats) ++stats->docs_abandoned;
          return;
        }
      }
    }
    double sum = 0.0;  // exact lex-order accumulation, as everywhere
    for (std::size_t i = 0; i < m; ++i) sum += s.contrib[i];
    if (stats) ++stats->docs_evaluated;
    heap_offer(s.heap, k, ScoredDoc{ci.doc_at(slot), sum * norm});
  };
  // Interleaved candidate driver. Accumulated slots are drained from the
  // bitmap (word-at-a-time, countr_zero per set bit — no sort, no dense
  // accumulator sweep) strictly ahead of the stream cursor, so the overall
  // visit order ascends and a slot in both sources is visited exactly once,
  // with its stream contribution folded in.
  std::uint32_t dwd = 0;
  std::uint64_t wbits = have_acc && nwords > 0 ? s.bm[0] : 0;
  auto drain_below = [&](std::uint32_t limit) {
    if (!have_acc) return;
    while (true) {
      while (wbits == 0) {
        if (++dwd >= nwords) return;
        wbits = s.bm[dwd];
      }
      const std::uint32_t u = dwd * 64 + static_cast<std::uint32_t>(std::countr_zero(wbits));
      if (u >= limit) return;
      wbits &= wbits - 1;
      visit(u, s.acc[u], 0);
    }
  };
  if (stream != m) {
    PrunedCursor& c = s.cursors[stream];
    s.blk_ptr.assign(m, 0);
    std::uint32_t b = c.cur.current_block();
    const std::uint32_t nb = c.cur.num_blocks();
    while (!c.cur.done()) {
      // Same per-block global viability as pass 1, but against the *live*
      // threshold — streaming raises theta as it goes, so late blocks face
      // a stricter test than theta0 (sound: theta never decreases). A
      // skipped block's accumulated slots still drain below; their screens
      // use a partial sum, which only under-estimates globally-dead
      // documents — abandoning those is sound under any bound.
      if (s.heap.size() >= k) {
        const double th = s.heap.front().score;
        std::uint32_t vb = b;
        for (; vb < nb; ++vb) {
          const std::uint32_t lo = vb == 0 ? 0 : c.cur.block_last(vb - 1) + 1;
          const std::uint32_t hi = c.cur.block_last(vb);
          double cover = s.tail_ub[ne];
          for (const std::uint32_t o : s.ess_idx) {
            if (o == stream) continue;
            const auto& oc = s.cursors[o].cur;
            std::uint32_t& p = s.blk_ptr[o];
            const std::uint32_t onb = oc.num_blocks();
            while (p < onb && oc.block_last(p) < lo) ++p;
            double mx = 0.0;
            for (std::uint32_t q = p; q < onb; ++q) {
              if ((q == 0 ? 0 : oc.block_last(q - 1) + 1) > hi) break;
              mx = std::max(mx, oc.block_max(q));
            }
            cover += mx * s.cursors[o].weight * kBoundSlack;
          }
          if ((c.cur.block_max(vb) * c.weight + cover) * kBoundSlack >= th) break;
        }
        if (vb == nb) break;  // remainder of the stream is globally dead
        if (vb != b) {
          c.cur.seek_to(c.cur.block_last(vb - 1) + 1);
          b = vb;
          if (c.cur.done()) break;
        }
      }
      for (; !c.cur.done() && c.cur.current_block() == b; c.cur.next()) {
        const std::uint32_t slot = c.cur.dense();
        drain_below(slot);
        // The slot may also be accumulated — consume its bit so the drain
        // never re-visits it.
        if (dwd == (slot >> 6)) wbits &= ~(std::uint64_t{1} << (slot & 63));
        const std::uint32_t f = c.cur.term_freq();
        const double prior = have_acc ? s.acc[slot] : 0.0;
        visit(slot, prior + score_contribution_memo(f, c.weight), f);
      }
      ++b;
    }
  }
  drain_below(std::numeric_limits<std::uint32_t>::max());

  if (stats) {
    for (const PrunedCursor& c : s.cursors) {
      stats->postings_decoded += c.cur.postings_decoded();
      stats->blocks_skipped += c.cur.blocks_jumped();
    }
    for (const PrunedCursor& c : s.eval_cursors) {
      stats->postings_decoded += c.cur.postings_decoded();
      stats->blocks_skipped += c.cur.blocks_jumped();
    }
    stats->postings_decoded -= eval_dec0;
    stats->blocks_skipped -= eval_jmp0;
  }
}

/// The driver's core, shared by both entry points. On entry s.weighted
/// holds the query's positive (term, weight) pairs in lexicographic order,
/// and s.cursors one base cursor per weighted term the base holds, in the
/// same order, whose lists total \p base_postings. Prunes over a qualifying
/// base; otherwise scores exhaustively.
std::vector<ScoredDoc> rank_prepared(const index::EpochSnapshot& snap, std::size_t k,
                                     std::uint64_t base_postings, RankScratch& s,
                                     PruneStats* stats) {
  if (k == 0) return {};
  const CompressedIndex* base = snap.base();
  if (base == nullptr || k >= snap.num_documents() || base_postings < kMinPrunedPostings ||
      base->num_documents() < kMinPrunedDocs) {
    // Fallback matrix (docs/INDEX.md): no merged base yet, k covers the
    // whole live corpus, or too few base postings to pay for pruning.
    if (stats) ++stats->prune_fallbacks;
    accumulate_snapshot(snap, s);
    return select_top_k(s.touched, k, [&](std::uint32_t slot) {
      return snapshot_scored_at(snap, slot, s.acc[slot]);
    });
  }
  if (stats) ++stats->pruned_queries;

  // Pending segments are scored exhaustively (they are small by the folding
  // policy and carry no block metadata) with the exact snapshot arithmetic,
  // seeding the heap; the base is then scanned pruned. Every live document
  // lives entirely in the base or in exactly one segment occurrence, and
  // ranks_before is a strict total order, so merging through the shared
  // heap reproduces the exhaustive ranking byte for byte.
  const std::uint32_t base_slots = static_cast<std::uint32_t>(base->num_documents());
  s.acc.assign(snap.slot_count() - base_slots, 0.0);
  s.touched.clear();
  for (const auto& [term, weight] : s.weighted) {
    const double w = weight;
    snap.for_each_segment_posting(term,
                                  [&s, base_slots, w](std::uint32_t slot, std::uint32_t freq) {
                                    const std::uint32_t rel = slot - base_slots;
                                    if (s.acc[rel] == 0.0) s.touched.push_back(rel);
                                    s.acc[rel] += score_contribution_memo(freq, w);
                                  });
  }
  s.heap.clear();
  for (const std::uint32_t rel : s.touched) {
    const std::uint32_t slot = base_slots + rel;
    heap_offer(s.heap, k, snapshot_scored_at(snap, slot, s.acc[rel]));
  }

  pruned_base_scan(snap, k, s, stats);
  std::vector<ScoredDoc> out(s.heap.begin(), s.heap.end());
  std::sort(out.begin(), out.end(), ranks_before);
  return out;
}

}  // namespace

std::vector<ScoredDoc> score_documents(
    const index::InvertedIndex& idx,
    const std::unordered_map<std::string, double>& term_weights) {
  RankScratch& s = scratch();
  // Canonical accumulation order: lexicographic by term.
  s.weighted.clear();
  s.weighted.reserve(term_weights.size());
  for (const auto& [term, weight] : term_weights) s.weighted.emplace_back(term, weight);
  std::sort(s.weighted.begin(), s.weighted.end());

  s.resolved.entries.clear();
  for (const auto& [term, weight] : s.weighted) {
    const double w = weight;
    resolve_term(idx, term, s.resolved, [&](TermId) { return w; });
  }

  accumulate(idx, s.resolved, s.acc, s.touched);

  std::vector<ScoredDoc> out;
  out.reserve(s.touched.size());
  for (const std::uint32_t slot : s.touched) {
    out.push_back(scored_at(idx, slot, s.acc[slot]));
  }
  std::sort(out.begin(), out.end(), ranks_before);
  return out;
}

std::unordered_map<std::string, double> TfIdfRanker::idf_weights(
    const std::vector<std::string>& terms) const {
  std::unordered_map<std::string, double> weights;
  for (const std::string& t : terms) {
    if (weights.contains(t)) continue;
    weights.emplace(t, idf(index_->num_documents(), index_->collection_frequency(t)));
  }
  return weights;
}

std::vector<ScoredDoc> TfIdfRanker::top_k(const std::vector<std::string>& terms,
                                          std::size_t k) const {
  if (k == 0) return {};
  const InvertedIndex& idx = *index_;
  RankScratch& s = scratch();
  // Same canonical lexicographic order as score_documents, so the heap path
  // scores every document bitwise identically to the sort path.
  s.sorted_terms.assign(terms.begin(), terms.end());
  std::sort(s.sorted_terms.begin(), s.sorted_terms.end());
  s.sorted_terms.erase(std::unique(s.sorted_terms.begin(), s.sorted_terms.end()),
                       s.sorted_terms.end());

  s.resolved.entries.clear();
  for (const std::string_view term : s.sorted_terms) {
    resolve_term(idx, term, s.resolved, [&](TermId id) {
      return idf(idx.num_documents(), idx.collection_frequency_by_id(id));
    });
  }

  accumulate(idx, s.resolved, s.acc, s.touched);
  return select_top_k(s.touched, k,
                      [&](std::uint32_t slot) { return scored_at(idx, slot, s.acc[slot]); });
}

std::vector<ScoredDoc> top_k(const index::EpochSnapshot& snap,
                             const std::unordered_map<std::string, double>& term_weights,
                             std::size_t k, PruneStats* stats) {
  RankScratch& s = scratch();
  sort_weighted_terms(term_weights, s.weighted);
  s.cursors.clear();
  std::uint64_t base_postings = 0;
  if (const CompressedIndex* base = snap.base()) {
    for (const auto& [term, weight] : s.weighted) {
      auto cur = base->postings(term);
      if (cur.done()) continue;
      base_postings += cur.size();
      s.cursors.push_back(make_pruned_cursor(std::move(cur), weight));
    }
  }
  return rank_prepared(snap, k, base_postings, s, stats);
}

std::unordered_map<std::string, double> SnapshotRanker::idf_weights(
    const std::vector<std::string>& terms) const {
  std::unordered_map<std::string, double> weights;
  for (const std::string& t : terms) {
    if (weights.contains(t)) continue;
    weights.emplace(t, idf(snap_->num_documents(), snap_->collection_frequency(t)));
  }
  return weights;
}

std::vector<ScoredDoc> SnapshotRanker::top_k(const std::vector<std::string>& terms,
                                             std::size_t k, PruneStats* stats) const {
  const index::EpochSnapshot& snap = *snap_;
  RankScratch& s = scratch();
  // Canonical lexicographic order, with IDF inputs from the snapshot's
  // exact live statistics.
  s.sorted_terms.assign(terms.begin(), terms.end());
  std::sort(s.sorted_terms.begin(), s.sorted_terms.end());
  s.sorted_terms.erase(std::unique(s.sorted_terms.begin(), s.sorted_terms.end()),
                       s.sorted_terms.end());

  // Weights and base cursors in one pass: each term probes the base once,
  // and its cursor carries the base's collection frequency, to which the
  // snapshot adds its pending segments and tombstones.
  const CompressedIndex* base = snap.base();
  const std::size_t live = snap.num_documents();
  s.weighted.clear();
  s.cursors.clear();
  std::uint64_t base_postings = 0;
  for (const std::string_view term : s.sorted_terms) {
    if (base == nullptr) {
      const double weight = idf(live, snap.collection_frequency(term));
      if (weight > 0.0) s.weighted.emplace_back(term, weight);
      continue;
    }
    auto cur = base->postings(term);
    const double weight = idf(live, snap.collection_frequency(term, cur.collection_freq()));
    if (weight <= 0.0) continue;
    s.weighted.emplace_back(term, weight);
    if (cur.done()) continue;
    base_postings += cur.size();
    s.cursors.push_back(make_pruned_cursor(std::move(cur), weight));
  }
  return rank_prepared(snap, k, base_postings, s, stats);
}

void truncate_top_k(std::vector<ScoredDoc>& docs, std::size_t k) {
  if (docs.size() > k) docs.resize(k);
}

}  // namespace planetp::search
