/// \file index_throughput.cpp
/// Local indexing & ranking hot path (docs/INDEX.md): a synthetic Zipf
/// corpus indexed and ranked with eq. 2, comparing
///   legacy   — the pre-dictionary cost model, reconstructed from the same
///              public primitives the old code used: tokenize into a
///              std::vector<std::string>, per-token stop-word check + Porter
///              stem on fresh strings, an unordered_map<string, uint32>
///              frequency map, a string-keyed postings index, Bloom inserts
///              that re-hash every term string, and query evaluation into a
///              DocumentId-keyed hash map followed by a full sort,
///   interned — the InvertedIndex + TfIdfRanker reference the identity
///              tests rank against (neither a peer's path nor the §7.3
///              baseline's, which both rank epoch snapshots through the
///              top-k driver): Analyzer::for_each_term streaming through an
///              AnalyzerScratch into the interned term dictionary,
///              TermCounts + InvertedIndex::add_document_counts, Bloom fed
///              from the dictionary's pre-computed hashes, and
///              TfIdfRanker::top_k's dense accumulator + bounded heap.
/// Both sides consume pre-extracted text (XML parsing excluded — it is
/// identical work on either path). A third measurement times a peer's own
/// write path: a DataStore::publish loop over the full XML envelope
/// (reported, not gated).
///
/// Reports publish docs/sec, ranked-eval queries/sec with p50/p99 latency,
/// and heap allocations per op (counted by this TU's operator new). Emits
/// BENCH_index_throughput.json.
///
/// A fourth measurement covers the block-max pruned top-k driver that every
/// peer contact and the §7.3 baseline rank through (docs/INDEX.md
/// "Block-max pruning"): the same queries ranked by SnapshotRanker over the
/// DataStore above, compacted into one block-structured base before the
/// clock starts, at k = 10 and k = 100, for short (2-5 term) and long
/// (6-10 term) queries. Rank safety is asserted in-run: every pruned result
/// must be byte-identical (score bits, documents, tie-breaks) to the
/// exhaustive reference. Below the driver's document floor every query
/// falls back to exhaustive scoring; such rows are printed as fallback
/// measurements and write no pruned_speedup_* fields.
///
/// Gates:
///   1. interned eval must rank the same documents as legacy eval (sanity);
///   2. combined speedup (geomean of publish and eval) must be >= 3x at the
///      largest corpus;
///   3. pruned eval must be byte-identical to exhaustive eval for every
///      query and k, must actually skip blocks (blocks_skipped > 0), and at
///      the largest corpus pruned qps (short queries, k = 10) must be >= 3x
///      the exhaustive eval qps;
///   4. with --baseline <json>, interned publish docs/sec, eval qps and
///      pruned eval qps must stay above half the recorded baseline
///      (scripts/check.sh wires this to bench/baselines/index_throughput.json).
/// Usage: index_throughput [--quick] [--baseline <file>]

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/baseline.hpp"
#include "bloom/counting_bloom.hpp"
#include "index/data_store.hpp"
#include "index/inverted_index.hpp"
#include "search/ranker.hpp"
#include "search/vector_model.hpp"
#include "text/analyzer.hpp"
#include "text/porter_stemmer.hpp"
#include "text/stopwords.hpp"
#include "text/tokenizer.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

// ---------------------------------------------------------------------------
// Allocation counter: every throwing/sized/array operator new in the process
// funnels through here (this TU's definitions replace the library's), so the
// delta across a timed window counts real heap allocations on the indexing
// path. Aligned variants keep their default definitions; plain delete always
// pairs with plain new, so free() is the right inverse.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace planetp;
using namespace planetp::index;
using planetp::search::ScoredDoc;

namespace {

double wall_now_s() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count()) /
         1e9;
}

// ---------------------------------------------------------------------------
// Synthetic corpus: Zipf term popularity over a generated vocabulary whose
// words carry realistic suffixes so the stemmer does real work.
// ---------------------------------------------------------------------------

std::vector<std::string> make_vocabulary(std::size_t size, Rng& rng) {
  static const char* const kSuffixes[] = {"", "", "", "s", "ing", "ed", "ation", "ly"};
  std::vector<std::string> vocab;
  vocab.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    std::string w;
    const std::size_t stem_len = 4 + rng.below(6);
    for (std::size_t c = 0; c < stem_len; ++c) {
      w.push_back(static_cast<char>('a' + rng.below(26)));
    }
    w += kSuffixes[rng.below(sizeof(kSuffixes) / sizeof(kSuffixes[0]))];
    vocab.push_back(std::move(w));
  }
  return vocab;
}

/// Documents carry two properties of real text that flat synthetic corpora
/// miss and that the pruned rows below depend on: heavy-tailed lengths
/// (log-uniform, ~30..960 words — real collections span orders of
/// magnitude) and bursty term repetition (a quarter of tokens repeat a
/// word the document already used, Simon's rich-get-richer process). Both
/// spread the per-posting score contributions w_{D,t}/sqrt(|D|), so block
/// maxima discriminate between blocks instead of sitting flat at the
/// list-level bound.
std::vector<std::string> make_corpus(std::size_t docs, const std::vector<std::string>& vocab,
                                     const ZipfSampler& zipf, Rng& rng) {
  std::vector<std::string> out;
  out.reserve(docs);
  std::vector<std::uint32_t> emitted;
  for (std::size_t d = 0; d < docs; ++d) {
    const std::size_t base = std::size_t{30} << rng.below(5);
    const std::size_t words = base + rng.below(base);
    std::string text;
    text.reserve(words * 10);
    emitted.clear();
    for (std::size_t w = 0; w < words; ++w) {
      std::uint32_t rank;
      if (!emitted.empty() && rng.below(4) == 0) {
        rank = emitted[rng.below(emitted.size())];
      } else {
        rank = static_cast<std::uint32_t>(zipf.sample(rng));
      }
      emitted.push_back(rank);
      text += vocab[rank - 1];
      text.push_back(' ');
    }
    out.push_back(std::move(text));
  }
  return out;
}

/// Query terms are Zipf-drawn like the corpus itself, so queries mix
/// high-df head terms (the stop-word role a synthetic vocabulary gives its
/// first ranks) with discriminative tail terms — the shape MaxScore is
/// built for: the head lists' upper bounds are tiny, so they turn
/// non-essential almost immediately and candidates are generated from the
/// short tail lists alone.
std::vector<std::vector<std::string>> make_queries(std::size_t count,
                                                   const std::vector<std::string>& vocab,
                                                   const ZipfSampler& zipf, Rng& rng,
                                                   std::size_t min_terms = 2,
                                                   std::size_t max_terms = 5) {
  std::vector<std::vector<std::string>> out;
  out.reserve(count);
  for (std::size_t q = 0; q < count; ++q) {
    std::vector<std::string> terms;
    const std::size_t n = min_terms + rng.below(max_terms - min_terms + 1);
    for (std::size_t t = 0; t < n; ++t) terms.push_back(vocab[zipf.sample(rng) - 1]);
    out.push_back(std::move(terms));
  }
  return out;
}

bool bit_identical(const std::vector<ScoredDoc>& a, const std::vector<ScoredDoc>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc != b[i].doc ||
        std::bit_cast<std::uint64_t>(a[i].score) != std::bit_cast<std::uint64_t>(b[i].score)) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Legacy cost model: the string-keyed pipeline this PR replaced, rebuilt from
// the same public primitives so the comparison measures data-structure and
// allocation discipline, not algorithmic differences.
// ---------------------------------------------------------------------------

/// Old Analyzer::term_frequencies: analyze into a term vector (one string per
/// token), then aggregate into a fresh hash map.
std::unordered_map<std::string, std::uint32_t> legacy_term_frequencies(const std::string& text) {
  const std::vector<std::string> tokens = text::tokenize(text);
  std::vector<std::string> terms;
  terms.reserve(tokens.size());
  for (const std::string& tok : tokens) {
    if (text::is_stopword(tok)) continue;
    std::string stemmed = tok;
    text::porter_stem(stemmed);
    if (text::is_stopword(stemmed)) continue;
    terms.push_back(std::move(stemmed));
  }
  std::unordered_map<std::string, std::uint32_t> freqs;
  for (const std::string& t : terms) ++freqs[t];
  return freqs;
}

/// Old string-keyed index shape: postings and statistics behind string hash
/// maps, document lengths behind a DocumentId hash map.
struct LegacyIndex {
  std::unordered_map<std::string, std::vector<Posting>> postings;
  std::unordered_map<std::string, std::uint64_t> collection_freq;
  std::unordered_map<DocumentId, std::uint32_t, DocumentIdHash> doc_lengths;
  std::size_t num_docs = 0;

  void add_document(DocumentId doc,
                    const std::unordered_map<std::string, std::uint32_t>& freqs) {
    std::uint32_t length = 0;
    for (const auto& [term, freq] : freqs) {
      postings[term].push_back(Posting{doc, freq});
      collection_freq[term] += freq;
      length += freq;
    }
    doc_lengths.emplace(doc, length);
    ++num_docs;
  }
};

/// Old eq. 2 evaluation: DocumentId-keyed accumulator map, then a full sort
/// of every matched document before truncating to k.
std::vector<ScoredDoc> legacy_top_k(const LegacyIndex& idx,
                                    const std::vector<std::string>& query_terms,
                                    std::size_t k) {
  std::unordered_map<std::string, double> weights;
  for (const std::string& raw : query_terms) {
    std::string t = raw;
    text::porter_stem(t);
    if (weights.contains(t)) continue;
    auto it = idx.collection_freq.find(t);
    const std::uint64_t cf = it == idx.collection_freq.end() ? 0 : it->second;
    weights.emplace(std::move(t), search::idf(idx.num_docs, cf));
  }
  std::unordered_map<DocumentId, double, DocumentIdHash> acc;
  for (const auto& [term, weight] : weights) {
    if (weight <= 0.0) continue;
    auto it = idx.postings.find(term);
    if (it == idx.postings.end()) continue;
    for (const Posting& p : it->second) {
      acc[p.doc] += search::doc_weight(p.term_freq) * weight;
    }
  }
  std::vector<ScoredDoc> out;
  out.reserve(acc.size());
  for (const auto& [doc, sum] : acc) {
    out.push_back(ScoredDoc{doc, sum * search::length_norm(idx.doc_lengths.at(doc))});
  }
  std::sort(out.begin(), out.end(), search::ranks_before);
  search::truncate_top_k(out, k);
  return out;
}

// ---------------------------------------------------------------------------
// Interned path: the InvertedIndex + TfIdfRanker reference on
// pre-extracted text.
// ---------------------------------------------------------------------------

struct InternedStore {
  InvertedIndex idx;
  bloom::CountingBloomFilter filter;
  text::AnalyzerScratch scratch;
  TermCounts counts;

  explicit InternedStore(bloom::BloomParams params) : filter(params) {}

  void publish(DocumentId id, const std::string& text, const text::Analyzer& analyzer) {
    counts.clear();
    analyzer.for_each_term(text, scratch,
                           [&](std::string_view term) { counts.add(idx.intern_term(term)); });
    idx.add_document_counts(id, counts);
    const TermDictionary& dict = idx.dictionary();
    for (const TermId term : counts.terms()) filter.insert(dict.hash(term));
  }
};

// ---------------------------------------------------------------------------
// Measurement plumbing.
// ---------------------------------------------------------------------------

struct OpStats {
  double wall_s = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t allocs = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;

  double per_sec() const { return wall_s > 0.0 ? static_cast<double>(ops) / wall_s : 0.0; }
  double allocs_per_op() const {
    return ops > 0 ? static_cast<double>(allocs) / static_cast<double>(ops) : 0.0;
  }
};

double percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const std::size_t at = static_cast<std::size_t>(p * static_cast<double>(sorted_us.size() - 1));
  return sorted_us[at];
}

/// Time a per-item loop, recording per-item latency and the alloc delta.
template <typename Fn>
OpStats timed_loop(std::size_t n, Fn&& fn) {
  std::vector<double> lat_us;
  lat_us.reserve(n);
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const double t0 = wall_now_s();
  for (std::size_t i = 0; i < n; ++i) {
    const double s = wall_now_s();
    fn(i);
    lat_us.push_back((wall_now_s() - s) * 1e6);
  }
  OpStats out;
  out.wall_s = wall_now_s() - t0;
  out.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  out.ops = n;
  std::sort(lat_us.begin(), lat_us.end());
  out.p50_us = percentile(lat_us, 0.50);
  out.p99_us = percentile(lat_us, 0.99);
  return out;
}

struct SizeResult {
  std::size_t docs = 0;
  std::size_t queries = 0;
  OpStats legacy_publish, interned_publish;
  OpStats legacy_eval, interned_eval;
  OpStats exhaustive_eval_k100, exhaustive_eval_long;
  OpStats pruned_eval_k10, pruned_eval_k100, pruned_eval_long;
  double publish_speedup = 0.0;
  double eval_speedup = 0.0;
  double combined_speedup = 0.0;
  double pruned_speedup_k10 = 0.0;
  double pruned_speedup_k100 = 0.0;
  double pruned_speedup_long = 0.0;
  search::PruneStats prune_stats;
  bool pruned_identical = true;
  double batch_seq_dps = 0.0;
  bool rankings_agree = true;
};

void print_op(const char* label, const OpStats& s, const char* unit) {
  std::printf("  %-18s %8.2f s   %9.0f %s   p50 %7.1f us   p99 %8.1f us   %7.1f allocs/op\n",
              label, s.wall_s, s.per_sec(), unit, s.p50_us, s.p99_us, s.allocs_per_op());
}

SizeResult run_size(std::size_t docs, std::size_t queries, std::size_t vocab_size) {
  SizeResult out;
  out.docs = docs;
  out.queries = queries;
  std::printf("%6zu docs, %zu queries, vocab %zu:\n", docs, queries, vocab_size);

  Rng rng(20260806);
  const std::vector<std::string> vocab = make_vocabulary(vocab_size, rng);
  const ZipfSampler zipf(vocab_size, 1.05);
  const std::vector<std::string> corpus = make_corpus(docs, vocab, zipf, rng);
  const auto query_set = make_queries(queries, vocab, zipf, rng);
  const bloom::BloomParams bloom_params{1u << 20, 4};
  constexpr std::size_t kTopK = 10;

  // --- legacy publish ---
  LegacyIndex legacy;
  bloom::CountingBloomFilter legacy_filter(bloom_params);
  out.legacy_publish = timed_loop(docs, [&](std::size_t i) {
    const auto freqs = legacy_term_frequencies(corpus[i]);
    legacy.add_document(DocumentId{1, static_cast<std::uint32_t>(i)}, freqs);
    for (const auto& [term, freq] : freqs) legacy_filter.insert(term);
  });
  print_op("legacy publish", out.legacy_publish, "docs/s ");

  // --- interned publish ---
  const text::Analyzer analyzer;
  InternedStore interned(bloom_params);
  out.interned_publish = timed_loop(docs, [&](std::size_t i) {
    interned.publish(DocumentId{1, static_cast<std::uint32_t>(i)}, corpus[i], analyzer);
  });
  print_op("interned publish", out.interned_publish, "docs/s ");

  // Pre-stem the query terms once for the interned side (the legacy side
  // stems inside the timed loop because that is what the old code did per
  // query; stemming 2-5 short words is noise either way).
  std::vector<std::vector<std::string>> stemmed_queries = query_set;
  for (auto& q : stemmed_queries) {
    for (auto& t : q) text::porter_stem(t);
  }

  // --- legacy eval ---
  std::uint64_t legacy_hits = 0;
  out.legacy_eval = timed_loop(queries, [&](std::size_t i) {
    legacy_hits += legacy_top_k(legacy, query_set[i], kTopK).size();
  });
  print_op("legacy eval", out.legacy_eval, "query/s");

  // --- interned eval ---
  const search::TfIdfRanker ranker(interned.idx);
  std::uint64_t interned_hits = 0;
  out.interned_eval = timed_loop(queries, [&](std::size_t i) {
    interned_hits += ranker.top_k(stemmed_queries[i], kTopK).size();
  });
  print_op("interned eval", out.interned_eval, "query/s");

  // Sanity: both paths rank the same documents. Scores can differ in final
  // ulps (different accumulation order), so compare the doc sets and the
  // score sums rather than exact per-rank equality.
  for (std::size_t i = 0; i < queries; ++i) {
    const auto a = legacy_top_k(legacy, query_set[i], kTopK);
    const auto b = ranker.top_k(stemmed_queries[i], kTopK);
    double sum_a = 0.0, sum_b = 0.0;
    for (const auto& d : a) sum_a += d.score;
    for (const auto& d : b) sum_b += d.score;
    if (a.size() != b.size() ||
        std::abs(sum_a - sum_b) > 1e-6 * std::max(1.0, std::abs(sum_a))) {
      out.rankings_agree = false;
      std::fprintf(stderr, "  ranking mismatch on query %zu: %zu docs (sum %.12f) vs %zu (%.12f)\n",
                   i, a.size(), sum_a, b.size(), sum_b);
      break;
    }
  }
  if (interned_hits != legacy_hits) out.rankings_agree = false;

  // --- DataStore publish loop (XML included): a peer's own write path ---
  DataStore store(1, bloom_params);
  {
    const double t0 = wall_now_s();
    for (std::size_t i = 0; i < docs; ++i) {
      store.publish(wrap_text_as_xml("doc" + std::to_string(i), corpus[i]));
    }
    out.batch_seq_dps = static_cast<double>(docs) / (wall_now_s() - t0);
  }
  std::printf("  DataStore publish (with XML): %.0f docs/s\n", out.batch_seq_dps);

  // --- pruned eval: SnapshotRanker over the compacted store ---
  // Long queries (6-10 terms) are the adversarial case for MaxScore: more
  // non-essential lists, weaker per-term bounds.
  auto long_queries = make_queries(queries, vocab, zipf, rng, 6, 10);
  for (auto& q : long_queries) {
    for (auto& t : q) text::porter_stem(t);
  }

  store.compact();
  const auto snap = store.snapshot();
  const search::SnapshotRanker pruned(*snap);

  std::uint64_t sink = 0;
  out.exhaustive_eval_k100 = timed_loop(queries, [&](std::size_t i) {
    sink += ranker.top_k(stemmed_queries[i], 100).size();
  });
  print_op("exhaust eval k100", out.exhaustive_eval_k100, "query/s");
  out.exhaustive_eval_long = timed_loop(queries, [&](std::size_t i) {
    sink += ranker.top_k(long_queries[i], kTopK).size();
  });
  print_op("exhaust eval long", out.exhaustive_eval_long, "query/s");

  search::PruneStats& ps = out.prune_stats;
  out.pruned_eval_k10 = timed_loop(queries, [&](std::size_t i) {
    sink += pruned.top_k(stemmed_queries[i], kTopK, &ps).size();
  });
  print_op("pruned eval k10", out.pruned_eval_k10, "query/s");
  out.pruned_eval_k100 = timed_loop(queries, [&](std::size_t i) {
    sink += pruned.top_k(stemmed_queries[i], 100, &ps).size();
  });
  print_op("pruned eval k100", out.pruned_eval_k100, "query/s");
  out.pruned_eval_long = timed_loop(queries, [&](std::size_t i) {
    sink += pruned.top_k(long_queries[i], kTopK, &ps).size();
  });
  print_op("pruned eval long", out.pruned_eval_long, "query/s");

  // Rank safety, asserted in-run: every pruned result byte-identical to the
  // exhaustive ranker (score bits, documents, tie-breaks), both query
  // shapes, both k.
  for (std::size_t i = 0; i < queries && out.pruned_identical; ++i) {
    for (const std::size_t k : {std::size_t{10}, std::size_t{100}}) {
      if (!bit_identical(pruned.top_k(stemmed_queries[i], k),
                         ranker.top_k(stemmed_queries[i], k)) ||
          !bit_identical(pruned.top_k(long_queries[i], k), ranker.top_k(long_queries[i], k))) {
        out.pruned_identical = false;
        std::fprintf(stderr, "  pruned ranking diverged on query %zu k %zu\n", i, k);
        break;
      }
    }
  }

  if (sink == 0) std::fprintf(stderr, "  pruned/exhaustive eval returned no results\n");
  out.pruned_speedup_k10 = out.interned_eval.per_sec() > 0.0
                               ? out.pruned_eval_k10.per_sec() / out.interned_eval.per_sec()
                               : 0.0;
  out.pruned_speedup_k100 =
      out.exhaustive_eval_k100.per_sec() > 0.0
          ? out.pruned_eval_k100.per_sec() / out.exhaustive_eval_k100.per_sec()
          : 0.0;
  out.pruned_speedup_long =
      out.exhaustive_eval_long.per_sec() > 0.0
          ? out.pruned_eval_long.per_sec() / out.exhaustive_eval_long.per_sec()
          : 0.0;
  // With no query served by the pruned driver the "pruned" rows time the
  // exhaustive fallback, so their ratio is no pruning speedup.
  std::printf(
      "  %s: k10 %.1fx, k100 %.1fx, long %.1fx   (%llu blocks skipped, %llu "
      "pruned, %llu fallbacks, %llu abandoned)%s\n",
      ps.pruned_queries > 0 ? "pruned speedup" : "fallback (no query pruned) vs exhaustive",
      out.pruned_speedup_k10, out.pruned_speedup_k100, out.pruned_speedup_long,
      static_cast<unsigned long long>(ps.blocks_skipped),
      static_cast<unsigned long long>(ps.pruned_queries),
      static_cast<unsigned long long>(ps.prune_fallbacks),
      static_cast<unsigned long long>(ps.docs_abandoned),
      out.pruned_identical ? "" : "   (PRUNED RANKINGS DIVERGED)");

  out.publish_speedup = out.legacy_publish.per_sec() > 0.0
                            ? out.interned_publish.per_sec() / out.legacy_publish.per_sec()
                            : 0.0;
  out.eval_speedup = out.legacy_eval.per_sec() > 0.0
                         ? out.interned_eval.per_sec() / out.legacy_eval.per_sec()
                         : 0.0;
  out.combined_speedup = std::sqrt(out.publish_speedup * out.eval_speedup);
  std::printf("  speedup: publish %.1fx, eval %.1fx, combined %.1fx%s\n\n", out.publish_speedup,
              out.eval_speedup, out.combined_speedup,
              out.rankings_agree ? "" : "   (RANKINGS DIVERGED)");
  return out;
}

void append_op(std::ostringstream& os, const char* name, const OpStats& s) {
  os << "\"" << name << "\": {\"wall_s\": " << s.wall_s << ", \"ops\": " << s.ops
     << ", \"per_sec\": " << s.per_sec() << ", \"p50_us\": " << s.p50_us
     << ", \"p99_us\": " << s.p99_us << ", \"allocs_per_op\": " << s.allocs_per_op() << "}";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    }
  }

  std::vector<SizeResult> results;
  results.push_back(run_size(1000, quick ? 200 : 600, 8000));
  results.push_back(run_size(10000, quick ? 300 : 1000, 30000));

  std::ostringstream os;
  os << "{\n  \"bench\": \"index_throughput\",\n  \"quick\": " << (quick ? "true" : "false")
     << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    os << "    {\"docs\": " << r.docs << ", \"queries\": " << r.queries << ", ";
    append_op(os, "legacy_publish", r.legacy_publish);
    os << ", ";
    append_op(os, "interned_publish", r.interned_publish);
    os << ", ";
    append_op(os, "legacy_eval", r.legacy_eval);
    os << ", ";
    append_op(os, "interned_eval", r.interned_eval);
    os << ", ";
    append_op(os, "exhaustive_eval_k100", r.exhaustive_eval_k100);
    os << ", ";
    append_op(os, "exhaustive_eval_long", r.exhaustive_eval_long);
    os << ", ";
    append_op(os, "pruned_eval_k10", r.pruned_eval_k10);
    os << ", ";
    append_op(os, "pruned_eval_k100", r.pruned_eval_k100);
    os << ", ";
    append_op(os, "pruned_eval_long", r.pruned_eval_long);
    // A row the driver never pruned timed the exhaustive fallback: its
    // ratios are no pruning speedup, so it writes none.
    if (r.prune_stats.pruned_queries > 0) {
      os << ", \"pruned_speedup_k10\": " << r.pruned_speedup_k10
         << ", \"pruned_speedup_k100\": " << r.pruned_speedup_k100
         << ", \"pruned_speedup_long\": " << r.pruned_speedup_long;
    }
    os << ", \"blocks_skipped\": " << r.prune_stats.blocks_skipped
       << ", \"pruned_queries\": " << r.prune_stats.pruned_queries
       << ", \"prune_fallbacks\": " << r.prune_stats.prune_fallbacks
       << ", \"postings_decoded\": " << r.prune_stats.postings_decoded
       << ", \"docs_abandoned\": " << r.prune_stats.docs_abandoned
       << ", \"batch_seq_docs_per_sec\": " << r.batch_seq_dps
       << ", \"publish_speedup\": " << r.publish_speedup
       << ", \"eval_speedup\": " << r.eval_speedup
       << ", \"combined_speedup\": " << r.combined_speedup << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  for (const SizeResult& r : results) {
    os << "  \"interned_publish_dps_" << r.docs << "\": " << r.interned_publish.per_sec()
       << ",\n";
    os << "  \"interned_eval_qps_" << r.docs << "\": " << r.interned_eval.per_sec() << ",\n";
    os << "  \"pruned_eval_qps_" << r.docs << "\": " << r.pruned_eval_k10.per_sec() << ",\n";
  }
  os << "  \"pruned_speedup_k10_" << results.back().docs << "\": "
     << results.back().pruned_speedup_k10 << ",\n";
  os << "  \"combined_speedup_" << results.back().docs << "\": "
     << results.back().combined_speedup << "\n}\n";

  std::ofstream("BENCH_index_throughput.json") << os.str();
  std::printf("wrote BENCH_index_throughput.json\n");

  int rc = 0;
  for (const SizeResult& r : results) {
    if (!r.rankings_agree) {
      std::fprintf(stderr, "FAIL: interned ranking diverges from legacy at %zu docs\n", r.docs);
      rc = 1;
    }
  }
  if (results.back().combined_speedup < 3.0) {
    std::fprintf(stderr, "FAIL: combined speedup only %.1fx at %zu docs (need >= 3x)\n",
                 results.back().combined_speedup, results.back().docs);
    rc = 1;
  }
  for (const SizeResult& r : results) {
    if (!r.pruned_identical) {
      std::fprintf(stderr, "FAIL: pruned top-k diverged from exhaustive at %zu docs\n", r.docs);
      rc = 1;
    }
  }
  if (results.back().prune_stats.blocks_skipped == 0) {
    std::fprintf(stderr, "FAIL: pruned driver skipped no blocks at %zu docs\n",
                 results.back().docs);
    rc = 1;
  }
  if (results.back().pruned_speedup_k10 < 3.0) {
    std::fprintf(stderr,
                 "FAIL: pruned eval (k=10) only %.1fx over exhaustive at %zu docs (need >= 3x)\n",
                 results.back().pruned_speedup_k10, results.back().docs);
    rc = 1;
  }

  if (!baseline_path.empty()) {
    const std::optional<std::string> loaded = benchutil::read_baseline(baseline_path);
    if (!loaded) return 1;
    const std::string& baseline = *loaded;
    for (const SizeResult& r : results) {
      const struct {
        const char* what;
        std::string key;
        double measured;
      } checks[] = {
          {"publish docs/s", "interned_publish_dps_" + std::to_string(r.docs),
           r.interned_publish.per_sec()},
          {"eval queries/s", "interned_eval_qps_" + std::to_string(r.docs),
           r.interned_eval.per_sec()},
          {"pruned eval queries/s", "pruned_eval_qps_" + std::to_string(r.docs),
           r.pruned_eval_k10.per_sec()},
      };
      for (const auto& c : checks) {
        const double recorded = benchutil::parse_key(baseline, c.key);
        if (recorded <= 0.0) continue;
        if (c.measured < recorded / 2.0) {
          std::fprintf(stderr,
                       "FAIL: %s at %zu docs regressed: %.0f vs baseline %.0f (>2x drop)\n",
                       c.what, r.docs, c.measured, recorded);
          rc = 1;
        } else {
          std::printf("baseline check %s at %zu docs: %.0f vs recorded %.0f — ok\n", c.what,
                      r.docs, c.measured, recorded);
        }
      }
    }
  }
  return rc;
}
