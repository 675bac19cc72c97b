/// \file ablation_search.cpp
/// Search-side ablations on the Fig 6 workload:
///
///  1. the eq. 4 stopping-heuristic constants — how patience trades peers
///     contacted against recall (the paper notes its linear k-dependence
///     "may be too aggressive" past k=150; this quantifies that);
///  2. group-parallel contact (m peers at a time, §5.2's latency variant);
///  3. the §2 accuracy-for-storage trade-off: merging filters in groups
///     (CompactDirectory) shrinks directory memory but inflates the
///     candidate peer set.

#include <cstdio>
#include <cstring>

#include <chrono>

#include "index/compressed_postings.hpp"
#include "index/inverted_index.hpp"
#include "search/compact_directory.hpp"
#include "search/experiment.hpp"

using namespace planetp;
using namespace planetp::search;

namespace {

void stopping_ablation(const corpus::SynthCollection& collection,
                       const RetrievalSetup& setup) {
  std::puts("# stopping heuristic: patience = floor(base + N/div) + 2*floor(k/50), k=20");
  std::printf("  %-28s %8s %8s %10s\n", "variant", "recall", "prec", "contacted");
  struct Variant {
    const char* name;
    double base;
    double divisor;
  } variants[] = {
      {"impatient (0 + N/1000)", 0.0, 1000.0},
      {"paper (2 + N/300)", 2.0, 300.0},
      {"patient (4 + N/150)", 4.0, 150.0},
      {"very patient (8 + N/75)", 8.0, 75.0},
  };
  for (const auto& v : variants) {
    RetrievalOptions opts;
    opts.stopping.base = v.base;
    opts.stopping.community_divisor = v.divisor;
    const auto p = evaluate_at_k(collection, setup, 20, opts);
    std::printf("  %-28s %8.3f %8.3f %10.1f\n", v.name, p.ipf_recall, p.ipf_precision,
                p.ipf_peers);
  }
  std::puts("");
}

void group_ablation(const corpus::SynthCollection& collection,
                    const RetrievalSetup& setup) {
  std::puts("# group-parallel contact (m peers per step), k=20");
  std::printf("  %-10s %8s %10s\n", "m", "recall", "contacted");
  for (std::size_t m : {1u, 2u, 4u, 8u}) {
    RetrievalOptions opts;
    opts.group_size = m;
    const auto p = evaluate_at_k(collection, setup, 20, opts);
    std::printf("  %-10zu %8.3f %10.1f\n", m, p.ipf_recall, p.ipf_peers);
  }
  std::puts("");
}

void compaction_ablation(const corpus::SynthCollection& collection,
                         const RetrievalSetup& setup) {
  std::puts("# filter merging (accuracy-for-storage, §2): candidates per query vs memory");
  std::printf("  %-10s %12s %18s\n", "group", "memory(MB)", "avg candidates");
  for (std::size_t g : {1u, 2u, 4u, 8u, 16u}) {
    CompactDirectory dir(g);
    for (std::size_t i = 0; i < setup.peer_filters.size(); ++i) {
      dir.add_peer(static_cast<std::uint32_t>(i), setup.peer_filters[i]);
    }
    double total_candidates = 0;
    for (const auto& query : collection.queries) {
      total_candidates +=
          static_cast<double>(dir.candidates_any(query_term_strings(query)).size());
    }
    std::printf("  %-10zu %12.2f %18.1f\n", g,
                static_cast<double>(dir.memory_bytes()) / 1e6,
                total_candidates / static_cast<double>(collection.queries.size()));
  }
}

void compressed_index_comparison(const corpus::SynthCollection& collection) {
  // The "Managing Gigabytes"-style read path: a compressed snapshot of the
  // collection vs a mutable hash-map index of it, same ranking results.
  std::puts("# compressed posting-list snapshot (read path)");
  index::InvertedIndex global;
  for (const corpus::SynthDoc& doc : collection.docs) {
    std::unordered_map<std::string, std::uint32_t> freqs;
    for (const auto& [term, freq] : doc.terms) {
      freqs.emplace(corpus::SynthCollection::term_string(term), freq);
    }
    global.add_document(index::DocumentId{0, doc.id}, freqs);
  }
  const auto t0 = std::chrono::steady_clock::now();
  const index::CompressedIndex snapshot = index::CompressedIndex::build(global);
  const auto build_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

  // Rough footprint of the mutable index: postings + doc-length map.
  std::size_t postings = 0;
  global.for_each_term([&](const std::string& term) {
    postings += global.postings(term).size();
  });
  const std::size_t mutable_estimate =
      postings * (sizeof(index::Posting) + sizeof(void*)) +
      global.num_documents() * 16;

  TfIdfRanker baseline(global);
  double checked = 0, agreed = 0;
  for (const auto& query : collection.queries) {
    const auto terms = query_term_strings(query);
    const auto weights = baseline.idf_weights(terms);
    const auto a = search::score_documents(global, weights);
    const auto b = snapshot.score(weights);
    checked += 1;
    if (a.size() == b.size() &&
        (a.empty() || (a[0].doc == b[0].first && std::abs(a[0].score - b[0].second) < 1e-9))) {
      agreed += 1;
    }
  }
  std::printf("  build: %lld ms for %zu docs / %zu terms\n",
              static_cast<long long>(build_ms), snapshot.num_documents(),
              snapshot.num_terms());
  std::printf("  memory: %.2f MB compressed vs ~%.2f MB mutable estimate\n",
              static_cast<double>(snapshot.memory_bytes()) / 1e6,
              static_cast<double>(mutable_estimate) / 1e6);
  std::printf("  ranking agreement on %d queries: %.0f%%\n",
              static_cast<int>(checked), 100.0 * agreed / checked);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const auto spec = quick ? corpus::preset_tiny() : corpus::preset_cacm();
  const auto collection = corpus::generate(spec);
  const std::size_t peers = quick ? 20 : 200;
  const RetrievalSetup setup =
      distribute_collection(collection, peers, corpus::PlacementOptions{});
  std::printf("Search ablations — %s over %zu peers\n\n", spec.name.c_str(), peers);

  stopping_ablation(collection, setup);
  group_ablation(collection, setup);
  compaction_ablation(collection, setup);
  std::puts("");
  compressed_index_comparison(collection);
  return 0;
}
