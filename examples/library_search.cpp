/// \file library_search.cpp
/// A digital-library community (the paper's motivating workload): 50 peers
/// share a synthetic scientific-abstract collection; a user runs ranked
/// queries against the communal store and we compare the distributed TFxIPF
/// results against the centralized TFxIDF oracle, per query.

#include <cstdio>

#include "corpus/synthetic.hpp"
#include "search/experiment.hpp"

using namespace planetp;
using namespace planetp::search;

int main() {
  // Generate a CACM-shaped collection (3204 abstracts) and spread it over
  // 50 peers with the heavy-tailed Weibull placement of §7.3.
  auto spec = corpus::preset_cacm();
  const auto collection = corpus::generate(spec);
  std::printf("collection %s: %zu docs, %zu distinct terms, %zu queries\n",
              spec.name.c_str(), collection.docs.size(), collection.distinct_terms,
              collection.queries.size());

  const RetrievalSetup setup =
      distribute_collection(collection, 50, corpus::PlacementOptions{});
  std::printf("distributed over %zu peers\n\n", setup.num_peers);

  const std::size_t k = 10;
  const SnapshotRanker baseline(setup.global_snapshot);
  const auto views = setup.filter_views();
  const auto contact = setup.local_contact(k);

  double sum_overlap = 0.0;
  std::size_t shown = 0;
  for (const auto& query : collection.queries) {
    const auto terms = query_term_strings(query);
    const RelevantSet relevant = judgment_set(query);

    DistributedSearchOptions opts;
    opts.k = k;
    const auto planetp_result = tfipf_search(terms, views, contact, opts);
    const auto oracle = baseline.top_k(terms, k);

    // Overlap between the distributed result and the centralized oracle.
    std::size_t overlap = 0;
    for (const auto& d : planetp_result.docs) {
      for (const auto& o : oracle) {
        if (d.doc == o.doc) {
          ++overlap;
          break;
        }
      }
    }
    sum_overlap += oracle.empty() ? 1.0
                                  : static_cast<double>(overlap) /
                                        static_cast<double>(oracle.size());

    if (shown < 5) {
      std::printf("query %2u (%zu terms): recall %.2f precision %.2f, contacted %zu/%zu "
                  "peers, top-%zu overlap with TFxIDF %zu/%zu\n",
                  query.id, terms.size(), recall(planetp_result.docs, relevant),
                  precision(planetp_result.docs, relevant),
                  planetp_result.contacted.size(), planetp_result.candidate_peers, k,
                  overlap, oracle.size());
      ++shown;
    }
  }
  std::printf("\naverage top-%zu overlap with the centralized oracle over %zu queries: "
              "%.1f%%\n",
              k, collection.queries.size(),
              100.0 * sum_overlap / static_cast<double>(collection.queries.size()));
  return 0;
}
