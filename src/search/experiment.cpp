#include "search/experiment.hpp"

#include <algorithm>
#include <memory>
#include <unordered_set>

namespace planetp::search {

using corpus::SynthCollection;
using corpus::SynthDoc;
using corpus::SynthQuery;
using index::DocumentId;

std::vector<PeerFilter> RetrievalSetup::filter_views() const {
  std::vector<PeerFilter> views;
  views.reserve(peer_filters.size());
  for (std::size_t i = 0; i < peer_filters.size(); ++i) {
    views.push_back(PeerFilter{static_cast<std::uint32_t>(i), &peer_filters[i]});
  }
  return views;
}

PeerSearchFn RetrievalSetup::local_contact(std::size_t k) const {
  return [this, k](std::uint32_t peer,
                   const std::unordered_map<std::string, double>& weights) {
    return top_k(peer_snapshots[peer], weights, k);
  };
}

namespace {

/// Compress \p members (ascending ids) into one snapshot base, straight
/// through CompressedIndex::Builder.
index::EpochSnapshot compress(const std::vector<const SynthDoc*>& members) {
  std::vector<DocumentId> docs;
  std::vector<std::uint32_t> lengths;
  docs.reserve(members.size());
  lengths.reserve(members.size());
  std::unordered_map<corpus::TermId, std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      postings;
  for (std::uint32_t dense = 0; dense < members.size(); ++dense) {
    const SynthDoc& doc = *members[dense];
    docs.push_back(DocumentId{0, doc.id});
    lengths.push_back(doc.length());
    for (const auto& [term, freq] : doc.terms) postings[term].emplace_back(dense, freq);
  }
  index::CompressedIndex::Builder builder(std::move(docs), std::move(lengths));
  for (const auto& [term, list] : postings) {
    builder.add_term(SynthCollection::term_string(term), list);
  }
  return index::EpochSnapshot::of(
      std::make_shared<const index::CompressedIndex>(builder.take()));
}

}  // namespace

RetrievalSetup distribute_collection(const SynthCollection& collection,
                                     std::size_t num_peers,
                                     const corpus::PlacementOptions& placement,
                                     const bloom::BloomParams& bloom_params) {
  RetrievalSetup setup;
  setup.num_peers = num_peers;
  setup.peer_filters.assign(num_peers, bloom::BloomFilter(bloom_params));

  const std::vector<std::uint32_t> owners =
      corpus::place_documents(collection.docs.size(), num_peers, placement);

  // Generated documents carry ascending ids, so every member list below is
  // already in the ascending order the Builder expects.
  std::vector<std::vector<const SynthDoc*>> peer_docs(num_peers);
  std::vector<const SynthDoc*> all_docs;
  all_docs.reserve(collection.docs.size());
  for (const SynthDoc& doc : collection.docs) {
    const std::uint32_t peer = owners[doc.id];
    setup.owner_of.emplace(DocumentId{0, doc.id}, peer);
    peer_docs[peer].push_back(&doc);
    all_docs.push_back(&doc);
    for (const auto& [term, freq] : doc.terms) {
      setup.peer_filters[peer].insert(SynthCollection::term_string(term));
    }
  }
  setup.peer_snapshots.reserve(num_peers);
  for (const auto& members : peer_docs) setup.peer_snapshots.push_back(compress(members));
  setup.global_snapshot = compress(all_docs);
  return setup;
}

std::vector<std::string> query_term_strings(const SynthQuery& query) {
  std::vector<std::string> out;
  out.reserve(query.terms.size());
  for (corpus::TermId t : query.terms) out.push_back(SynthCollection::term_string(t));
  return out;
}

RelevantSet judgment_set(const SynthQuery& query) {
  RelevantSet rel;
  for (std::uint32_t doc : query.relevant_docs) rel.insert(DocumentId{0, doc});
  return rel;
}

RetrievalPoint evaluate_at_k(const SynthCollection& collection, const RetrievalSetup& setup,
                             std::size_t k, const RetrievalOptions& opts) {
  RetrievalPoint point;
  point.k = k;
  if (collection.queries.empty()) return point;

  const SnapshotRanker baseline(setup.global_snapshot);
  const auto views = setup.filter_views();
  const auto contact = setup.local_contact(k);

  for (const SynthQuery& query : collection.queries) {
    const auto terms = query_term_strings(query);
    const RelevantSet relevant = judgment_set(query);

    // --- centralized TFxIDF baseline ---
    const auto idf_docs = baseline.top_k(terms, k);
    point.idf_recall += recall(idf_docs, relevant);
    point.idf_precision += precision(idf_docs, relevant);
    std::unordered_set<std::uint32_t> idf_owners;
    for (const ScoredDoc& d : idf_docs) idf_owners.insert(setup.owner_of.at(d.doc));
    point.idf_peers += static_cast<double>(idf_owners.size());

    // --- PlanetP TFxIPF with adaptive stopping ---
    DistributedSearchOptions dopts;
    dopts.k = k;
    dopts.group_size = opts.group_size;
    dopts.stopping = opts.stopping;
    const auto result = tfipf_search(terms, views, contact, dopts);
    point.ipf_recall += recall(result.docs, relevant);
    point.ipf_precision += precision(result.docs, relevant);
    point.ipf_peers += static_cast<double>(result.contacted.size());

    // --- oracle lower bound ---
    point.best_peers +=
        static_cast<double>(best_peers_for_k(relevant, k, setup.owner_of));
  }

  const double nq = static_cast<double>(collection.queries.size());
  point.idf_recall /= nq;
  point.idf_precision /= nq;
  point.idf_peers /= nq;
  point.ipf_recall /= nq;
  point.ipf_precision /= nq;
  point.ipf_peers /= nq;
  point.best_peers /= nq;
  return point;
}

std::vector<RetrievalPoint> run_k_sweep(const SynthCollection& collection,
                                        const RetrievalSetup& setup,
                                        const RetrievalOptions& opts) {
  std::vector<RetrievalPoint> points;
  points.reserve(opts.ks.size());
  for (std::size_t k : opts.ks) points.push_back(evaluate_at_k(collection, setup, k, opts));
  return points;
}

std::vector<CommunityPoint> run_community_sweep(const SynthCollection& collection,
                                                const std::vector<std::size_t>& sizes,
                                                std::size_t k,
                                                const corpus::PlacementOptions& placement,
                                                const RetrievalOptions& opts) {
  std::vector<CommunityPoint> points;
  for (std::size_t n : sizes) {
    const RetrievalSetup setup = distribute_collection(collection, n, placement);
    const RetrievalPoint p = evaluate_at_k(collection, setup, k, opts);
    points.push_back(CommunityPoint{n, p.ipf_recall, p.idf_recall, p.ipf_peers});
  }
  return points;
}

}  // namespace planetp::search
