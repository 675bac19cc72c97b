#include "index/data_store.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

namespace planetp::index {

DataStore::DataStore(std::uint32_t peer_id, bloom::BloomParams bloom_params,
                     text::AnalyzerOptions analyzer_opts, EpochConfig epoch_config)
    : peer_id_(peer_id),
      analyzer_(analyzer_opts),
      counting_filter_(bloom_params),
      epochs_(std::make_unique<EpochIndex>(epoch_config)) {}

void DataStore::index_document(Document doc) {
  counts_.clear();
  analyzer_.for_each_term(doc.text, scratch_, [&](std::string_view term) {
    counts_.add(dict_.intern(term));
  });
  if (term_docs_.size() < dict_.size()) term_docs_.resize(dict_.size(), 0);

  const DocumentId id = doc.id;
  StoredDoc& stored = docs_[id];
  stored.terms.reserve(counts_.terms().size());
  for (const TermId term : counts_.terms()) {
    stored.terms.emplace_back(term, counts_.count(term));
    if (term_docs_[term]++ == 0) ++num_terms_;
    // Feed the counting filter from the dictionary's pre-computed hashes:
    // one hash per distinct term per store lifetime.
    counting_filter_.insert(dict_.hash(term));
  }
  stored.doc = std::move(doc);
  epochs_->commit_publish(id, dict_, counts_);
}

DocumentId DataStore::publish(std::string xml_source) {
  return publish_as(next_local_id_, std::move(xml_source));
}

DocumentId DataStore::publish_as(std::uint32_t local_id, std::string xml_source) {
  const DocumentId id{peer_id_, local_id};
  if (docs_.contains(id)) {
    throw std::invalid_argument("DataStore::publish_as: local id already in use");
  }
  // Parse before burning the id: a malformed document leaves the store (and
  // the id counter) untouched.
  Document doc = make_document(id, std::move(xml_source));
  if (local_id >= next_local_id_) next_local_id_ = local_id + 1;

  index_document(std::move(doc));
  ++filter_version_;
  return id;
}

DocumentId DataStore::publish_text(std::string_view title, std::string_view body) {
  return publish(wrap_text_as_xml(title, body));
}

bool DataStore::unpublish(DocumentId id) {
  auto it = docs_.find(id);
  if (it == docs_.end()) return false;
  // The epoch tombstone carries the document's exact term frequencies so
  // snapshot-wide collection statistics keep matching a store that never
  // indexed the document; the counting filter is un-counted in the same
  // pass.
  const std::vector<std::pair<TermId, std::uint32_t>>& terms = it->second.terms;
  std::uint32_t doc_length = 0;
  std::vector<std::pair<std::string, std::uint32_t>> term_freqs;
  term_freqs.reserve(terms.size());
  for (const auto& [term, freq] : terms) {
    counting_filter_.remove(dict_.hash(term));
    if (--term_docs_[term] == 0) --num_terms_;
    term_freqs.emplace_back(std::string(dict_.term(term)), freq);
    doc_length += freq;
  }
  docs_.erase(it);
  epochs_->commit_remove(id, doc_length, std::move(term_freqs));
  ++filter_version_;
  return true;
}

bool DataStore::republish(DocumentId id, std::string xml_source) {
  if (!docs_.contains(id)) return false;
  // Validate the new content before tearing the old version down.
  Document replacement = make_document(id, std::move(xml_source));

  unpublish(id);
  index_document(std::move(replacement));
  ++filter_version_;
  return true;
}

const Document* DataStore::document(DocumentId id) const {
  auto it = docs_.find(id);
  return it == docs_.end() ? nullptr : &it->second.doc;
}

std::vector<DocumentId> DataStore::documents() const {
  std::vector<DocumentId> out;
  out.reserve(docs_.size());
  for (const auto& [id, stored] : docs_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<DocumentId> DataStore::search_all_terms(std::string_view query) const {
  std::vector<std::string> terms = analyzer_.analyze(query);
  if (terms.empty()) return {};
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());

  // Intersect live postings, rarest term first (collection frequency is the
  // snapshot's cheap proxy for posting-list length); a term with no live
  // occurrence empties the answer outright.
  const std::shared_ptr<const EpochSnapshot> snap = snapshot();
  std::vector<std::pair<std::uint64_t, std::string_view>> by_rarity;
  by_rarity.reserve(terms.size());
  for (const std::string& term : terms) {
    const std::uint64_t cf = snap->collection_frequency(term);
    if (cf == 0) return {};
    by_rarity.emplace_back(cf, term);
  }
  std::sort(by_rarity.begin(), by_rarity.end());

  std::vector<DocumentId> result;
  std::vector<DocumentId> with_term;
  for (std::size_t i = 0; i < by_rarity.size(); ++i) {
    with_term.clear();
    snap->for_each_posting(by_rarity[i].second, [&](std::uint32_t slot, std::uint32_t) {
      with_term.push_back(snap->doc_at_slot(slot));
    });
    std::sort(with_term.begin(), with_term.end());
    if (i == 0) {
      result.swap(with_term);
    } else {
      std::vector<DocumentId> both;
      std::set_intersection(result.begin(), result.end(), with_term.begin(), with_term.end(),
                            std::back_inserter(both));
      result = std::move(both);
    }
    if (result.empty()) return {};
  }
  return result;
}

}  // namespace planetp::index
