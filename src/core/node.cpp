#include "core/node.hpp"

#include <algorithm>

#include "core/community.hpp"
#include "index/xml.hpp"

namespace planetp::core {

Node::Node(PeerId id, NodeConfig config, Community* community)
    : config_(std::move(config)),
      community_(community),
      peer_(id, config_, Rng(0xbadc0ffeULL ^ id)) {
  gossip::PeerRecord self =
      peer_.join_record("mem://" + std::to_string(id), config_.link_class);
  protocol().local_join(std::move(self.address), self.link_class, self.key_count,
                        std::move(self.filter_wire), now());
}

TimePoint Node::now() const { return community_ != nullptr ? community_->now() : 0; }

void Node::record_changed() {
  if (community_ != nullptr) community_->record_changed(id());
}

DocumentId Node::publish(std::string xml) {
  const DocumentId doc_id = peer_.publish(std::move(xml), now());
  record_changed();

  if (config_.publish_to_brokers && community_ != nullptr) {
    const index::Document* doc = store().document(doc_id);
    if (doc != nullptr) {
      // §6: publish the snippet under the top fraction of the document's
      // most frequent terms so it is findable before gossip converges.
      auto freqs = store().analyzer().term_frequencies(doc->text);
      std::vector<std::pair<std::string, std::uint32_t>> sorted(freqs.begin(), freqs.end());
      std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
        if (a.second != b.second) return a.second > b.second;
        return a.first < b.first;
      });
      const std::size_t take = std::max<std::size_t>(
          1, static_cast<std::size_t>(config_.broker_top_fraction *
                                      static_cast<double>(sorted.size())));
      broker::Snippet snippet;
      snippet.id = next_snippet_id_++;
      snippet.publisher = id();
      snippet.xml = doc->xml_source;
      snippet.discard_at = community_->now() + config_.broker_discard_time;
      for (std::size_t i = 0; i < take && i < sorted.size(); ++i) {
        snippet.keys.push_back(sorted[i].first);
      }
      doc_snippets_[doc_id] = snippet.id;
      community_->snippet_published(snippet);
    }
  }
  return doc_id;
}

DocumentId Node::publish_text(std::string_view title, std::string_view body) {
  return publish(index::wrap_text_as_xml(title, body));
}

bool Node::unpublish(DocumentId doc) {
  if (!peer_.unpublish(doc, now())) return false;
  record_changed();
  // Withdraw the document's broker snippet early rather than letting it
  // linger until its discard time.
  if (auto it = doc_snippets_.find(doc); it != doc_snippets_.end()) {
    if (community_ != nullptr) community_->brokers().withdraw(id(), it->second);
    doc_snippets_.erase(it);
  }
  return true;
}

bool Node::republish(DocumentId doc, std::string xml) {
  if (!peer_.republish(doc, std::move(xml), now())) return false;
  record_changed();
  return true;
}

ExhaustiveResult Node::exhaustive_search(std::string_view query) {
  ExhaustiveResult result;
  const auto terms = store().analyzer().analyze(query);
  if (terms.empty()) return result;

  result.hits = handle_exhaustive_query(query);  // local matches first

  // Remote candidates via Bloom filters.
  for (PeerId peer : peer_.candidates_for(terms)) {
    const gossip::PeerRecord* record = protocol().directory().find(peer);
    if (record != nullptr && !record->online) {
      result.offline_candidates.push_back(peer);
      continue;
    }
    if (community_ == nullptr) continue;
    auto remote = community_->contact_exhaustive(id(), peer, query);
    if (remote.empty() && record != nullptr && !record->online) {
      result.offline_candidates.push_back(peer);
    }
    result.hits.insert(result.hits.end(), remote.begin(), remote.end());
  }

  // Brokers: snippets whose keys cover every query term.
  if (community_ != nullptr) {
    std::unordered_set<std::uint64_t> seen;
    for (const broker::Snippet& s : community_->brokers().lookup(terms.front(),
                                                                 community_->now())) {
      if (!seen.insert((static_cast<std::uint64_t>(s.publisher) << 32) ^ s.id).second) {
        continue;
      }
      const bool covers = std::all_of(terms.begin(), terms.end(), [&](const std::string& t) {
        return std::find(s.keys.begin(), s.keys.end(), t) != s.keys.end();
      });
      if (covers) {
        result.broker_hits.push_back(
            SearchHit{DocumentId{s.publisher, 0}, 0.0, "", s.xml});
      }
    }
  }
  return result;
}

std::vector<SearchHit> Node::ranked_search(std::string_view query, std::size_t k) {
  const auto terms = store().analyzer().analyze(query);
  if (terms.empty() || community_ == nullptr) return {};

  const Peer::SearchView view = peer_.search_view();
  const auto contact = [this, k](std::uint32_t peer,
                                 const std::unordered_map<std::string, double>& weights)
      -> search::PeerSearchResult {
    if (peer == id()) return handle_ranked_query(weights, k);
    return community_->contact_ranked(id(), peer, weights, k);
  };
  const std::uint64_t seed =
      static_cast<std::uint64_t>(id()) << 32 | protocol().directory().size();
  const auto result =
      search::tfipf_search(terms, view.peers, contact, peer_.search_options(k, seed));
  peer_.record_outcomes(result.outcomes, community_->now());

  std::vector<SearchHit> hits;
  hits.reserve(result.docs.size());
  for (const search::ScoredDoc& d : result.docs) {
    SearchHit hit;
    hit.doc = d.doc;
    hit.score = d.score;
    const index::Document* doc =
        d.doc.peer == id() ? store().document(d.doc) : community_->fetch_document(d.doc);
    if (doc != nullptr) {
      hit.title = doc->title;
      hit.xml = doc->xml_source;
    }
    hits.push_back(std::move(hit));
  }
  return hits;
}

std::vector<SearchHit> Node::proxy_ranked_search(std::string_view query, std::size_t k,
                                                 PeerId proxy) {
  if (community_ == nullptr) return {};
  if (proxy == gossip::kInvalidPeer) {
    // Choose a random online fast peer from our directory.
    Rng rng(0x9e3779b9ULL ^ id() ^ static_cast<std::uint64_t>(community_->now()));
    proxy = protocol().directory().random_online_of_class(rng, gossip::LinkClass::kFast);
  }
  if (proxy == gossip::kInvalidPeer || proxy == id()) {
    return ranked_search(query, k);  // no proxy available: do it ourselves
  }
  auto hits = community_->contact_proxy_search(id(), proxy, query, k);
  if (hits.empty()) {
    // Proxy unreachable or knew nothing; degrade to a local search.
    return ranked_search(query, k);
  }
  return hits;
}

std::vector<search::ScoredDoc> Node::handle_ranked_query(
    const std::unordered_map<std::string, double>& term_weights, std::size_t k) const {
  return peer_.rank(term_weights, k);
}

std::vector<SearchHit> Node::handle_exhaustive_query(std::string_view query) const {
  std::vector<SearchHit> hits;
  for (const DocumentId& doc : store().search_all_terms(query)) {
    const index::Document* d = store().document(doc);
    if (d != nullptr) hits.push_back(SearchHit{doc, 0.0, d->title, d->xml_source});
  }
  return hits;
}

std::uint64_t Node::add_persistent_query(std::string query, QueryCallback cb) {
  PersistentQuery pq;
  pq.raw = query;
  pq.terms = store().analyzer().analyze(query);
  pq.term_hashes.reserve(pq.terms.size());
  for (const std::string& t : pq.terms) pq.term_hashes.push_back(hash_pair(t));
  pq.callback = std::move(cb);
  const std::uint64_t handle = next_query_handle_++;

  // Immediately evaluate against the current community view.
  auto [it, inserted] = persistent_queries_.emplace(handle, std::move(pq));
  PersistentQuery& stored = it->second;
  for (const SearchHit& hit : handle_exhaustive_query(stored.raw)) {
    if (stored.seen.insert(hit.doc).second) stored.callback(hit);
  }
  for (PeerId peer : peer_.candidates_for(stored.terms)) {
    run_persistent_query_against(stored, peer);
  }
  return handle;
}

bool Node::remove_persistent_query(std::uint64_t handle) {
  return persistent_queries_.erase(handle) > 0;
}

void Node::run_persistent_query_against(PersistentQuery& q, PeerId target) {
  if (community_ == nullptr) return;
  for (const SearchHit& hit : community_->contact_exhaustive(id(), target, q.raw)) {
    if (q.seen.insert(hit.doc).second) q.callback(hit);
  }
}

void Node::on_directory_update(PeerId origin) {
  if (origin == id()) return;
  const auto filter = filter_of(origin);
  if (filter != nullptr) {
    for (auto& [handle, q] : persistent_queries_) {
      if (q.terms.empty()) continue;  // no effective terms: matches nothing
      const bool candidate =
          std::all_of(q.term_hashes.begin(), q.term_hashes.end(),
                      [&](const HashPair& hp) { return filter->contains(hp); });
      if (candidate) run_persistent_query_against(q, origin);
    }
  }

  // Rendezvous: a peer we were waiting on announced itself again.
  for (auto it = rendezvous_.begin(); it != rendezvous_.end();) {
    Rendezvous& rv = it->second;
    if (rv.waiting_on.erase(origin) > 0 && community_ != nullptr) {
      for (const SearchHit& hit : community_->contact_exhaustive(id(), origin, rv.raw)) {
        if (rv.seen.insert(hit.doc).second) rv.callback(hit);
      }
    }
    it = rv.waiting_on.empty() ? rendezvous_.erase(it) : std::next(it);
  }
}

std::pair<ExhaustiveResult, std::uint64_t> Node::rendezvous_search(std::string query,
                                                                   QueryCallback cb) {
  ExhaustiveResult result = exhaustive_search(query);
  if (result.offline_candidates.empty()) {
    return {std::move(result), 0};  // nothing to wait for
  }
  Rendezvous rv;
  rv.raw = std::move(query);
  rv.callback = std::move(cb);
  rv.waiting_on.insert(result.offline_candidates.begin(), result.offline_candidates.end());
  for (const SearchHit& hit : result.hits) rv.seen.insert(hit.doc);
  const std::uint64_t handle = next_query_handle_++;
  rendezvous_.emplace(handle, std::move(rv));
  return {std::move(result), handle};
}

bool Node::cancel_rendezvous(std::uint64_t handle) { return rendezvous_.erase(handle) > 0; }

std::size_t Node::pending_rendezvous_peers(std::uint64_t handle) const {
  auto it = rendezvous_.find(handle);
  return it == rendezvous_.end() ? 0 : it->second.waiting_on.size();
}

void Node::on_broker_snippet(const broker::Snippet& snippet) {
  if (snippet.publisher == id()) return;
  for (auto& [handle, q] : persistent_queries_) {
    if (q.terms.empty()) continue;  // no effective terms: matches nothing
    const bool covers = std::all_of(q.terms.begin(), q.terms.end(), [&](const std::string& t) {
      return std::find(snippet.keys.begin(), snippet.keys.end(), t) != snippet.keys.end();
    });
    if (!covers) continue;
    // Broker hits are keyed by publisher + snippet id (no document id yet).
    const DocumentId pseudo{snippet.publisher, static_cast<std::uint32_t>(snippet.id)};
    if (q.seen.insert(pseudo).second) {
      q.callback(SearchHit{pseudo, 0.0, "", snippet.xml});
    }
  }
}

}  // namespace planetp::core
