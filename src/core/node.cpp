#include "core/node.hpp"

#include <algorithm>

#include "bloom/wire.hpp"
#include "core/community.hpp"
#include "index/xml.hpp"

namespace planetp::core {

Node::Node(PeerId id, NodeConfig config, Community* community)
    : id_(id),
      config_(std::move(config)),
      community_(community),
      store_(id, config_.bloom, config_.analyzer),
      protocol_(id, config_.gossip, Rng(0xbadc0ffeULL ^ id)),
      last_announced_(config_.bloom),
      filter_cache_(config_.candidate_cache) {}

void Node::announce_filter_change(std::uint32_t new_keys) {
  const bloom::BloomFilter current = store_.bloom_filter();
  ByteWriter diff_writer;
  bloom::encode_diff(diff_writer, current.diff_from(last_announced_));
  ByteWriter full_writer;
  bloom::encode_filter(full_writer, current);
  protocol_.local_filter_change(static_cast<std::uint32_t>(store_.num_terms()), new_keys,
                                diff_writer.take(), full_writer.take(),
                                community_ != nullptr ? community_->now() : 0);
  last_announced_ = current;
  if (community_ != nullptr) community_->record_changed(id_);
}

DocumentId Node::publish(std::string xml) {
  const std::size_t terms_before = store_.num_terms();
  const DocumentId doc_id = store_.publish(std::move(xml));
  const std::size_t terms_after = store_.num_terms();
  announce_filter_change(static_cast<std::uint32_t>(terms_after - terms_before));

  if (config_.publish_to_brokers && community_ != nullptr) {
    const index::Document* doc = store_.document(doc_id);
    if (doc != nullptr) {
      // §6: publish the snippet under the top fraction of the document's
      // most frequent terms so it is findable before gossip converges.
      auto freqs = store_.analyzer().term_frequencies(doc->text);
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
      snippet.publisher = id_;
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
  if (!store_.unpublish(doc)) return false;
  announce_filter_change(0);
  // Withdraw the document's broker snippet early rather than letting it
  // linger until its discard time.
  if (auto it = doc_snippets_.find(doc); it != doc_snippets_.end()) {
    if (community_ != nullptr) community_->brokers().withdraw(id_, it->second);
    doc_snippets_.erase(it);
  }
  return true;
}

bool Node::republish(DocumentId doc, std::string xml) {
  const std::size_t terms_before = store_.num_terms();
  if (!store_.republish(doc, std::move(xml))) return false;
  const std::size_t terms_after = store_.num_terms();
  announce_filter_change(static_cast<std::uint32_t>(
      terms_after > terms_before ? terms_after - terms_before : 0));
  return true;
}

std::shared_ptr<const bloom::BloomFilter> Node::filter_of(PeerId peer) const {
  if (peer == id_) {
    own_filter();
    return filter_cache_.filter_of(id_);
  }
  const gossip::PeerRecord* record = protocol_.directory().find(peer);
  if (record == nullptr || record->filter_wire.empty()) return nullptr;
  if (auto cached = filter_cache_.version_of(peer);
      !cached.has_value() || *cached != record->version) {
    // Hand the cache the record's compressed wire verbatim; it stays at rest
    // until the resident_filter call below decodes it (and the decoded
    // working set is LRU-bounded when the config asks for it).
    filter_cache_.update_peer_wire(peer, record->filter_wire, record->version);
  }
  return filter_cache_.resident_filter(peer);
}

const bloom::BloomFilter* Node::own_filter() const {
  // Cache versions are non-zero; the store's version starts at 0.
  const std::uint64_t version = store_.filter_version() + 1;
  if (auto cached = filter_cache_.version_of(id_); !cached.has_value() || *cached != version) {
    filter_cache_.update_peer(id_, std::make_shared<bloom::BloomFilter>(store_.bloom_filter()),
                              version);
  }
  return filter_cache_.filter_ptr(id_);
}

void Node::on_rumor_applied(const gossip::RumorPayload& payload) {
  if (payload.origin == id_) return;
  // A rejoin re-announces unchanged content.
  const gossip::FilterUpdate* fu = payload.filter ? &*payload.filter : nullptr;
  filter_cache_.apply_update(payload.origin, payload.version,
                             fu != nullptr && payload.kind != gossip::EventKind::kRejoin,
                             fu != nullptr ? fu->base_version : 0,
                             fu != nullptr ? fu->bits : std::span<const std::uint8_t>{});
}

void Node::on_peer_expired(PeerId peer) { filter_cache_.remove_peer(peer); }

std::vector<PeerId> Node::candidates_for(const std::vector<std::string>& terms) const {
  std::vector<PeerId> out;
  if (terms.empty()) return out;  // a term-less conjunction matches nothing
  // Hash once, not once per (peer, term).
  std::vector<HashPair> hashes;
  hashes.reserve(terms.size());
  for (const std::string& t : terms) hashes.push_back(hash_pair(t));
  protocol_.directory().for_each([&](const gossip::PeerRecord& record) {
    if (record.id == id_) return;
    const auto filter = filter_of(record.id);
    if (filter == nullptr) return;
    for (const HashPair& hp : hashes) {
      if (!filter->contains(hp)) return;
    }
    out.push_back(record.id);
  });
  std::sort(out.begin(), out.end());
  return out;
}

ExhaustiveResult Node::exhaustive_search(std::string_view query) {
  ExhaustiveResult result;
  const auto terms = store_.analyzer().analyze(query);
  if (terms.empty()) return result;

  // Local matches first.
  for (const DocumentId& doc : store_.search_all_terms(query)) {
    const index::Document* d = store_.document(doc);
    if (d != nullptr) result.hits.push_back(SearchHit{doc, 0.0, d->title, d->xml_source});
  }

  // Remote candidates via Bloom filters.
  for (PeerId peer : candidates_for(terms)) {
    const gossip::PeerRecord* record = protocol_.directory().find(peer);
    if (record != nullptr && !record->online) {
      result.offline_candidates.push_back(peer);
      continue;
    }
    if (community_ == nullptr) continue;
    auto remote = community_->contact_exhaustive(id_, peer, query);
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
  const auto terms = store_.analyzer().analyze(query);
  if (terms.empty() || community_ == nullptr) return {};

  // Assemble the searcher's view: one filter per directory record (self
  // included — our own documents compete in the ranking too). Filters come
  // from the candidate cache's store, so the hot-path lookup below resolves
  // them through warm term entries instead of probing each one.
  std::vector<search::PeerFilter> views;
  std::vector<std::shared_ptr<const bloom::BloomFilter>> pins;  // outlive the lookup
  protocol_.directory().for_each([&](const gossip::PeerRecord& record) {
    if (record.id == id_) return;
    auto f = filter_of(record.id);
    if (f != nullptr && record.online) {
      views.push_back(search::PeerFilter{record.id, f.get(), record.suspicion});
      pins.push_back(std::move(f));
    }
  });
  views.push_back(search::PeerFilter{id_, own_filter()});

  search::DistributedSearchOptions opts;
  opts.k = k;
  opts.group_size = config_.search_group_size;
  opts.stopping = config_.stopping;
  opts.retry = config_.search_retry;
  opts.deadline = config_.search_deadline;
  opts.hedge_threshold = config_.search_hedge_threshold;
  opts.seed = static_cast<std::uint64_t>(id_) << 32 | protocol_.directory().size();
  opts.cache = &filter_cache_;

  const auto contact = [this, k](std::uint32_t peer,
                                 const std::unordered_map<std::string, double>& weights)
      -> search::PeerSearchResult {
    if (peer == id_) return handle_ranked_query(weights, k);
    return community_->contact_ranked(id_, peer, weights, k);
  };

  const auto result = search::tfipf_search(terms, views, contact, opts);

  // Feed contact outcomes back into the directory: repeated query failures
  // make a peer SUSPECT (demoted in future rankings, eventually marked
  // offline); any success clears the suspicion.
  for (const search::PeerOutcome& outcome : result.outcomes) {
    if (outcome.peer == id_) continue;
    if (outcome.status == search::ContactStatus::kOk) {
      protocol_.directory().record_query_success(outcome.peer);
    } else {
      protocol_.directory().record_query_failure(outcome.peer, community_->now());
    }
  }

  std::vector<SearchHit> hits;
  hits.reserve(result.docs.size());
  for (const search::ScoredDoc& d : result.docs) {
    SearchHit hit;
    hit.doc = d.doc;
    hit.score = d.score;
    const index::Document* doc =
        d.doc.peer == id_ ? store_.document(d.doc) : community_->fetch_document(d.doc);
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
    Rng rng(0x9e3779b9ULL ^ id_ ^ static_cast<std::uint64_t>(community_->now()));
    proxy = protocol_.directory().random_online_of_class(rng, gossip::LinkClass::kFast);
  }
  if (proxy == gossip::kInvalidPeer || proxy == id_) {
    return ranked_search(query, k);  // no proxy available: do it ourselves
  }
  auto hits = community_->contact_proxy_search(id_, proxy, query, k);
  if (hits.empty()) {
    // Proxy unreachable or knew nothing; degrade to a local search.
    return ranked_search(query, k);
  }
  return hits;
}

std::vector<search::ScoredDoc> Node::handle_ranked_query(
    const std::unordered_map<std::string, double>& term_weights, std::size_t k) const {
  // Rank against the published epoch snapshot — byte-identical to scoring
  // the live index, and safe against concurrent publishes on this store.
  return search::top_k(*store_.snapshot(), term_weights, k);
}

std::vector<SearchHit> Node::handle_exhaustive_query(std::string_view query) const {
  std::vector<SearchHit> hits;
  for (const DocumentId& doc : store_.search_all_terms(query)) {
    const index::Document* d = store_.document(doc);
    if (d != nullptr) hits.push_back(SearchHit{doc, 0.0, d->title, d->xml_source});
  }
  return hits;
}

std::uint64_t Node::add_persistent_query(std::string query, QueryCallback cb) {
  PersistentQuery pq;
  pq.raw = query;
  pq.terms = store_.analyzer().analyze(query);
  pq.term_hashes.reserve(pq.terms.size());
  for (const std::string& t : pq.terms) pq.term_hashes.push_back(hash_pair(t));
  pq.callback = std::move(cb);
  const std::uint64_t handle = next_query_handle_++;

  // Immediately evaluate against the current community view.
  auto [it, inserted] = persistent_queries_.emplace(handle, std::move(pq));
  PersistentQuery& stored = it->second;
  for (const DocumentId& doc : store_.search_all_terms(stored.raw)) {
    if (stored.seen.insert(doc).second) {
      const index::Document* d = store_.document(doc);
      if (d != nullptr) stored.callback(SearchHit{doc, 0.0, d->title, d->xml_source});
    }
  }
  for (PeerId peer : candidates_for(stored.terms)) {
    run_persistent_query_against(stored, peer);
  }
  return handle;
}

bool Node::remove_persistent_query(std::uint64_t handle) {
  return persistent_queries_.erase(handle) > 0;
}

void Node::run_persistent_query_against(PersistentQuery& q, PeerId target) {
  if (community_ == nullptr) return;
  for (const SearchHit& hit : community_->contact_exhaustive(id_, target, q.raw)) {
    if (q.seen.insert(hit.doc).second) q.callback(hit);
  }
}

void Node::on_directory_update(PeerId origin) {
  if (origin == id_) return;
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
      for (const SearchHit& hit : community_->contact_exhaustive(id_, origin, rv.raw)) {
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
  if (snippet.publisher == id_) return;
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
