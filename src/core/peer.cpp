#include "core/peer.hpp"

#include <algorithm>

#include "bloom/wire.hpp"
#include "search/ranker.hpp"

namespace planetp::core {

Peer::Peer(gossip::PeerId id, const PeerConfig& config, Rng protocol_rng)
    : id_(id),
      config_(config),
      store_(id, config.bloom, config.analyzer),
      protocol_(id, config.gossip, std::move(protocol_rng)),
      last_announced_(std::make_shared<const bloom::BloomFilter>(config.bloom)),
      cache_(config.candidate_cache) {
  // Keep the candidate cache warm from the gossip stream: an XOR filter diff
  // flips the bits of a resident decoded copy (only cached terms whose bits
  // the diff touches are fixed), rejoin version bumps are recorded without
  // re-decoding, and anything else drops the stale filter; filter_of decodes
  // the directory record's bytes on next use.
  protocol_.hooks().on_apply = [this](const gossip::RumorPayload& payload, TimePoint) {
    if (payload.origin == id_) return;
    // A rejoin re-announces unchanged content.
    const gossip::FilterUpdate* fu = payload.filter ? &*payload.filter : nullptr;
    cache_.apply_update(payload.origin, payload.version,
                        fu != nullptr && payload.kind != gossip::EventKind::kRejoin,
                        fu != nullptr ? fu->base_version : 0,
                        fu != nullptr ? fu->bits : std::span<const std::uint8_t>{});
  };
  protocol_.hooks().on_expire = [this](gossip::PeerId peer) { cache_.remove_peer(peer); };
}

void Peer::announce(std::size_t terms_before, TimePoint now) {
  const std::size_t terms = store_.num_terms();
  const auto new_keys = static_cast<std::uint32_t>(terms - std::min(terms, terms_before));
  auto current = std::make_shared<const bloom::BloomFilter>(store_.bloom_filter());
  ByteWriter diff_writer;
  bloom::encode_diff(diff_writer, current->diff_from(*last_announced_));
  ByteWriter full_writer;
  bloom::encode_filter(full_writer, *current);
  protocol_.local_filter_change(static_cast<std::uint32_t>(terms), new_keys,
                                diff_writer.take(), full_writer.take(), now);
  last_announced_ = std::move(current);
  announced_version_ = store_.filter_version();
}

index::DocumentId Peer::publish(std::string xml, TimePoint now) {
  const std::size_t terms_before = store_.num_terms();
  const index::DocumentId doc = store_.publish(std::move(xml));
  announce(terms_before, now);
  return doc;
}

bool Peer::unpublish(index::DocumentId doc, TimePoint now) {
  const std::size_t terms_before = store_.num_terms();
  if (!store_.unpublish(doc)) return false;
  announce(terms_before, now);
  return true;
}

bool Peer::republish(index::DocumentId doc, std::string xml, TimePoint now) {
  const std::size_t terms_before = store_.num_terms();
  if (!store_.republish(doc, std::move(xml))) return false;
  announce(terms_before, now);
  return true;
}

gossip::PeerRecord Peer::join_record(std::string address,
                                     gossip::LinkClass link_class) const {
  gossip::PeerRecord r;
  r.id = id_;
  r.address = std::move(address);
  r.link_class = link_class;
  r.version = 1;
  r.online = true;
  r.key_count = static_cast<std::uint32_t>(store_.num_terms());
  ByteWriter w;
  bloom::encode_filter(w, *own_filter());
  r.filter_wire = w.take();
  return r;
}

std::shared_ptr<const bloom::BloomFilter> Peer::filter_of(gossip::PeerId peer) const {
  if (peer == id_) return own_filter();
  const gossip::PeerRecord* record = protocol_.directory().find(peer);
  if (record == nullptr || record->filter_wire.empty()) return nullptr;
  return filter_of(*record);
}

std::shared_ptr<const bloom::BloomFilter> Peer::filter_of(
    const gossip::PeerRecord& record) const {
  // The record's bytes are the only stored encoding; the cache decodes them
  // when it holds no copy at the record's version.
  return cache_.resident_filter(record.id, record.version, record.filter_wire);
}

std::shared_ptr<const bloom::BloomFilter> Peer::own_filter() const {
  // Cache versions are non-zero; the store's version starts at 0. Kept in
  // the cache so the self row of a ranked search resolves through warm
  // entries too.
  const std::uint64_t version = store_.filter_version() + 1;
  if (cache_.version_of(id_) == version) {
    if (auto cached = cache_.filter_of(id_)) return cached;
  }
  // The filter announce projected, unless the store was changed through
  // store() since then.
  auto own = store_.filter_version() == announced_version_
                 ? last_announced_
                 : std::make_shared<const bloom::BloomFilter>(store_.bloom_filter());
  cache_.update_peer(id_, own, version);
  return own;
}

Peer::SearchView Peer::search_view() const {
  SearchView view;
  protocol_.directory().for_each([&](const gossip::PeerRecord& r) {
    if (r.id == id_ || !r.online || r.filter_wire.empty()) return;
    auto f = filter_of(r);
    if (f == nullptr) return;
    view.peers.push_back(search::PeerFilter{r.id, f.get(), r.suspicion});
    view.pins.push_back(std::move(f));
  });
  auto own = own_filter();
  view.peers.push_back(search::PeerFilter{id_, own.get()});
  view.pins.push_back(std::move(own));
  return view;
}

search::DistributedSearchOptions Peer::search_options(std::size_t k,
                                                      std::uint64_t seed) const {
  search::DistributedSearchOptions opts;
  opts.k = k;
  opts.group_size = config_.search_group_size;
  opts.stopping = config_.stopping;
  opts.retry = config_.search_retry;
  opts.deadline = config_.search_deadline;
  opts.hedge_threshold = config_.search_hedge_threshold;
  opts.seed = seed;
  opts.cache = &cache_;
  return opts;
}

void Peer::record_contact(gossip::PeerId peer, bool ok, TimePoint now) {
  if (peer == id_) return;
  if (ok) {
    protocol_.directory().record_query_success(peer);
  } else {
    protocol_.directory().record_query_failure(peer, now);
  }
}

void Peer::record_outcomes(const std::vector<search::PeerOutcome>& outcomes,
                           TimePoint now) {
  for (const search::PeerOutcome& outcome : outcomes) {
    record_contact(outcome.peer, outcome.status == search::ContactStatus::kOk, now);
  }
}

std::vector<gossip::PeerId> Peer::candidates_for(
    const std::vector<std::string>& terms) const {
  std::vector<gossip::PeerId> out;
  if (terms.empty()) return out;
  // Hash once, not once per (peer, term).
  std::vector<HashPair> hashes;
  hashes.reserve(terms.size());
  for (const std::string& t : terms) hashes.push_back(hash_pair(t));
  protocol_.directory().for_each([&](const gossip::PeerRecord& r) {
    if (r.id == id_ || r.filter_wire.empty()) return;
    const auto filter = filter_of(r);
    if (filter == nullptr) return;
    for (const HashPair& hp : hashes) {
      if (!filter->contains(hp)) return;
    }
    out.push_back(r.id);
  });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<search::ScoredDoc> Peer::rank(
    const std::unordered_map<std::string, double>& weights, std::size_t k) const {
  return search::top_k(*store_.snapshot(), weights, k);
}

}  // namespace planetp::core
