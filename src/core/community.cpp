#include "core/community.hpp"

#include <algorithm>

namespace planetp::core {

Community::Community(NodeConfig defaults, SyncMode mode, std::uint64_t seed)
    : defaults_(std::move(defaults)), mode_(mode), rng_(seed) {}

Community::~Community() = default;

Node& Community::create_node() { return create_node(defaults_); }

Node& Community::create_node(const NodeConfig& config) {
  const PeerId id = static_cast<PeerId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(id, config, this));
  online_.push_back(true);
  next_round_.push_back(clock_.now() +
                        static_cast<Duration>(rng_.below(
                            static_cast<std::uint64_t>(defaults_.gossip.base_interval))));
  Node& node = *nodes_.back();

  // The peer's own hook maintains its candidate cache (surgical diff
  // application keeps warm entries warm); the persistent-query/rendezvous
  // machinery runs after it, since it may decode the updated filter.
  gossip::Protocol::Hooks& hooks = node.protocol().hooks();
  hooks.on_apply = [this, id, update_cache = std::move(hooks.on_apply)](
                       const gossip::RumorPayload& payload, TimePoint now) {
    update_cache(payload, now);
    applied_update(id, payload.origin);
  };

  // The node joined its gossip layer on construction. In instant mode
  // everybody learns immediately; in gossip mode the join rumor has to
  // propagate like any other.
  if (mode_ == SyncMode::kInstant) {
    record_changed(id);
    // The newcomer also gets everyone else's records.
    for (const auto& other : nodes_) {
      if (other->id() == id) continue;
      const gossip::PeerRecord* r = other->protocol().directory().find(other->id());
      if (r != nullptr) node.protocol().directory().apply(*r);
    }
  } else if (nodes_.size() > 1) {
    // Bootstrap through a random existing member (§3's join flow).
    const PeerId introducer = static_cast<PeerId>(rng_.below(nodes_.size() - 1));
    deliver_all(id, {node.protocol().join_via(introducer, clock_.now())});
  }

  brokers_.join(id);
  return node;
}

void Community::record_changed(PeerId origin) {
  if (mode_ != SyncMode::kInstant) return;  // gossip mode spreads it itself
  const gossip::PeerRecord* record = nodes_[origin]->protocol().directory().find(origin);
  if (record == nullptr) return;
  for (auto& node : nodes_) {
    if (node->id() == origin) continue;
    if (node->protocol().directory().apply(*record)) {
      node->on_directory_update(origin);
    }
  }
}

void Community::applied_update(PeerId at_node, PeerId origin) {
  nodes_[at_node]->on_directory_update(origin);
}

void Community::snippet_published(const broker::Snippet& snippet) {
  brokers_.publish(snippet);
  for (auto& node : nodes_) {
    if (online_[node->id()]) node->on_broker_snippet(snippet);
  }
}

void Community::set_online(PeerId id, bool online) {
  if (online_[id] == online) return;
  online_[id] = online;
  if (online) {
    nodes_[id]->protocol().local_rejoin(clock_.now());
    if (mode_ == SyncMode::kInstant) {
      record_changed(id);
    } else {
      // Catch-up anti-entropy: pull what we slept through (§3's join flow).
      Rng& rng = rng_;
      const PeerId target = nodes_[id]->protocol().directory().random_online(rng);
      if (target != gossip::kInvalidPeer) {
        deliver_all(id, {nodes_[id]->protocol().join_via(target, clock_.now())});
      }
    }
    brokers_.join(id);
  } else {
    // Leaving is silent (§3) — and abrupt departure loses brokered data (§4).
    brokers_.leave_abruptly(id);
  }
}

void Community::step(Duration dt) {
  if (mode_ != SyncMode::kGossipStep) return;
  const TimePoint limit = clock_.now() + dt;
  while (clock_.now() < limit) {
    // Find the earliest due round within the window.
    TimePoint next = limit;
    for (PeerId id = 0; id < nodes_.size(); ++id) {
      if (online_[id]) next = std::min(next, next_round_[id]);
    }
    clock_.schedule_at(next, [] {});
    clock_.run_until(next);
    run_due_rounds();
    if (next >= limit) break;
  }
}

void Community::run_due_rounds() {
  for (PeerId id = 0; id < nodes_.size(); ++id) {
    if (!online_[id] || next_round_[id] > clock_.now()) continue;
    auto batch = nodes_[id]->protocol().on_round(clock_.now());
    next_round_[id] = clock_.now() + nodes_[id]->protocol().current_interval();
    deliver_all(id, std::move(batch));
  }
}

void Community::deliver_all(PeerId from, std::vector<gossip::Protocol::Outgoing> batch) {
  // Synchronous, zero-latency delivery; replies are processed recursively
  // (bounded: protocols never loop — every reply chain ends in at most a
  // pull response).
  for (auto& out : batch) {
    if (out.to >= nodes_.size()) continue;
    if (!online_[out.to]) {
      nodes_[from]->protocol().on_send_failed(out.to, clock_.now());
      continue;
    }
    auto replies = nodes_[out.to]->protocol().on_message(clock_.now(), from, out.msg);
    deliver_all(out.to, std::move(replies));
  }
}

bool Community::step_until_converged(Duration limit, Duration stride) {
  if (mode_ == SyncMode::kInstant) return true;
  const TimePoint deadline = clock_.now() + limit;
  while (clock_.now() < deadline) {
    step(stride);
    // Converged when every online node knows every member's newest version.
    bool ok = true;
    for (const auto& a : nodes_) {
      if (!online_[a->id()]) continue;
      for (const auto& b : nodes_) {
        const gossip::PeerRecord* own = b->protocol().directory().find(b->id());
        const gossip::PeerRecord* seen = a->protocol().directory().find(b->id());
        if (own != nullptr && (seen == nullptr || seen->version < own->version)) {
          ok = false;
          break;
        }
      }
      if (!ok) break;
    }
    if (ok) return true;
  }
  return false;
}

search::PeerSearchResult Community::contact_ranked(
    PeerId caller, PeerId target,
    const std::unordered_map<std::string, double>& term_weights, std::size_t k) {
  if (target >= nodes_.size() || !online_[target]) {
    if (caller < nodes_.size()) {
      nodes_[caller]->protocol().on_send_failed(target, clock_.now());
    }
    return search::PeerSearchResult::failure(search::ContactStatus::kUnreachable);
  }
  return search::PeerSearchResult::ok(nodes_[target]->handle_ranked_query(term_weights, k));
}

std::vector<SearchHit> Community::contact_exhaustive(PeerId caller, PeerId target,
                                                     std::string_view query) {
  if (target >= nodes_.size() || !online_[target]) {
    if (caller < nodes_.size()) {
      nodes_[caller]->protocol().on_send_failed(target, clock_.now());
    }
    return {};
  }
  return nodes_[target]->handle_exhaustive_query(query);
}

std::vector<SearchHit> Community::contact_proxy_search(PeerId caller, PeerId proxy,
                                                       std::string_view query,
                                                       std::size_t k) {
  if (proxy >= nodes_.size() || !online_[proxy]) {
    if (caller < nodes_.size()) {
      nodes_[caller]->protocol().on_send_failed(proxy, clock_.now());
    }
    return {};
  }
  return nodes_[proxy]->ranked_search(query, k);
}

const index::Document* Community::fetch_document(const DocumentId& doc) {
  if (doc.peer >= nodes_.size() || !online_[doc.peer]) return nullptr;
  return nodes_[doc.peer]->store().document(doc);
}

}  // namespace planetp::core
