#include "net/live_node.hpp"

#include <algorithm>

#include "bloom/wire.hpp"
#include "gossip/messages.hpp"
#include "index/persistence.hpp"
#include "index/xml.hpp"
#include "search/ranker.hpp"
#include "util/logging.hpp"

namespace planetp::net {

using gossip::PeerId;

LiveNode::LiveNode(PeerId id, LiveNodeConfig config, std::uint16_t port)
    : id_(id),
      config_(config),
      reactor_(config.reactor),
      store_(id, config.bloom, config.analyzer),
      protocol_(id, config.gossip, Rng(0x11fe00d ^ id)),
      last_announced_(config.bloom),
      filter_cache_(config.candidate_cache) {
  reactor_.listen(port);
  // Keep the candidate cache warm from the gossip stream: XOR filter diffs
  // apply surgically (cached terms whose bits the diff misses stay warm),
  // rejoins are version touches, anything else drops the stale filter for
  // lazy re-decode on the next query. Both hooks fire under mu_.
  protocol_.hooks().on_apply = [this](const gossip::RumorPayload& payload, TimePoint) {
    if (payload.origin == id_) return;
    if (!payload.filter.has_value() || payload.kind == gossip::EventKind::kRejoin) {
      filter_cache_.touch_peer(payload.origin, payload.version);
      return;
    }
    const gossip::FilterUpdate& fu = *payload.filter;
    if (fu.base_version != 0 && !fu.bits.empty()) {
      // Wire-backed peers absorb the diff in the Golomb gap domain (at-rest
      // bytes updated in place, resident decoded copies fixed surgically).
      if (filter_cache_.apply_peer_diff_wire(payload.origin, fu.bits, fu.base_version,
                                             payload.version)) {
        return;
      }
      try {
        ByteReader reader(fu.bits);
        const BitVector diff = bloom::decode_diff(reader);
        if (filter_cache_.apply_peer_diff(payload.origin, diff, fu.base_version,
                                          payload.version)) {
          return;
        }
      } catch (const std::exception&) {
      }
    }
    filter_cache_.remove_peer(payload.origin);
  };
  protocol_.hooks().on_expire = [this](PeerId peer) { filter_cache_.remove_peer(peer); };
}

LiveNode::~LiveNode() { stop(); }

namespace {
TimePoint steady_micros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

void LiveNode::start() {
  if (started_) return;
  started_ = true;
  fault_origin_ = steady_micros();
  reactor_.start([this](const Frame& f) { on_frame(f); },
                 [this](const std::string& addr) { on_send_failure(addr); });
  Duration first = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ByteWriter w;
    bloom::encode_filter(w, store_.bloom_filter());
    const auto key_count = static_cast<std::uint32_t>(store_.num_terms());
    if (bootstrap_requested_) {
      // Converged start: install everyone quietly, no join rumor. When the
      // seeded records carried a version for ourselves (restart keeping the
      // directory) resume from it so peers' stale records lose to ours.
      protocol_.quiet_start(address(), gossip::LinkClass::kFast, key_count, w.take());
      protocol_.bootstrap(bootstrap_records_);
      if (bootstrap_self_version_ > 1) {
        if (const gossip::PeerRecord* self = protocol_.directory().find(id_)) {
          gossip::PeerRecord resumed = *self;
          resumed.version = bootstrap_self_version_;
          protocol_.directory().put_self(std::move(resumed));
        }
      }
      bootstrap_records_.clear();
    } else {
      protocol_.local_join(address(), gossip::LinkClass::kFast, key_count, w.take(), 0);
    }
    // Under mu_: the reactor is already delivering frames, and a received
    // rumor resets the interval.
    first = protocol_.current_interval();
  }
  {
    std::lock_guard<std::mutex> lock(jitter_mu_);
    last_round_due_ = steady_micros() + first;
  }
  reactor_.schedule(first, [this] { gossip_round(); });
  reactor_.schedule(5 * kSecond, [this] { sweep_broker_store(); });
}

void LiveNode::bootstrap_converged(std::vector<gossip::PeerRecord> records) {
  std::lock_guard<std::mutex> lock(mu_);
  bootstrap_self_version_ = 0;
  for (const gossip::PeerRecord& r : records) {
    if (r.id == id_) bootstrap_self_version_ = r.version;
  }
  bootstrap_records_ = std::move(records);
  bootstrap_requested_ = true;
}

gossip::PeerRecord LiveNode::bootstrap_record(bool include_filter) const {
  std::lock_guard<std::mutex> lock(mu_);
  gossip::PeerRecord r;
  r.id = id_;
  r.address = reactor_.address();
  r.link_class = gossip::LinkClass::kFast;
  r.version = 1;
  r.online = true;
  r.key_count = static_cast<std::uint32_t>(store_.num_terms());
  if (include_filter && r.key_count > 0) {
    ByteWriter w;
    bloom::encode_filter(w, store_.bloom_filter());
    r.filter_wire = w.take();
  }
  return r;
}

void LiveNode::announce_rejoin() {
  std::lock_guard<std::mutex> lock(mu_);
  // Bumps our version and rumors presence; the rumor rides the next round.
  protocol_.local_rejoin(steady_micros());
}

void LiveNode::stop() {
  if (!started_) return;
  started_ = false;
  reactor_.stop();
}

void LiveNode::join(PeerId introducer, const std::string& introducer_address) {
  std::vector<gossip::Protocol::Outgoing> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Seed a provisional record (version 0) so messages can route to the
    // introducer before its real record arrives.
    gossip::PeerRecord seed;
    seed.id = introducer;
    seed.address = introducer_address;
    seed.version = 0;
    protocol_.directory().apply(seed);
    out.push_back(protocol_.join_via(introducer, steady_micros()));
  }
  send_outgoing(std::move(out));
}

namespace {
constexpr std::size_t kJitterWindow = 512;
}

void LiveNode::gossip_round() {
  if (!started_) return;
  const TimePoint entered = steady_micros();
  rounds_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(jitter_mu_);
    if (last_round_due_ != 0) {
      const Duration jitter =
          entered > last_round_due_ ? entered - last_round_due_ : last_round_due_ - entered;
      if (jitter_samples_.size() >= kJitterWindow) {
        jitter_samples_.erase(jitter_samples_.begin());
      }
      jitter_samples_.push_back(jitter);
    }
  }
  std::vector<gossip::Protocol::Outgoing> out;
  Duration next;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = protocol_.on_round(steady_micros());
    next = protocol_.current_interval();
  }
  send_outgoing(std::move(out));
  {
    std::lock_guard<std::mutex> lock(jitter_mu_);
    last_round_due_ = steady_micros() + next;
  }
  reactor_.schedule(next, [this] { gossip_round(); });
}

std::vector<Duration> LiveNode::round_jitter_samples() const {
  std::lock_guard<std::mutex> lock(jitter_mu_);
  return jitter_samples_;
}

NetStats LiveNode::net_stats() const {
  NetStats s = reactor_.stats();
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.gossip = protocol_.stats();
  }
  return s;
}

std::string LiveNode::address_of(PeerId peer) const {
  const gossip::PeerRecord* record = protocol_.directory().find(peer);
  return record == nullptr ? std::string{} : record->address;
}

void LiveNode::send_outgoing(std::vector<gossip::Protocol::Outgoing> batch) {
  for (auto& out : batch) {
    std::string addr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      addr = address_of(out.to);
    }
    if (addr.empty()) continue;
    Frame frame;
    frame.sender = id_;
    frame.channel = Channel::kGossip;
    frame.payload = gossip::encode_message(out.msg);
    // Pull responses answer an explicit request (anti-entropy pull or a lazy
    // RumorWant): dropping one under backpressure would strand the asker
    // until a retry, so they ride the never-evicted RPC send class. Everything
    // else is periodic gossip and may be shed.
    const SendClass cls = std::holds_alternative<gossip::PullResponseMsg>(out.msg)
                              ? SendClass::kRpc
                              : SendClass::kGossip;

    if (config_.faults) {
      // The fault-wrapping transport: the same FaultPlan the simulator runs,
      // applied to real frames. Drops are silent wire loss; delayed and
      // duplicate copies ride the reactor's timer heap.
      const sim::FaultDecision fault = config_.faults->decide(
          id_, out.to, steady_micros() - fault_origin_, sim::msg_class_of(out.msg));
      if (fault.drop) continue;
      for (const Duration lag : fault.duplicate_lags) {
        reactor_.schedule(fault.extra_delay + std::max<Duration>(lag, 1),
                          [this, addr, frame, cls] { reactor_.send(addr, Frame(frame), cls); });
      }
      if (fault.extra_delay > 0) {
        reactor_.schedule(fault.extra_delay, [this, addr, frame, cls]() mutable {
          reactor_.send(addr, std::move(frame), cls);
        });
        continue;
      }
    }
    reactor_.send(addr, std::move(frame), cls);
  }
}

void LiveNode::on_frame(const Frame& frame) {
  if (frame.channel == Channel::kGossip) {
    std::vector<gossip::Protocol::Outgoing> replies;
    try {
      const gossip::Message msg = gossip::decode_message(frame.payload);
      std::lock_guard<std::mutex> lock(mu_);
      replies = protocol_.on_message(steady_micros(), frame.sender, msg);
    } catch (const std::exception& e) {
      PLOG_WARN("net", "bad gossip frame from ", frame.sender, ": ", e.what());
      return;
    }
    send_outgoing(std::move(replies));
    return;
  }
  try {
    handle_rpc(frame.sender, decode_rpc(frame.payload));
  } catch (const std::exception& e) {
    PLOG_WARN("net", "bad rpc frame from ", frame.sender, ": ", e.what());
  }
}

void LiveNode::on_send_failure(const std::string& address) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Identify which peer the address belongs to and mark it offline (§3).
    PeerId failed = gossip::kInvalidPeer;
    protocol_.directory().for_each([&](const gossip::PeerRecord& r) {
      if (r.address == address) failed = r.id;
    });
    if (failed != gossip::kInvalidPeer) protocol_.on_send_failed(failed, 0);
  }
  // Fail any synchronous RPC waiting on this address now rather than letting
  // it burn the full rpc_timeout against a dead socket.
  bool woke = false;
  {
    std::lock_guard<std::mutex> lock(rpc_mu_);
    for (auto& [id, pending] : rpc_pending_) {
      if (pending.address == address && !pending.failed) {
        pending.failed = true;
        woke = true;
      }
    }
  }
  if (woke) rpc_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Publishing
// ---------------------------------------------------------------------------

void LiveNode::announce_filter_change(std::uint32_t new_keys) {
  std::vector<gossip::Protocol::Outgoing> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const bloom::BloomFilter current = store_.bloom_filter();
    ByteWriter diff_writer;
    bloom::encode_diff(diff_writer, current.diff_from(last_announced_));
    ByteWriter full_writer;
    bloom::encode_filter(full_writer, current);
    protocol_.local_filter_change(static_cast<std::uint32_t>(store_.num_terms()),
                                  new_keys, diff_writer.take(), full_writer.take(), 0);
    last_announced_ = current;
  }
}

index::DocumentId LiveNode::publish(std::string xml) {
  index::DocumentId doc;
  std::size_t before, after;
  {
    std::lock_guard<std::mutex> lock(mu_);
    before = store_.num_terms();
    doc = store_.publish(std::move(xml));
    after = store_.num_terms();
  }
  announce_filter_change(static_cast<std::uint32_t>(after - before));
  return doc;
}

index::DocumentId LiveNode::publish_text(std::string_view title, std::string_view body) {
  return publish(index::wrap_text_as_xml(title, body));
}

// ---------------------------------------------------------------------------
// RPC server side
// ---------------------------------------------------------------------------

void LiveNode::reply_rpc(std::uint32_t peer, const RpcMessage& msg) {
  std::string addr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    addr = address_of(peer);
  }
  if (addr.empty()) return;
  Frame frame;
  frame.sender = id_;
  frame.channel = Channel::kRpc;
  frame.payload = encode_rpc(msg);
  reactor_.send(addr, std::move(frame), SendClass::kRpc);
}

void LiveNode::handle_rpc(std::uint32_t sender, const RpcMessage& msg) {
  if (const auto* req = std::get_if<RankedRequest>(&msg)) {
    RankedResponse resp;
    resp.request_id = req->request_id;
    std::unordered_map<std::string, double> weights;
    for (const WeightedTerm& t : req->weights) weights.emplace(t.term, t.weight);
    // Rank lock-free against the published epoch snapshot; mu_ is only taken
    // afterwards for the title lookups.
    const auto scored = search::score_snapshot(*store_.snapshot(), weights);
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& d : scored) {
        const index::Document* doc = store_.document(d.doc);
        resp.docs.push_back(
            RemoteDoc{d.doc.peer, d.doc.local, d.score, doc != nullptr ? doc->title : ""});
      }
    }
    reply_rpc(sender, resp);
    return;
  }
  if (const auto* req = std::get_if<ExhaustiveRequest>(&msg)) {
    ExhaustiveResponse resp;
    resp.request_id = req->request_id;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const index::DocumentId& d : store_.search_all_terms(req->query)) {
        const index::Document* doc = store_.document(d);
        resp.docs.push_back(
            RemoteDoc{d.peer, d.local, 0.0, doc != nullptr ? doc->title : ""});
      }
    }
    reply_rpc(sender, resp);
    return;
  }
  if (const auto* req = std::get_if<FetchRequest>(&msg)) {
    FetchResponse resp;
    resp.request_id = req->request_id;
    std::unique_lock<std::mutex> lock(mu_);
    const index::Document* doc = store_.document(index::DocumentId{req->peer, req->local});
    if (doc != nullptr) {
      resp.found = true;
      resp.title = doc->title;
      resp.xml = doc->xml_source;
    } else {
      // Replica fallback: we may hold the document as a brokered snippet
      // (publisher + snippet id addressing), letting a fetch succeed after
      // the publisher died. Snippet ids are only meaningful to the caller
      // when it published the document's snippet under its local id.
      const TimePoint now = steady_micros();
      for (const auto& [key, s] : broker_store_.all()) {
        if (s.publisher == req->peer && s.id == req->local && s.discard_at > now) {
          resp.found = true;
          resp.xml = s.xml;
          break;
        }
      }
    }
    lock.unlock();
    reply_rpc(sender, resp);
    return;
  }
  if (const auto* req = std::get_if<StoreSnippetRequest>(&msg)) {
    // We are the responsible broker for (some of) this snippet's keys.
    broker::Snippet local;
    local.id = req->snippet.snippet_id;
    local.publisher = req->snippet.publisher;
    local.xml = req->snippet.xml;
    local.keys = req->snippet.keys;
    local.discard_at = steady_micros() + req->snippet.ttl_us;
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& key : local.keys) {
      const auto replicas = broker_replicas_for(key);
      if (std::find(replicas.begin(), replicas.end(), id_) != replicas.end()) {
        broker_store_.put(key, local);
      }
    }
    return;  // fire-and-forget
  }
  if (const auto* req = std::get_if<LookupSnippetRequest>(&msg)) {
    LookupSnippetResponse resp;
    resp.request_id = req->request_id;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const TimePoint now = steady_micros();
      for (const broker::Snippet& s : broker_store_.get(req->key, now)) {
        resp.snippets.push_back(
            WireSnippet{s.publisher, s.id, s.xml, s.keys, s.discard_at - now});
      }
    }
    reply_rpc(sender, resp);
    return;
  }
  // A response: hand to the waiting caller.
  {
    std::lock_guard<std::mutex> lock(rpc_mu_);
    rpc_responses_.emplace(rpc_request_id(msg), msg);
  }
  rpc_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// RPC client side
// ---------------------------------------------------------------------------

std::optional<RpcMessage> LiveNode::call(PeerId peer, RpcMessage request,
                                         search::ContactStatus* status) {
  const auto fail = [&](search::ContactStatus s) {
    if (status != nullptr) *status = s;
    return std::nullopt;
  };
  std::string addr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    addr = address_of(peer);
  }
  if (addr.empty()) return fail(search::ContactStatus::kUnreachable);

  const std::uint64_t request_id = rpc_request_id(request);
  Frame frame;
  frame.sender = id_;
  frame.channel = Channel::kRpc;
  frame.payload = encode_rpc(request);
  {
    std::lock_guard<std::mutex> lock(rpc_mu_);
    rpc_pending_.emplace(request_id, PendingRpc{addr, false});
  }
  if (reactor_.send(addr, std::move(frame), SendClass::kRpc) != SendResult::kEnqueued) {
    std::lock_guard<std::mutex> lock(rpc_mu_);
    rpc_pending_.erase(request_id);
    return fail(search::ContactStatus::kUnreachable);
  }

  std::unique_lock<std::mutex> lock(rpc_mu_);
  const bool got = rpc_cv_.wait_for(
      lock, std::chrono::microseconds(config_.rpc_timeout), [&] {
        return rpc_responses_.contains(request_id) || rpc_pending_[request_id].failed;
      });
  const bool transport_failed = rpc_pending_[request_id].failed;
  rpc_pending_.erase(request_id);
  if (!got || !rpc_responses_.contains(request_id)) {
    // Transport gave up (connect refused / dropped frame) => unreachable,
    // reported in far less than rpc_timeout; silence => timeout.
    return fail(transport_failed ? search::ContactStatus::kUnreachable
                                 : search::ContactStatus::kTimeout);
  }
  if (status != nullptr) *status = search::ContactStatus::kOk;
  auto node = rpc_responses_.extract(request_id);
  return std::move(node.mapped());
}

std::shared_ptr<const bloom::BloomFilter> LiveNode::cached_filter(
    const gossip::PeerRecord& record) {
  if (auto cached = filter_cache_.version_of(record.id);
      !cached.has_value() || *cached != record.version) {
    // At rest in the cache as the record's compressed wire; decoded on
    // demand below, bounded by candidate_cache.max_decoded_bytes.
    filter_cache_.update_peer_wire(record.id, record.filter_wire, record.version);
  }
  return filter_cache_.resident_filter(record.id);
}

std::shared_ptr<const bloom::BloomFilter> LiveNode::own_filter() {
  // Cache versions are non-zero; the store's version starts at 0.
  const std::uint64_t version = store_.filter_version() + 1;
  if (auto cached = filter_cache_.version_of(id_); !cached.has_value() || *cached != version) {
    filter_cache_.update_peer(id_, std::make_shared<bloom::BloomFilter>(store_.bloom_filter()),
                              version);
  }
  return filter_cache_.filter_of(id_);
}

std::vector<LiveHit> LiveNode::ranked_search(std::string_view query, std::size_t k) {
  std::vector<std::string> terms;
  std::vector<search::PeerFilter> views;
  // Shared ownership pins the view's filters: a concurrent gossip update
  // swaps the cache's copy (copy-on-write) without invalidating this query.
  std::vector<std::shared_ptr<const bloom::BloomFilter>> pinned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    terms = store_.analyzer().analyze(query);
    protocol_.directory().for_each([&](const gossip::PeerRecord& r) {
      if (r.id == id_ || !r.online || r.filter_wire.empty()) return;
      auto f = cached_filter(r);
      if (f == nullptr) return;
      views.push_back(search::PeerFilter{r.id, f.get(), r.suspicion});
      pinned.push_back(std::move(f));
    });
    auto own = own_filter();
    views.push_back(search::PeerFilter{id_, own.get()});
    pinned.push_back(std::move(own));
  }
  if (terms.empty()) return {};

  std::unordered_map<index::DocumentId, std::string, index::DocumentIdHash> titles;
  const auto contact = [&](std::uint32_t peer,
                           const std::unordered_map<std::string, double>& weights)
      -> search::PeerSearchResult {
    if (peer == id_) {
      // Self-evaluation ranks lock-free against the epoch snapshot; mu_
      // guards only the title map.
      auto docs = search::score_snapshot(*store_.snapshot(), weights);
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& d : docs) {
        const index::Document* doc = store_.document(d.doc);
        if (doc != nullptr) titles[d.doc] = doc->title;
      }
      return search::PeerSearchResult::ok(std::move(docs));
    }
    RankedRequest req;
    {
      std::lock_guard<std::mutex> lock(rpc_mu_);
      req.request_id = next_request_id_++;
    }
    for (const auto& [term, weight] : weights) req.weights.push_back({term, weight});
    const TimePoint sent_at = steady_micros();
    search::ContactStatus status = search::ContactStatus::kTimeout;
    const auto resp = call(peer, req, &status);
    const Duration latency = steady_micros() - sent_at;
    if (!resp) {
      // kTimeout: silence within rpc_timeout (retryable). kUnreachable: the
      // transport itself gave up on the peer — no point retrying in-query.
      return search::PeerSearchResult::failure(status, latency);
    }
    if (const auto* r = std::get_if<RankedResponse>(&*resp)) {
      std::vector<search::ScoredDoc> docs;
      for (const RemoteDoc& d : r->docs) {
        const index::DocumentId doc_id{d.peer, d.local};
        docs.push_back(search::ScoredDoc{doc_id, d.score});
        titles[doc_id] = d.title;
      }
      return search::PeerSearchResult::ok(std::move(docs), latency);
    }
    // Wrong variant or an explicit ErrorResponse: the peer answered but
    // could not serve the query.
    return search::PeerSearchResult::failure(search::ContactStatus::kError, latency);
  };

  search::DistributedSearchOptions opts;
  opts.k = k;
  opts.group_size = config_.search_group_size;
  opts.stopping = config_.stopping;
  opts.retry = config_.search_retry;
  opts.deadline = config_.search_deadline;
  opts.hedge_threshold = config_.search_hedge_threshold;
  opts.seed = 0x5ea2c4u ^ id_;
  opts.cache = &filter_cache_;
  opts.clock = [] { return steady_micros(); };
  opts.sleep = [](Duration d) {
    if (d > 0) std::this_thread::sleep_for(std::chrono::microseconds(d));
  };
  const auto result = search::tfipf_search(terms, views, contact, opts);

  // SUSPECT feedback: repeated query failures demote a peer in future
  // rankings and eventually mark it offline locally.
  for (const search::PeerOutcome& outcome : result.outcomes) {
    note_contact_outcome(outcome.peer, outcome.status == search::ContactStatus::kOk);
  }

  std::vector<LiveHit> hits;
  for (const auto& d : result.docs) {
    hits.push_back(LiveHit{d.doc.peer, d.doc.local, d.score, titles[d.doc]});
  }
  return hits;
}

std::vector<LiveHit> LiveNode::exhaustive_search(std::string_view query) {
  std::vector<std::string> terms;
  std::vector<PeerId> candidates;
  std::vector<LiveHit> hits;
  {
    std::lock_guard<std::mutex> lock(mu_);
    terms = store_.analyzer().analyze(query);
    if (terms.empty()) return {};
    for (const index::DocumentId& d : store_.search_all_terms(query)) {
      const index::Document* doc = store_.document(d);
      hits.push_back(LiveHit{d.peer, d.local, 0.0, doc != nullptr ? doc->title : ""});
    }
    // Hash once per query, probe cached filters (no per-query decode).
    std::vector<HashPair> hashes;
    hashes.reserve(terms.size());
    for (const std::string& t : terms) hashes.push_back(hash_pair(t));
    protocol_.directory().for_each([&](const gossip::PeerRecord& r) {
      if (r.id == id_ || !r.online || r.filter_wire.empty()) return;
      const auto f = cached_filter(r);
      if (f == nullptr) return;
      for (const HashPair& hp : hashes) {
        if (!f->contains(hp)) return;
      }
      candidates.push_back(r.id);
    });
  }
  for (PeerId peer : candidates) {
    ExhaustiveRequest req;
    {
      std::lock_guard<std::mutex> lock(rpc_mu_);
      req.request_id = next_request_id_++;
    }
    req.query = std::string(query);
    const auto resp = call(peer, req);
    if (resp) {
      if (const auto* r = std::get_if<ExhaustiveResponse>(&*resp)) {
        for (const RemoteDoc& d : r->docs) {
          hits.push_back(LiveHit{d.peer, d.local, 0.0, d.title});
        }
      }
    }
  }
  return hits;
}

std::optional<std::string> LiveNode::fetch_document(std::uint32_t peer, std::uint32_t local) {
  return fetch_document(peer, local, {});
}

std::optional<std::string> LiveNode::fetch_document(
    std::uint32_t peer, std::uint32_t local, const std::vector<gossip::PeerId>& alternates) {
  if (peer == id_) {
    std::lock_guard<std::mutex> lock(mu_);
    const index::Document* doc = store_.document(index::DocumentId{peer, local});
    if (doc == nullptr) return std::nullopt;
    return doc->xml_source;
  }

  // Owner first (with the configured retry budget), then each alternate
  // replica once: a broker holding the document's snippet can serve it when
  // the publisher is gone.
  std::vector<gossip::PeerId> targets{peer};
  for (const gossip::PeerId alt : alternates) {
    if (alt != id_ && std::find(targets.begin(), targets.end(), alt) == targets.end()) {
      targets.push_back(alt);
    }
  }
  Rng rng(0xfe7c4u ^ id_ ^ (static_cast<std::uint64_t>(peer) << 32 | local));
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const gossip::PeerId target = targets[t];
    const std::uint32_t attempts =
        t == 0 ? std::max<std::uint32_t>(1, config_.search_retry.max_attempts) : 1;
    for (std::uint32_t attempt = 1; attempt <= attempts; ++attempt) {
      FetchRequest req;
      {
        std::lock_guard<std::mutex> lock(rpc_mu_);
        req.request_id = next_request_id_++;
      }
      req.peer = peer;
      req.local = local;
      const auto resp = call(target, req);
      if (resp) {
        note_contact_outcome(target, true);
        if (const auto* r = std::get_if<FetchResponse>(&*resp); r != nullptr && r->found) {
          return r->xml;
        }
        break;  // the peer answered "not found" — retrying won't change that
      }
      note_contact_outcome(target, false);
      if (attempt < attempts) {
        const Duration backoff = config_.search_retry.backoff_before(attempt, rng);
        if (backoff > 0) std::this_thread::sleep_for(std::chrono::microseconds(backoff));
      }
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

std::size_t LiveNode::known_peers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return protocol_.directory().size();
}

// ---------------------------------------------------------------------------
// Information brokerage over the live community
// ---------------------------------------------------------------------------

gossip::PeerId LiveNode::broker_for(const std::string& key) const {
  // Build the ring from the current membership view. Every online member is
  // a broker ("each active member chooses a unique broker ID", §4); all
  // peers derive ids the same way, so their rings agree once the directory
  // converges.
  broker::HashRing ring;
  protocol_.directory().for_each([&](const gossip::PeerRecord& r) {
    if (r.online || r.id == id_) ring.add_by_hash(r.id);
  });
  const auto owner = ring.responsible_for(key);
  return owner.value_or(gossip::kInvalidPeer);
}

std::vector<gossip::PeerId> LiveNode::broker_replicas_for(const std::string& key) const {
  broker::HashRing ring;
  protocol_.directory().for_each([&](const gossip::PeerRecord& r) {
    if (r.online || r.id == id_) ring.add_by_hash(r.id);
  });
  return ring.replicas_for(key, std::max<std::size_t>(1, config_.broker_replication));
}

void LiveNode::note_contact_outcome(PeerId peer, bool ok) {
  if (peer == id_) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (ok) {
    protocol_.directory().record_query_success(peer);
  } else {
    protocol_.directory().record_query_failure(peer, steady_micros());
  }
}

std::uint64_t LiveNode::publish_snippet(std::string xml, std::vector<std::string> keys,
                                        Duration ttl) {
  WireSnippet snippet;
  snippet.publisher = id_;
  snippet.xml = std::move(xml);
  snippet.keys = std::move(keys);
  snippet.ttl_us = ttl;
  {
    std::lock_guard<std::mutex> lock(rpc_mu_);
    snippet.snippet_id = next_snippet_id_++;
  }

  // Route each key to its full replica set (the owner plus the configured
  // number of ring successors); replicas that are this node store locally.
  std::vector<gossip::PeerId> remote_targets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& key : snippet.keys) {
      auto replicas = broker_replicas_for(key);
      if (replicas.empty()) replicas.push_back(id_);  // empty directory: keep it ourselves
      for (const gossip::PeerId owner : replicas) {
        if (owner == id_) {
          broker::Snippet local;
          local.id = snippet.snippet_id;
          local.publisher = id_;
          local.xml = snippet.xml;
          local.keys = snippet.keys;
          local.discard_at = steady_micros() + ttl;
          broker_store_.put(key, local);
        } else if (std::find(remote_targets.begin(), remote_targets.end(), owner) ==
                   remote_targets.end()) {
          remote_targets.push_back(owner);
        }
      }
    }
  }
  // One StoreSnippetRequest per distinct remote replica: the receiver keeps
  // the keys it is responsible for and ignores the rest.
  for (const gossip::PeerId owner : remote_targets) {
    std::string addr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      addr = address_of(owner);
    }
    if (addr.empty()) continue;
    StoreSnippetRequest req;
    req.snippet = snippet;
    Frame frame;
    frame.sender = id_;
    frame.channel = Channel::kRpc;
    frame.payload = encode_rpc(req);
    reactor_.send(addr, std::move(frame), SendClass::kRpc);
  }
  return snippet.snippet_id;
}

std::vector<WireSnippet> LiveNode::lookup_snippets(const std::string& key) {
  // Walk the key's replica set in ring order: the owner first, failing over
  // to each successor replica when a broker is dead or answers empty.
  std::vector<gossip::PeerId> replicas;
  {
    std::lock_guard<std::mutex> lock(mu_);
    replicas = broker_replicas_for(key);
  }
  if (replicas.empty()) replicas.push_back(id_);
  for (const gossip::PeerId owner : replicas) {
    if (owner == id_) {
      std::lock_guard<std::mutex> lock(mu_);
      std::vector<WireSnippet> out;
      const TimePoint now = steady_micros();
      for (const broker::Snippet& s : broker_store_.get(key, now)) {
        out.push_back(WireSnippet{s.publisher, s.id, s.xml, s.keys, s.discard_at - now});
      }
      if (!out.empty()) return out;
      continue;
    }
    LookupSnippetRequest req;
    {
      std::lock_guard<std::mutex> lock(rpc_mu_);
      req.request_id = next_request_id_++;
    }
    req.key = key;
    const auto resp = call(owner, req);
    if (!resp) {
      note_contact_outcome(owner, false);
      continue;  // broker unreachable: fail over to the next replica
    }
    note_contact_outcome(owner, true);
    if (const auto* r = std::get_if<LookupSnippetResponse>(&*resp)) {
      if (!r->snippets.empty()) return r->snippets;
    }
  }
  return {};
}

std::size_t LiveNode::brokered_snippet_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return broker_store_.snippet_count();
}

void LiveNode::sweep_broker_store() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    broker_store_.sweep(steady_micros());
  }
  if (started_) {
    reactor_.schedule(5 * kSecond, [this] { sweep_broker_store(); });
  }
}

std::vector<LiveNode::PeerInfo> LiveNode::directory_snapshot() const {
  std::vector<PeerInfo> out;
  std::lock_guard<std::mutex> lock(mu_);
  protocol_.directory().for_each([&](const gossip::PeerRecord& r) {
    out.push_back(PeerInfo{r.id, r.address, r.version, r.online, r.key_count});
  });
  std::sort(out.begin(), out.end(),
            [](const PeerInfo& a, const PeerInfo& b) { return a.id < b.id; });
  return out;
}

std::vector<std::uint8_t> LiveNode::serialize_store() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index::serialize_data_store(store_);
}

bool LiveNode::wait_for_peers(std::size_t n, Duration timeout) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::microseconds(timeout);
  while (std::chrono::steady_clock::now() < deadline) {
    if (known_peers() >= n) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return known_peers() >= n;
}

bool LiveNode::wait_for_version(PeerId peer, std::uint64_t version, Duration timeout) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::microseconds(timeout);
  while (std::chrono::steady_clock::now() < deadline) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      const gossip::PeerRecord* r = protocol_.directory().find(peer);
      if (r != nullptr && r->version >= version) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

}  // namespace planetp::net
