#include "sim/community.hpp"

#include <algorithm>
#include <stdexcept>

namespace planetp::sim {

using gossip::kInvalidPeer;
using gossip::LinkClass;
using gossip::Message;
using gossip::PeerId;
using gossip::PeerRecord;
using gossip::Protocol;
using gossip::RumorId;
using gossip::RumorPayload;

// ---------------------------------------------------------------------------
// ConvergenceTracker
// ---------------------------------------------------------------------------

void ConvergenceTracker::track(const RumorId& id, TimePoint start,
                               const std::vector<PeerId>& online_peers, PeerId origin) {
  if (origin_filter_ && !origin_filter_(origin)) return;
  Active a;
  a.start = start;
  for (PeerId p : online_peers) {
    if (p != origin && counts_(p)) a.unknown_online.insert(p);
  }
  a.known.insert(origin);
  ++total_events_;
  if (a.unknown_online.empty()) {
    durations_.add(0.0);
    return;
  }
  active_.emplace(id, std::move(a));
}

void ConvergenceTracker::learned(const RumorId& id, PeerId peer, TimePoint now) {
  auto it = active_.find(id);
  if (it == active_.end()) return;
  it->second.known.insert(peer);
  it->second.unknown_online.erase(peer);
  maybe_converge(id, it->second, now);
}

void ConvergenceTracker::peer_offline(PeerId peer, TimePoint now) {
  // An offline peer no longer gates convergence.
  for (auto it = active_.begin(); it != active_.end();) {
    Active& a = it->second;
    a.unknown_online.erase(peer);
    if (a.unknown_online.empty()) {
      durations_.add(to_seconds(now - a.start));
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
}

void ConvergenceTracker::maybe_converge(const RumorId& id, Active& a, TimePoint now) {
  if (!a.unknown_online.empty()) return;
  durations_.add(to_seconds(now - a.start));
  active_.erase(id);
}

// ---------------------------------------------------------------------------
// SimCommunity
// ---------------------------------------------------------------------------

SimCommunity::SimCommunity(SimConfig config)
    : config_(config),
      rng_(config.seed),
      faults_(config.faults, splitmix64(config.seed ^ 0xfa017u)),
      links_(std::make_unique<LinkModel>(config.network)),
      stats_(std::make_unique<NetworkStats>(0, config.network.bandwidth_bucket)) {
  if (config_.parallel_round_tick > 0) {
    pool_ = std::make_unique<ThreadPool>(config_.parallel_threads);
  }
}

PeerId SimCommunity::add_peer(const SimPeerSpec& spec) {
  const PeerId id = static_cast<PeerId>(peers_.size());
  SimPeer peer;
  peer.protocol = std::make_unique<Protocol>(id, config_.gossip, rng_.fork(id));
  peer.bandwidth = spec.bandwidth_bps;
  peer.key_count = spec.key_count;
  peer.protocol->hooks().on_apply = [this, id](const RumorPayload& p, TimePoint now) {
    on_peer_applied(id, p, now);
  };
  peers_.push_back(std::move(peer));
  links_->add_peer(spec.bandwidth_bps);
  return id;
}

PeerRecord SimCommunity::record_of(PeerId id) const {
  const SimPeer& peer = peers_[id];
  PeerRecord r;
  r.id = id;
  r.address = "sim://" + std::to_string(id);
  r.link_class = is_fast_link(peer.bandwidth) ? LinkClass::kFast : LinkClass::kSlow;
  r.version = 1;
  r.key_count = peer.key_count;
  return r;
}

void SimCommunity::start_converged() {
  if (started_) throw std::logic_error("SimCommunity: already started");
  started_ = true;

  // Every member starts from one immutable shared snapshot instead of N
  // private copies of N records: directory memory is O(N) community-wide and
  // steady-state summary exchanges compare O(changed) deltas.
  std::vector<PeerRecord> records;
  records.reserve(peers_.size());
  for (PeerId id = 0; id < peers_.size(); ++id) records.push_back(record_of(id));
  const gossip::DirectoryBasePtr base = gossip::make_directory_base(std::move(records));

  for (PeerId id = 0; id < peers_.size(); ++id) {
    SimPeer& peer = peers_[id];
    peer.protocol->bootstrap_converged(base);
    peer.online = true;
    peer.member = true;
    // Random phase so rounds do not synchronize.
    schedule_round(id, static_cast<Duration>(
                           rng_.below(static_cast<std::uint64_t>(config_.gossip.base_interval))));
  }
  schedule_crash_events();
}

void SimCommunity::schedule_crash_events() {
  for (const CrashEvent& c : faults_.plan().crashes()) {
    if (c.peer >= peers_.size()) continue;
    queue_.schedule_at(c.at, [this, c] { crash(c.peer, c.lose_directory); });
    if (c.restart_at > 0) {
      queue_.schedule_at(c.restart_at, [this, peer = c.peer] { restart(peer); });
    }
  }
}

void SimCommunity::join(PeerId id, PeerId introducer) {
  SimPeer& peer = peers_[id];
  if (peer.member) throw std::logic_error("SimCommunity::join: already a member");
  const PeerRecord self = record_of(id);
  peer.protocol->local_join(self.address, self.link_class, self.key_count, {}, queue_.now());
  peer.online = true;
  peer.member = true;
  track_event(RumorId{id, 1}, id);
  dispatch(id, peer.protocol->join_via(introducer, queue_.now()));
  schedule_round(id, static_cast<Duration>(
                         rng_.below(static_cast<std::uint64_t>(config_.gossip.base_interval))));
}

RumorId SimCommunity::inject_filter_change(PeerId id, std::uint32_t new_keys) {
  SimPeer& peer = peers_[id];
  peer.key_count += new_keys;
  peer.protocol->local_filter_change(peer.key_count, new_keys, {}, {}, queue_.now());
  const RumorId rumor{id, peer.protocol->own_version()};
  track_event(rumor, id);
  maybe_pull_round_forward(id);
  return rumor;
}

void SimCommunity::go_offline(PeerId id) {
  SimPeer& peer = peers_[id];
  if (!peer.online) return;
  peer.online = false;
  ++peer.round_epoch;  // cancel pending rounds
  for (auto& t : trackers_) t->peer_offline(id, queue_.now());
}

void SimCommunity::crash(PeerId id, bool lose_directory) {
  go_offline(id);
  if (!lose_directory) return;
  // Process crash without persistence: all protocol state is gone. The peer
  // must re-enter like a newcomer (restart() routes it through join()) and
  // recover its version counter from the community's memory of it.
  SimPeer& peer = peers_[id];
  peer.protocol = std::make_unique<Protocol>(id, config_.gossip, rng_.fork(id ^ 0x9e3779b9u));
  peer.protocol->hooks().on_apply = [this, id](const RumorPayload& p, TimePoint now) {
    on_peer_applied(id, p, now);
  };
  peer.member = false;
}

gossip::RumorId SimCommunity::restart(PeerId id, PeerId introducer) {
  SimPeer& peer = peers_[id];
  if (peer.member) return rejoin(id, 0);  // directory survived the crash

  if (introducer == kInvalidPeer) {
    for (PeerId p = 0; p < peers_.size(); ++p) {
      if (p != id && peers_[p].online && peers_[p].member) {
        introducer = p;
        break;
      }
    }
  }
  if (introducer == kInvalidPeer) {
    throw std::logic_error("SimCommunity::restart: no online introducer");
  }
  // Like join(), but untracked: the join rumor carries version 1, which the
  // community (still holding this peer's pre-crash record) will ignore; the
  // peer converges by adopting its remembered version and re-rumoring.
  const PeerRecord self = record_of(id);
  peer.protocol->local_join(self.address, self.link_class, peer.key_count, {}, queue_.now());
  peer.online = true;
  peer.member = true;
  dispatch(id, peer.protocol->join_via(introducer, queue_.now()));
  schedule_round(id, static_cast<Duration>(
                         rng_.below(static_cast<std::uint64_t>(config_.gossip.base_interval))));
  return RumorId{id, 1};
}

RumorId SimCommunity::rejoin(PeerId id, std::uint32_t new_keys) {
  SimPeer& peer = peers_[id];
  if (!peer.member) throw std::logic_error("SimCommunity::rejoin: never joined");
  peer.online = true;
  if (new_keys > 0) {
    peer.key_count += new_keys;
    peer.protocol->local_filter_change(peer.key_count, new_keys, {}, {}, queue_.now());
  } else {
    peer.protocol->local_rejoin(queue_.now());
  }
  const RumorId rumor{id, peer.protocol->own_version()};
  track_event(rumor, id);
  // Catch-up anti-entropy: a returning peer immediately pulls a directory
  // summary from someone it believes online, so the events it slept through
  // reach it right away (its own rounds will be busy rumoring its rejoin for
  // the next several rounds and would defer anti-entropy — §3's join flow
  // pulls the directory first for exactly this reason).
  Rng& rng = rng_;
  const PeerId target = peer.protocol->directory().random_online(rng);
  if (target != gossip::kInvalidPeer) {
    dispatch(id, peer.protocol->join_via(target, queue_.now()));
  }
  schedule_round(id, static_cast<Duration>(rng_.below(
                         static_cast<std::uint64_t>(config_.gossip.base_interval))));
  return rumor;
}

std::size_t SimCommunity::online_count() const {
  std::size_t n = 0;
  for (const SimPeer& p : peers_) n += p.online ? 1 : 0;
  return n;
}

std::vector<PeerId> SimCommunity::online_peers() const {
  std::vector<PeerId> out;
  for (PeerId id = 0; id < peers_.size(); ++id) {
    if (peers_[id].online && peers_[id].member) out.push_back(id);
  }
  return out;
}

bool SimCommunity::directories_consistent() const {
  // Authoritative versions: each member's own record.
  std::vector<std::pair<PeerId, std::uint64_t>> expected;
  for (PeerId id = 0; id < peers_.size(); ++id) {
    if (peers_[id].member) expected.emplace_back(id, peers_[id].protocol->own_version());
  }
  for (PeerId id = 0; id < peers_.size(); ++id) {
    const SimPeer& peer = peers_[id];
    if (!peer.online || !peer.member) continue;
    const auto& dir = peer.protocol->directory();
    for (const auto& [pid, version] : expected) {
      const PeerRecord* r = dir.find(pid);
      if (r == nullptr || r->version < version) return false;
    }
  }
  return true;
}

std::size_t SimCommunity::add_tracker(std::string name, ConvergenceTracker::PeerPredicate counts,
                                      ConvergenceTracker::PeerPredicate origin_filter) {
  trackers_.push_back(std::make_unique<ConvergenceTracker>(std::move(name), std::move(counts),
                                                           std::move(origin_filter)));
  return trackers_.size() - 1;
}

void SimCommunity::track_event(const RumorId& id, PeerId origin) {
  if (trackers_.empty() || !tracking_enabled_) return;
  const auto online = online_peers();
  for (auto& t : trackers_) t->track(id, queue_.now(), online, origin);
}

void SimCommunity::on_peer_applied(PeerId peer, const RumorPayload& payload, TimePoint now) {
  for (auto& t : trackers_) t->learned(payload.id(), peer, now);
}

// ---------------------------------------------------------------------------
// Round and message plumbing
// ---------------------------------------------------------------------------

void SimCommunity::schedule_round(PeerId id, Duration delay) {
  SimPeer& peer = peers_[id];
  const std::uint64_t epoch = ++peer.round_epoch;
  if (config_.parallel_round_tick > 0) {
    // Quantize the firing time up to the tick grid and batch every round
    // landing on the same tick behind one queue event, so they can step
    // concurrently in run_tick.
    const Duration tick = config_.parallel_round_tick;
    TimePoint at = queue_.now() + delay;
    at = ((at + tick - 1) / tick) * tick;
    if (at <= queue_.now()) at += tick;
    peer.next_round_at = at;
    auto [it, inserted] = pending_rounds_.try_emplace(at);
    it->second.emplace_back(id, epoch);
    if (inserted) queue_.schedule_at(at, [this, at] { run_tick(at); });
    return;
  }
  peer.next_round_at = queue_.now() + delay;
  queue_.schedule(delay, [this, id, epoch] { run_round(id, epoch); });
}

void SimCommunity::run_round(PeerId id, std::uint64_t epoch) {
  SimPeer& peer = peers_[id];
  if (peer.round_epoch != epoch || !peer.online) return;
  ++rounds_executed_;
  for (const auto& out : peer.protocol->on_round(queue_.now())) dispatch(id, out);
  schedule_round(id, peer.protocol->current_interval());
}

void SimCommunity::run_tick(TimePoint at) {
  auto pending = pending_rounds_.extract(at);
  if (pending.empty()) return;
  std::vector<std::pair<PeerId, std::uint64_t>> batch = std::move(pending.mapped());
  // Deterministic regardless of insertion order: sort, then drop entries
  // whose round was cancelled (epoch bumped) or whose peer went offline.
  std::sort(batch.begin(), batch.end());
  std::vector<PeerId> eligible;
  eligible.reserve(batch.size());
  for (const auto& [id, epoch] : batch) {
    if (peers_[id].round_epoch == epoch && peers_[id].online) eligible.push_back(id);
  }
  if (eligible.empty()) return;

  const TimePoint now = queue_.now();
  std::vector<std::vector<Protocol::Outgoing>> outs(eligible.size());
  if (pool_ != nullptr && eligible.size() > 1) {
    // Step all same-tick nodes concurrently. Safe because on_round touches
    // only that node's protocol (its directory, hot set, and forked RNG
    // stream) — never the queue, links, stats, or another node. Peers are
    // sharded into contiguous chunks (a handful per worker) so a 100k-peer
    // tick costs dozens of pool submissions, not 100k futures.
    const std::size_t max_shards = pool_->size() * 4;
    const std::size_t chunk =
        std::max<std::size_t>(1, (eligible.size() + max_shards - 1) / max_shards);
    std::vector<std::future<void>> done;
    done.reserve((eligible.size() + chunk - 1) / chunk);
    for (std::size_t begin = 0; begin < eligible.size(); begin += chunk) {
      const std::size_t end = std::min(begin + chunk, eligible.size());
      done.push_back(pool_->submit([this, &outs, &eligible, begin, end, now] {
        for (std::size_t i = begin; i < end; ++i) {
          outs[i] = peers_[eligible[i]].protocol->on_round(now);
        }
      }));
    }
    for (auto& f : done) f.get();
  } else {
    for (std::size_t i = 0; i < eligible.size(); ++i) {
      outs[i] = peers_[eligible[i]].protocol->on_round(now);
    }
  }
  rounds_executed_ += eligible.size();

  // Commit in node-id order: dispatches (link-model busy horizons, fault
  // decisions, stats) and next-round scheduling happen exactly as if the
  // nodes had stepped sequentially — traces are identical across thread
  // counts.
  for (std::size_t i = 0; i < eligible.size(); ++i) {
    const PeerId id = eligible[i];
    for (const auto& out : outs[i]) dispatch(id, out);
    schedule_round(id, peers_[id].protocol->current_interval());
  }
}

NetworkStats& SimCommunity::stats() {
  gossip::GossipStats agg;
  for (const SimPeer& p : peers_) {
    if (p.protocol != nullptr) agg += p.protocol->stats();
  }
  stats_->set_gossip_stats(agg);
  return *stats_;
}

void SimCommunity::maybe_pull_round_forward(PeerId id) {
  // After news arrives the protocol may have reset its interval to base;
  // honor that by moving the pending round earlier if it is too far out.
  SimPeer& peer = peers_[id];
  if (!peer.online) return;
  const TimePoint desired = queue_.now() + peer.protocol->current_interval();
  if (peer.next_round_at > desired) schedule_round(id, peer.protocol->current_interval());
}

void SimCommunity::dispatch(PeerId from, const Protocol::Outgoing& out) {
  if (out.to == kInvalidPeer || out.to >= peers_.size()) return;
  const std::size_t bytes = wire_size(out.msg, config_.sizes);
  const bool is_ae = std::holds_alternative<gossip::SummaryRequestMsg>(out.msg) ||
                     std::holds_alternative<gossip::SummaryMsg>(out.msg);
  stats_->record(from, bytes, queue_.now(),
                 is_ae ? TrafficKind::kAntiEntropy : TrafficKind::kRumor);
  stats_->record_typed(out.msg.index(), bytes);

  FaultDecision fault = faults_.decide(from, out.to, queue_.now(), msg_class_of(out.msg));
  if (fault.drop) {
    stats_->record_dropped(fault.partition_drop);
    if (fault.notify_sender && peers_[from].online) {
      // TCP-like refusal (partitioned links, not lossy ones): the sender
      // discovers the peer is unreachable and marks it offline.
      peers_[from].protocol->on_send_failed(out.to, queue_.now());
    }
    return;  // otherwise silently lost; sender learns nothing (UDP-like loss)
  }
  if (fault.delayed) stats_->record_delayed();
  if (fault.reordered) stats_->record_reordered();
  if (!fault.duplicate_lags.empty()) stats_->record_duplicated(fault.duplicate_lags.size());

  const TimePoint arrival = links_->transfer(from, out.to, bytes, queue_.now());
  const TimePoint processed = arrival + config_.network.cpu_gossip_time + fault.extra_delay;
  // Share rather than copy: summary messages are O(community) in size and
  // thousands can be in flight at once.
  auto msg = std::make_shared<Message>(out.msg);
  queue_.schedule_at(processed, [this, from, to = out.to, msg]() {
    deliver(from, to, *msg);
  });
  // Duplicate copies trail the primary; the receiver must treat them as the
  // no-ops the protocol's versioning makes them.
  for (const Duration lag : fault.duplicate_lags) {
    queue_.schedule_at(processed + std::max<Duration>(lag, 1),
                       [this, from, to = out.to, msg]() { deliver(from, to, *msg); });
  }
}

void SimCommunity::deliver(PeerId from, PeerId to, const Message& msg) {
  SimPeer& receiver = peers_[to];
  if (!receiver.online) {
    // Delivery failure: the *sender* discovers the peer is unreachable.
    if (peers_[from].online) {
      peers_[from].protocol->on_send_failed(to, queue_.now());
    }
    return;
  }
  for (const auto& reply : receiver.protocol->on_message(queue_.now(), from, msg)) {
    dispatch(to, reply);
  }
  maybe_pull_round_forward(to);
}

// ---------------------------------------------------------------------------
// Query-time RPCs
// ---------------------------------------------------------------------------

search::PeerSearchResult SimCommunity::query_rpc(PeerId from, PeerId to) {
  using search::ContactStatus;
  using search::PeerSearchResult;

  stats_->record_query_sent();
  auto fail = [&](ContactStatus status, Duration latency = 0) {
    stats_->record_query_failed();
    return PeerSearchResult::failure(status, latency);
  };

  if (to >= peers_.size() || !peers_[to].online) {
    return fail(ContactStatus::kUnreachable);
  }

  // Request leg. A notified/partition drop is a refused connection, so the
  // searcher learns the peer is unreachable; a silent drop looks like a
  // timeout from the searcher's side.
  FaultDecision request = faults_.decide(from, to, queue_.now());
  if (request.drop) {
    stats_->record_dropped(request.partition_drop);
    return fail((request.notify_sender || request.partition_drop)
                    ? ContactStatus::kUnreachable
                    : ContactStatus::kTimeout);
  }
  // Response leg: a lost answer is always a timeout — the request was
  // delivered, so the searcher has no way to tell loss from slowness.
  FaultDecision response = faults_.decide(to, from, queue_.now());
  if (response.drop) {
    stats_->record_dropped(response.partition_drop);
    return fail(ContactStatus::kTimeout, request.extra_delay);
  }

  PeerSearchResult ok;
  ok.latency = request.extra_delay + response.extra_delay;
  return ok;
}

search::PeerSearchFn SimCommunity::search_contact(PeerId searcher, LocalEvalFn local_eval) {
  return [this, searcher, local_eval = std::move(local_eval)](
             std::uint32_t peer, const std::unordered_map<std::string, double>& weights)
             -> search::PeerSearchResult {
    if (peer == searcher) {
      // Local evaluation: no network involved, cannot fail.
      return search::PeerSearchResult::ok(local_eval(peer, weights));
    }
    search::PeerSearchResult probe = query_rpc(searcher, peer);
    if (!probe.is_ok()) return probe;
    probe.docs = local_eval(peer, weights);
    return probe;
  };
}

void SimCommunity::note_search(const search::DistributedSearchResult& result) {
  if (result.retries > 0) stats_->record_query_retried(result.retries);
  if (result.hedged_contacts > 0) stats_->record_query_hedged(result.hedged_contacts);
}

}  // namespace planetp::sim
