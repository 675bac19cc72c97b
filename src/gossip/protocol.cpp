#include "gossip/protocol.hpp"

#include <algorithm>

#include "bloom/wire.hpp"
#include "util/logging.hpp"

namespace planetp::gossip {

Protocol::Protocol(PeerId self, GossipConfig config, Rng rng)
    : config_(config), directory_(self), rng_(rng), interval_(config.base_interval) {}

// ---------------------------------------------------------------------------
// Local events
// ---------------------------------------------------------------------------

void Protocol::local_join(std::string address, LinkClass link_class, std::uint32_t key_count,
                          std::vector<std::uint8_t> filter_wire, TimePoint now) {
  PeerRecord record;
  record.id = directory_.self();
  record.address = std::move(address);
  record.link_class = link_class;
  record.version = 1;
  record.key_count = key_count;
  record.filter_wire = std::move(filter_wire);
  self_class_ = link_class;
  directory_.put_self(record);

  FilterUpdate full;
  full.base_version = 0;
  full.bits = record.filter_wire;
  full.key_count = key_count;
  full.new_keys = key_count;
  make_hot(intern_rumor(payload_from_record(record, EventKind::kJoin, std::move(full))));
  (void)now;
}

void Protocol::quiet_start(std::string address, LinkClass link_class, std::uint32_t key_count,
                           std::vector<std::uint8_t> filter_wire) {
  PeerRecord record;
  record.id = directory_.self();
  record.address = std::move(address);
  record.link_class = link_class;
  record.version = 1;
  record.key_count = key_count;
  record.filter_wire = std::move(filter_wire);
  self_class_ = link_class;
  directory_.put_self(record);
}

void Protocol::local_filter_change(std::uint32_t key_count, std::uint32_t new_keys,
                                   std::vector<std::uint8_t> diff_bits,
                                   std::vector<std::uint8_t> full_filter_wire, TimePoint now) {
  PeerRecord* self = directory_.find_mutable(directory_.self());
  if (self == nullptr) return;  // must local_join first
  const std::uint64_t base_version = self->version;
  ++self->version;
  self->key_count = key_count;
  if (!full_filter_wire.empty()) self->filter_wire = std::move(full_filter_wire);

  FilterUpdate update;
  update.key_count = key_count;
  update.new_keys = new_keys;
  if (!diff_bits.empty()) {
    update.base_version = base_version;
    update.bits = std::move(diff_bits);
  } else {
    // Simulation mode: no real bits; sizes are modeled from new_keys, and we
    // still advertise the diff semantics via base_version.
    update.base_version = base_version;
  }
  make_hot(intern_rumor(payload_from_record(*self, EventKind::kFilterChange, std::move(update))));
  // Local news restarts eager gossiping just like received news does.
  reset_interval();
  (void)now;
}

void Protocol::local_rejoin(TimePoint now) {
  PeerRecord* self = directory_.find_mutable(directory_.self());
  if (self == nullptr) return;
  ++self->version;
  self->online = true;
  make_hot(intern_rumor(payload_from_record(*self, EventKind::kRejoin)));
  // A returning peer gossips eagerly to catch up and to spread its presence,
  // and prioritizes anti-entropy until it has synced the events it missed.
  reset_interval();
  catch_up_pending_ = true;
  pending_pull_.reset();
  (void)now;
}

Protocol::Outgoing Protocol::join_via(PeerId introducer, TimePoint now) {
  // The §3 join flow pulls the directory before anything else; prioritize
  // anti-entropy (with retries, below) until that pull completes.
  catch_up_pending_ = true;
  pending_pull_.reset();
  return issue_summary_request(introducer, now);
}

Protocol::Outgoing Protocol::issue_summary_request(PeerId target, TimePoint now) {
  const int attempts = pending_pull_ ? pending_pull_->attempts + 1 : 1;
  // Exponential backoff per unanswered attempt; the shift is capped so the
  // wait stays sane for a peer that keeps retrying its only known introducer
  // past kMaxAeRetries. Counted in rounds, not wall-clock, so it scales with
  // the gossip interval.
  const std::uint64_t wait =
      static_cast<std::uint64_t>(kAeRetryRounds) << std::min(attempts - 1, 6);
  pending_pull_ = PendingPull{target, round_counter_ + wait, attempts};
  (void)now;
  SummaryRequestMsg req;
  // A lazy peer advertises its shared-base token: a replier holding the same
  // base answers with a delta-only summary (O(changed) entries, not O(peers)).
  if (lazy()) req.base_token = directory_.base_token();
  return Outgoing{target, req};
}

void Protocol::bootstrap(const std::vector<PeerRecord>& records) {
  for (const PeerRecord& r : records) {
    if (r.id == directory_.self()) continue;
    directory_.apply(r);
  }
}

void Protocol::bootstrap_converged(DirectoryBasePtr base) {
  // One shared immutable snapshot replaces per-peer record copies: N peers
  // bootstrapping a converged community cost O(N) total, not O(N^2), and the
  // steady-state anti-entropy between them compares deltas (docs/SCALE.md).
  // The base must contain our own record (quiet_start state is discarded).
  directory_.adopt_base(std::move(base));
  if (const PeerRecord* self = directory_.find(directory_.self()); self != nullptr) {
    self_class_ = self->link_class;
  }
}

std::uint64_t Protocol::own_version() const {
  const PeerRecord* self = directory_.find(directory_.self());
  return self == nullptr ? 0 : self->version;
}

// ---------------------------------------------------------------------------
// Rumor bookkeeping
// ---------------------------------------------------------------------------

void Protocol::make_hot(RumorPtr p) {
  const RumorId id = p->id();
  // A newer version of the same origin supersedes any older hot rumor. Scan
  // hot_order_ (stable insertion order), not the hash map, so behavior never
  // depends on hash layout.
  for (std::size_t i = 0; i < hot_order_.size();) {
    const RumorId cur = hot_order_[i];
    if (cur.origin == id.origin && cur.version < id.version) {
      hot_.erase(cur);
      hot_order_.erase(hot_order_.begin() + static_cast<std::ptrdiff_t>(i));
      if (cur.origin == directory_.self()) --self_hot_count_;
    } else {
      ++i;
    }
  }
  if (hot_.contains(id)) return;
  // Membership announcements (join/rejoin) introduce the origin's address;
  // until a receiver has it, any RumorWant it sends back has nowhere to go
  // (net::LiveNode routes by directory address). Such rumors carry their
  // body for at least kIntroductionPushes transmissions — see carries_body.
  HotRumor hot;
  hot.introduce = p->payload().kind != EventKind::kFilterChange;
  hot.rumor = std::move(p);
  hot_.emplace(id, std::move(hot));
  hot_order_.push_back(id);
  if (id.origin == directory_.self()) ++self_hot_count_;
}

void Protocol::retire_rumor(const RumorId& id) {
  auto it = hot_.find(id);
  if (it == hot_.end()) return;
  hot_.erase(it);
  hot_order_.erase(std::find(hot_order_.begin(), hot_order_.end(), id));
  if (id.origin == directory_.self()) --self_hot_count_;
  note_recent(id);
}

void Protocol::note_recent(const RumorId& id) {
  if (recent_set_.contains(id)) return;
  recent_.push_back(id);
  recent_set_.insert(id);
  while (recent_.size() > config_.partial_ae_window) {
    recent_set_.erase(recent_.front());
    recent_.pop_front();
  }
}

void Protocol::reset_interval() {
  interval_ = config_.base_interval;
  gossipless_count_ = 0;
}

void Protocol::register_gossipless_contact() {
  if (++gossipless_count_ >= config_.gossipless_threshold) {
    interval_ = std::min(interval_ + config_.slow_down, config_.max_interval);
    gossipless_count_ = 0;
  }
}

// ---------------------------------------------------------------------------
// Target selection (flat and bandwidth-aware, §7.2)
// ---------------------------------------------------------------------------

bool Protocol::has_local_origin_rumor() const { return self_hot_count_ != 0; }

PeerId Protocol::pick_rumor_target() {
  if (!config_.bandwidth_aware) return directory_.random_online(rng_);
  if (self_class_ == LinkClass::kFast) {
    const LinkClass cls =
        rng_.chance(config_.fast_to_slow_prob) ? LinkClass::kSlow : LinkClass::kFast;
    const PeerId id = directory_.random_online_of_class(rng_, cls);
    return id != kInvalidPeer ? id : directory_.random_online(rng_);
  }
  // Slow peer: rumor to slow peers so as not to impede fast ones — unless we
  // originated the rumor, in which case the first hop is a fast peer.
  if (has_local_origin_rumor()) {
    const PeerId id = directory_.random_online_of_class(rng_, LinkClass::kFast);
    if (id != kInvalidPeer) return id;
  }
  const PeerId id = directory_.random_online_of_class(rng_, LinkClass::kSlow);
  return id != kInvalidPeer ? id : directory_.random_online(rng_);
}

PeerId Protocol::pick_ae_target() {
  if (!config_.bandwidth_aware) return directory_.random_online(rng_);
  if (self_class_ == LinkClass::kFast) {
    const PeerId id = directory_.random_online_of_class(rng_, LinkClass::kFast);
    return id != kInvalidPeer ? id : directory_.random_online(rng_);
  }
  return directory_.random_online(rng_);  // slow peers AE with anyone
}

// ---------------------------------------------------------------------------
// Rounds
// ---------------------------------------------------------------------------

std::vector<Protocol::Outgoing> Protocol::on_round(TimePoint now) {
  std::vector<Outgoing> out;
  ++round_counter_;

  for (PeerId dropped : directory_.expire_dead(now, config_.t_dead)) {
    pull_cache_.erase(dropped);
    if (hooks_.on_expire) hooks_.on_expire(dropped);
  }

  if (!config_.enable_rumoring) {
    // Pure anti-entropy baseline (LAN-AE): push our summary every round.
    const PeerId target = pick_ae_target();
    if (target == kInvalidPeer) return out;
    SummaryMsg push_msg;
    push_msg.entries = directory_.summary_entries();
    push_msg.push = true;
    out.push_back(Outgoing{target, std::move(push_msg)});
    return out;
  }

  // Catch-up anti-entropy (after join/rejoin): issue a summary pull, and if
  // its reply never arrives — lossy link, partition — retry against a fresh
  // target with backoff. Bounded: after kMaxAeRetries unanswered attempts
  // we abandon the priority and fall back to the normal cadence, whose
  // idle-round anti-entropy below still converges us eventually.
  if (catch_up_pending_) {
    bool reissue = !pending_pull_.has_value();
    const PeerId last_target = pending_pull_ ? pending_pull_->target : kInvalidPeer;
    if (pending_pull_ && round_counter_ >= pending_pull_->retry_round) {
      // Abandon the priority only when the normal cadence below can take
      // over. A peer that knows nobody else — restarted with a lost
      // directory, its one join message to the introducer lost too — must
      // keep retrying that introducer or it is isolated forever.
      if (pending_pull_->attempts >= kMaxAeRetries &&
          directory_.online_count() > 1) {
        catch_up_pending_ = false;
        pending_pull_.reset();
      } else {
        reissue = true;
      }
    }
    if (reissue) {
      PeerId target = pick_ae_target();
      if (target == kInvalidPeer) target = last_target;
      if (target != kInvalidPeer) {
        out.push_back(issue_summary_request(target, now));
        return out;
      }
    }
    if (catch_up_pending_) {
      // Pull outstanding and not yet timed out: spend the round rumoring
      // (e.g. our own rejoin) instead of duplicating the request.
      if (hot_.empty()) return out;
    }
  }

  const bool do_ae =
      hot_.empty() || (config_.anti_entropy_every > 0 &&
                       round_counter_ % static_cast<std::uint64_t>(config_.anti_entropy_every) == 0);

  if (do_ae) {
    // Occasionally probe a peer believed offline: offline beliefs are never
    // gossiped (§3), so after a partition heals no one would otherwise
    // re-contact the other side until T_dead erased it.
    PeerId target = kInvalidPeer;
    if (config_.offline_probe_prob > 0.0 && rng_.chance(config_.offline_probe_prob)) {
      target = directory_.random_offline(rng_);
    }
    if (target == kInvalidPeer) target = pick_ae_target();
    if (target == kInvalidPeer) return out;
    out.push_back(issue_summary_request(target, now));
    return out;
  }

  const PeerId target = pick_rumor_target();
  if (target == kInvalidPeer) return out;
  static const SizeModel kSizes{};

  // Bodies fill the message up to the byte budget (at least one): tiny
  // rejoin records batch by the hundreds, bulky filter payloads by a few.
  // Eager dissemination stops at the budget and rotates the rest to the
  // front for next round. Lazy dissemination (docs/PROTOCOL.md) sends the
  // rest, over-budget bodies included, as 6-byte (id, version) digests, so
  // the whole hot set advances every round.
  const PeerRecord* tr = config_.bandwidth_aware ? directory_.find(target) : nullptr;
  const bool slow_link = tr != nullptr && tr->link_class == LinkClass::kSlow;
  RumorMsg msg;
  RumorDigestMsg digest;
  std::size_t budget = config_.max_rumor_bytes_per_message;
  std::size_t sent = 0;
  for (; sent < hot_order_.size(); ++sent) {
    const RumorId& id = hot_order_[sent];
    HotRumor& hot = hot_.at(id);
    if (carries_body(hot, slow_link)) {
      const std::size_t cost = payload_wire_size(hot.rumor->payload(), kSizes);
      if (msg.rumors.empty() || cost <= budget) {
        msg.rumors.push_back(hot.rumor);  // shared: no payload copy per target
        budget -= std::min(budget, cost);
        ++hot.pushes;
        ++stats_.payloads_sent;
        stats_.payload_bytes_sent += cost;
        continue;
      }
      if (!lazy()) break;
    }
    digest.ids.push_back(id);
  }
  if (sent < hot_order_.size()) {
    std::rotate(hot_order_.begin(), hot_order_.begin() + static_cast<std::ptrdiff_t>(sent),
                hot_order_.end());
  }
  if (config_.enable_partial_ae) {
    // One piggyback per round, attached to whichever message exists first,
    // so a body+digest pair does not carry the recent-id list twice.
    std::vector<RumorId> recent(recent_.begin(), recent_.end());
    if (!msg.rumors.empty()) {
      msg.recent_ids = std::move(recent);
    } else {
      digest.recent_ids = std::move(recent);
    }
  }
  if (!digest.ids.empty()) {
    ++stats_.digests_sent;
    stats_.digest_ids_sent += digest.ids.size();
  }
  if (!msg.rumors.empty()) out.push_back(Outgoing{target, std::move(msg)});
  if (!digest.ids.empty() || !digest.recent_ids.empty()) {
    out.push_back(Outgoing{target, std::move(digest)});
  }
  return out;
}

bool Protocol::carries_body(const HotRumor& hot, bool slow_link) const {
  if (!lazy()) return true;
  // A digest about a peer the target cannot address yet is undeliverable
  // news, so introductions push on every link; filter changes never push
  // blind into a slow link (the two-class scheduler's rule, §7.2).
  if (hot.introduce) {
    return hot.pushes < std::max(config_.eager_fanout, kIntroductionPushes);
  }
  return !slow_link && hot.pushes < config_.eager_fanout;
}

// ---------------------------------------------------------------------------
// Message handling
// ---------------------------------------------------------------------------

bool Protocol::adopt_own_version(std::uint64_t seen_version, TimePoint now) {
  // Read-only probe (runs on every summary receipt — must not invalidate the
  // snapshot cache); jump_own_version does the mutation when needed.
  const PeerRecord* self = directory_.find(directory_.self());
  if (self == nullptr || seen_version <= self->version) return false;
  // The community remembers a newer us than we do: we crashed and lost our
  // version counter. Jump past the remembered version and re-rumor, so our
  // fresh record supersedes the stale one everywhere.
  jump_own_version(seen_version);
  (void)now;
  return true;
}

void Protocol::jump_own_version(std::uint64_t past) {
  PeerRecord* self = directory_.find_mutable(directory_.self());
  self->version = past + 1;
  self->online = true;
  make_hot(intern_rumor(payload_from_record(*self, EventKind::kRejoin)));
  reset_interval();
}

bool Protocol::apply_payload(const RumorPayload& p, TimePoint now, PeerId from,
                             std::vector<Outgoing>& out) {
  if (p.origin == directory_.self()) {
    // Our own record is authoritative — unless the community's copy has a
    // higher version than ours (we lost state in a crash): adopt it.
    adopt_own_version(p.version, now);
    return false;
  }
  const PeerRecord* existing = directory_.find(p.origin);
  if (existing != nullptr && p.version <= existing->version) {
    // Stale or already known. One exception: a full-filter payload for the
    // version we hold completes a record whose filter we could not apply
    // earlier (the answer to our "need full filter" pull).
    if (p.version == existing->version && existing->filter_wire.empty() &&
        p.filter.has_value() && p.filter->base_version == 0 && !p.filter->bits.empty()) {
      PeerRecord* mut = directory_.find_mutable(p.origin);
      mut->filter_wire = p.filter->bits;
      mut->key_count = p.filter->key_count;
      if (hooks_.on_apply) hooks_.on_apply(p, now);
    }
    return false;
  }

  PeerRecord record;
  record.id = p.origin;
  record.address = p.address;
  record.link_class = p.link_class;
  record.version = p.version;
  record.key_count = p.key_count;

  bool need_full_pull = false;
  if (p.filter.has_value()) {
    const FilterUpdate& f = *p.filter;
    if (!f.bits.empty() && f.base_version == 0) {
      record.filter_wire = f.bits;  // full filter
    } else if (!f.bits.empty() && existing != nullptr &&
               existing->version == f.base_version && !existing->filter_wire.empty()) {
      // Apply the XOR diff to our stored filter in the Golomb gap domain —
      // O(set bits), no full bit-vector decode, byte-identical to
      // decode -> apply_diff -> re-encode (see bloom::merge_diff_wire).
      try {
        record.filter_wire = bloom::merge_diff_wire(existing->filter_wire, f.bits);
      } catch (const std::exception& e) {
        PLOG_WARN("gossip", "diff apply failed for peer ", p.origin, ": ", e.what());
        need_full_pull = true;
      }
    } else if (!f.bits.empty()) {
      // Diff against a base we do not hold: accept the metadata, pull the
      // full filter from whoever told us.
      need_full_pull = true;
    } else if (existing != nullptr) {
      // Simulation mode (no bits): carry the previous opaque filter forward.
      record.filter_wire = existing->filter_wire;
    }
  } else if (existing != nullptr) {
    record.filter_wire = existing->filter_wire;  // rejoin: filter unchanged
  }

  if (!directory_.apply(record)) return false;  // at or below a T_dead tombstone
  if (hooks_.on_apply) hooks_.on_apply(p, now);
  if (need_full_pull && from != kInvalidPeer) {
    out.push_back(Outgoing{from, PullRequestMsg{{p.id()}}});
  }
  return true;
}

RumorPtr Protocol::pull_rumor_for(const PeerRecord& record) {
  if (auto it = pull_cache_.find(record.id); it != pull_cache_.end()) {
    const RumorPayload& p = it->second->payload();
    // Valid while the record is unchanged: version catches updates, and the
    // key-count/filter-size pair catches the one same-version mutation (a
    // later full filter completing a diff we could not apply).
    if (p.version == record.version && p.key_count == record.key_count && p.filter &&
        p.filter->bits.size() == record.filter_wire.size()) {
      return it->second;
    }
  }
  FilterUpdate full;
  full.base_version = 0;
  full.bits = record.filter_wire;
  full.key_count = record.key_count;
  full.new_keys = record.key_count;
  RumorPtr rumor =
      intern_rumor(payload_from_record(record, EventKind::kFilterChange, std::move(full)));
  pull_cache_.insert_or_assign(record.id, rumor);
  return rumor;
}

std::vector<RumorId> Protocol::lacking(const std::vector<RumorId>& ids) const {
  std::vector<RumorId> out;
  for (const RumorId& id : ids) {
    if (directory_.lacks(id)) out.push_back(id);
  }
  return out;
}

std::vector<Protocol::Outgoing> Protocol::on_message(TimePoint now, PeerId from,
                                                     const Message& msg) {
  std::vector<Outgoing> out;
  static const SizeModel kSizes{};  // Table 2 defaults; stats accounting only

  // Hearing from a peer proves it is online.
  directory_.mark_online(from);

  if (const auto* rumor = std::get_if<RumorMsg>(&msg)) {
    RumorAckMsg ack;
    bool any_new = false;
    for (const RumorPtr& p : rumor->rumors.shared()) {
      if (apply_payload(p->payload(), now, from, out)) {
        any_new = true;
        make_hot(p);  // we now spread it too — sharing the sender's encoding
      } else {
        ack.already_knew.push_back(p->id());
        // A payload that superseded nothing was wasted wire — the redundancy
        // lazy dissemination exists to eliminate.
        ++stats_.duplicate_payloads;
        stats_.duplicate_payload_bytes += payload_wire_size(p->payload(), kSizes);
      }
    }
    if (config_.enable_partial_ae) {
      ack.recent_ids.assign(recent_.begin(), recent_.end());
      // Pull anything from the sender's piggyback that we are missing.
      ack.pull_ids = lacking(rumor->recent_ids);
    }
    out.push_back(Outgoing{from, std::move(ack)});
    // "Whenever x receives a rumor message ... it immediately resets its
    // gossiping interval" — active rumoring implies community change.
    if (!rumor->rumors.empty() || any_new) reset_interval();
    return out;
  }

  if (const auto* ack = std::get_if<RumorAckMsg>(&msg)) {
    std::vector<RumorId> to_retire;
    if (!lazy()) {
      // Stop-counter updates for the rumors we pushed: the ones listed were
      // already known at the target; any other hot rumor was news to it.
      std::unordered_set<RumorId, RumorIdHash> knew(ack->already_knew.begin(),
                                                    ack->already_knew.end());
      for (const RumorId& id : hot_order_) {  // stable order, not hash order
        HotRumor& hot = hot_.at(id);
        if (knew.contains(id)) {
          if (++hot.consecutive_known >= config_.stop_count) to_retire.push_back(id);
        } else {
          hot.consecutive_known = 0;
        }
      }
    } else {
      // Lazy: a RumorMsg carries only the bodies of the hot set, so absence
      // from already_knew is no evidence of news — the digested rumors were
      // never in the message. Count only positive evidence here; resets come
      // from RumorWantMsg want ids, which echo the digest exactly.
      for (const RumorId& id : ack->already_knew) {
        auto it = hot_.find(id);
        if (it != hot_.end() && ++it->second.consecutive_known >= config_.stop_count) {
          to_retire.push_back(id);
        }
      }
    }
    for (const RumorId& id : to_retire) retire_rumor(id);

    // Serve the target's partial-anti-entropy pulls.
    if (!ack->pull_ids.empty()) {
      PullResponseMsg resp;
      for (const RumorId& id : ack->pull_ids) {
        const PeerRecord* r = directory_.find(id.origin);
        if (r != nullptr && r->version >= id.version) resp.rumors.push_back(pull_rumor_for(*r));
      }
      if (!resp.rumors.empty()) out.push_back(Outgoing{from, std::move(resp)});
    }
    // And pull what the target's piggyback showed us we are missing.
    std::vector<RumorId> want = lacking(ack->recent_ids);
    if (!want.empty()) out.push_back(Outgoing{from, PullRequestMsg{std::move(want)}});
    return out;
  }

  if (const auto* req = std::get_if<SummaryRequestMsg>(&msg)) {
    SummaryMsg reply;
    reply.entries = directory_.summary_entries();
    if (req->base_token != 0 && req->base_token == directory_.base_token() &&
        reply.entries.view() != nullptr) {
      // Token match (only lazy askers send one) certifies the asker shares
      // our base: only our changed-set needs to travel. `entries` keeps the
      // full shared view (the simulator compares deltas by pointer identity);
      // the wire layer prices and encodes the delta alone.
      reply.base_token = req->base_token;
    }
    if (const auto tomb = directory_.tombstone_version(from); tomb.has_value()) {
      // The asker is a peer we expired — it is clearly back. If it restarted
      // below the tombstoned version, everything it gossips would be refused
      // as stale; tell it the floor it must jump past to be re-admitted.
      reply.rejoin_floor = *tomb;
    }
    out.push_back(Outgoing{from, std::move(reply)});
    return out;
  }

  if (const auto* summary = std::get_if<SummaryMsg>(&msg)) {
    // Decoded delta-only form (live wire): entries/removed are the replier's
    // changed-set against the shared base named by base_token — which we
    // advertised, so a mismatch means our base changed between request and
    // reply. The delta is uninterpretable then; drop it and let the normal
    // retry/cadence paths re-sync.
    const bool delta_form = summary->base_token != 0 && summary->entries.view() == nullptr;
    if (delta_form && summary->base_token != directory_.base_token()) return out;
    if (summary->rejoin_floor > 0) {
      // The replier expired us under T_dead and remembers this version:
      // nothing we gossip at or below it will be accepted. Unlike the
      // entry-based adoption below, equality also forces a jump — the
      // community refuses the floor version itself (tombstones are <=).
      const PeerRecord* self = directory_.find(directory_.self());
      if (self != nullptr && self->version <= summary->rejoin_floor) {
        jump_own_version(summary->rejoin_floor);
      }
    }
    if (const auto own = summary->entries.version_of(directory_.self()); own.has_value()) {
      adopt_own_version(*own, now);
    }
    std::vector<RumorId> missing = delta_form
                                       ? directory_.newer_in_delta(summary->entries.list())
                                       : directory_.newer_in(summary->entries);
    // Never pull our own record: we are its origin (a remote-newer own entry
    // was adopted above instead).
    std::erase_if(missing,
                  [this](const RumorId& id) { return id.origin == directory_.self(); });
    if (config_.max_pull_per_exchange != 0 &&
        missing.size() > config_.max_pull_per_exchange) {
      // Incremental directory acquisition (§7.2 future work): fetch only a
      // chunk now; later anti-entropy rounds pull the rest.
      missing.resize(config_.max_pull_per_exchange);
    }
    if (!summary->push) {  // our pull round-trip completed
      // ...but a peer that knows nobody yet has only learned *of* records,
      // not acquired them. If the pull below is lost there is no normal
      // cadence to recover (no known targets), so stay in catch-up with the
      // replier re-armed as the retry target.
      if (!missing.empty() && directory_.online_count() <= 1) {
        catch_up_pending_ = true;
        pending_pull_ = PendingPull{
            from, round_counter_ + static_cast<std::uint64_t>(kAeRetryRounds), 1};
      } else {
        catch_up_pending_ = false;
        pending_pull_.reset();
      }
    }
    if (!missing.empty()) {
      out.push_back(Outgoing{from, PullRequestMsg{std::move(missing)}});
    } else if (!summary->push &&
               (delta_form
                    ? directory_.same_as_delta(summary->entries.list(), summary->removed)
                    : directory_.same_as(summary->entries))) {
      // Pull-anti-entropy reply showed an identical directory: one more
      // gossip-less contact toward slowing down.
      register_gossipless_contact();
    }
    return out;
  }

  if (const auto* pull = std::get_if<PullRequestMsg>(&msg)) {
    PullResponseMsg resp;
    for (const RumorId& id : pull->ids) {
      const PeerRecord* r = directory_.find(id.origin);
      if (r != nullptr && r->version >= id.version) resp.rumors.push_back(pull_rumor_for(*r));
    }
    if (!resp.rumors.empty()) out.push_back(Outgoing{from, std::move(resp)});
    return out;
  }

  if (const auto* resp = std::get_if<PullResponseMsg>(&msg)) {
    bool any_new = false;
    for (const RumorPtr& p : resp->rumors.shared()) {
      if (apply_payload(p->payload(), now, from, out)) {
        any_new = true;
        make_hot(p);  // pulled news spreads onward like any rumor
      } else {
        ++stats_.duplicate_payloads;
        stats_.duplicate_payload_bytes += payload_wire_size(p->payload(), kSizes);
      }
    }
    if (any_new) reset_interval();  // "finds a new piece of information through anti-entropy"
    return out;
  }

  if (const auto* digest = std::get_if<RumorDigestMsg>(&msg)) {
    // Lazy push: diff the advertised (id, version) pairs against the
    // directory and ask only for bodies that would supersede what we hold.
    // Every digest id is echoed into exactly one reply list, so the sender's
    // per-rumor stop counters advance on precise evidence. Digests never
    // mutate the directory — a lost digest or want leaves both sides
    // unchanged and the summary anti-entropy cadence heals the gap.
    RumorWantMsg reply;
    for (const RumorId& id : digest->ids) {
      if (id.origin == directory_.self()) {
        // Our own record is authoritative — unless the community advertises
        // a newer us (we crashed and lost our version counter): adopt it.
        adopt_own_version(id.version, now);
        reply.already_knew.push_back(id);
        continue;
      }
      // Known, or expired under T_dead (refuse resurrection): already knew.
      if (directory_.lacks(id)) {
        reply.want.push_back(id);
      } else {
        reply.already_knew.push_back(id);
      }
    }
    if (config_.enable_partial_ae) {
      reply.recent_ids.assign(recent_.begin(), recent_.end());
      // Pull anything from the sender's piggyback that we are missing.
      reply.pull_ids = lacking(digest->recent_ids);
    }
    // Advertised news implies community change, as a rumor receipt does.
    if (!reply.want.empty()) reset_interval();
    ++stats_.wants_sent;
    stats_.want_ids_sent += reply.want.size();
    out.push_back(Outgoing{from, std::move(reply)});
    return out;
  }

  if (const auto* want = std::get_if<RumorWantMsg>(&msg)) {
    // Reply to our digest: exact per-id evidence for the stop counters.
    std::vector<RumorId> to_retire;
    for (const RumorId& id : want->already_knew) {
      auto it = hot_.find(id);
      if (it != hot_.end() && ++it->second.consecutive_known >= config_.stop_count) {
        to_retire.push_back(id);
      }
    }
    for (const RumorId& id : want->want) {
      auto it = hot_.find(id);
      if (it != hot_.end()) it->second.consecutive_known = 0;
    }
    for (const RumorId& id : to_retire) retire_rumor(id);

    // Serve the wanted bodies verbatim from the interned store: the hot
    // entry itself (the same splice an eager push would have sent, zero
    // re-encoding), or the per-origin pull cache for rumors retired since
    // the digest went out.
    PullResponseMsg resp;
    for (const RumorId& id : want->want) {
      if (auto it = hot_.find(id); it != hot_.end()) {
        resp.rumors.push_back(it->second.rumor);
        ++stats_.wants_served;
        continue;
      }
      const PeerRecord* r = directory_.find(id.origin);
      if (r != nullptr && r->version >= id.version) {
        resp.rumors.push_back(pull_rumor_for(*r));
        ++stats_.wants_served;
      }
    }
    // Partial-anti-entropy legs, mirroring the RumorAck path: serve the
    // target's piggyback pulls and fetch what its piggyback showed us.
    for (const RumorId& id : want->pull_ids) {
      const PeerRecord* r = directory_.find(id.origin);
      if (r != nullptr && r->version >= id.version) resp.rumors.push_back(pull_rumor_for(*r));
    }
    if (!resp.rumors.empty()) out.push_back(Outgoing{from, std::move(resp)});
    std::vector<RumorId> missing = lacking(want->recent_ids);
    if (!missing.empty()) out.push_back(Outgoing{from, PullRequestMsg{std::move(missing)}});
    return out;
  }

  return out;
}

void Protocol::on_send_failed(PeerId to, TimePoint now) {
  directory_.mark_offline(to, now);
  if (pending_pull_ && pending_pull_->target == to) {
    // The pull target is unreachable — no reply will ever come. Allow an
    // immediate retry at the next round; the attempt still counts toward
    // the catch-up bound.
    pending_pull_->retry_round = round_counter_;
  }
}

}  // namespace planetp::gossip
