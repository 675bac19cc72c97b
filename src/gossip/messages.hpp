#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <variant>
#include <vector>

#include "gossip/types.hpp"
#include "util/byte_buffer.hpp"

/// \file messages.hpp
/// Gossip wire messages. One encode/decode path serves the live TCP runtime;
/// the simulator prices the same messages with the Table 2 size model (3-byte
/// header, 48-byte peer summaries, 6-byte rumor-id/BF summaries, and a
/// linear-in-keys Bloom filter cost anchored at 1000 keys = 3000 B and
/// 20000 keys = 16000 B).
///
/// Rumor payloads are *interned*: a RumorPayload entering the hot set is
/// wrapped once in an immutable SharedRumor and every message that carries it
/// — across fanout targets, rounds, and re-gossip hops — holds the same
/// shared_ptr. The wire encoding is computed lazily, once per SharedRumor,
/// and spliced into each message verbatim, so a rumor's address string and
/// filter bytes are serialized exactly once no matter how often it is sent.

namespace planetp::gossip {

/// An immutable rumor payload plus its lazily-computed wire encoding.
/// Thread-safe: the live runtime encodes outside the node lock, so the wire
/// cache is guarded by a once_flag. The payload itself never changes after
/// construction.
class SharedRumor {
 public:
  explicit SharedRumor(RumorPayload payload) : payload_(std::move(payload)) {}

  const RumorPayload& payload() const { return payload_; }
  RumorId id() const { return payload_.id(); }

  /// The payload's binary encoding (exactly what encode_payload emits),
  /// produced on first use and reused for every subsequent send.
  std::span<const std::uint8_t> wire() const;

 private:
  RumorPayload payload_;
  mutable std::once_flag wire_once_;
  mutable std::vector<std::uint8_t> wire_;
};

using RumorPtr = std::shared_ptr<const SharedRumor>;

/// Wrap a payload for sharing.
inline RumorPtr intern_rumor(RumorPayload payload) {
  return std::make_shared<SharedRumor>(std::move(payload));
}

/// An ordered list of shared rumors. Iteration and operator[] yield the
/// payloads (what protocol logic and tests read); ptr()/shared() expose the
/// interned handles for zero-copy forwarding.
class RumorList {
 public:
  RumorList() = default;

  void push_back(RumorPayload p) { items_.push_back(intern_rumor(std::move(p))); }
  void push_back(RumorPtr p) { items_.push_back(std::move(p)); }
  void reserve(std::size_t n) { items_.reserve(n); }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  const RumorPayload& operator[](std::size_t i) const { return items_[i]->payload(); }
  const RumorPayload& back() const { return items_.back()->payload(); }
  const RumorPtr& ptr(std::size_t i) const { return items_[i]; }
  const std::vector<RumorPtr>& shared() const { return items_; }

  /// Payload-view iterator, so `for (const RumorPayload& p : msg.rumors)`
  /// reads naturally at every consumer.
  class const_iterator {
   public:
    explicit const_iterator(std::vector<RumorPtr>::const_iterator it) : it_(it) {}
    const RumorPayload& operator*() const { return (*it_)->payload(); }
    const RumorPayload* operator->() const { return &(*it_)->payload(); }
    const_iterator& operator++() {
      ++it_;
      return *this;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    std::vector<RumorPtr>::const_iterator it_;
  };
  const_iterator begin() const { return const_iterator(items_.begin()); }
  const_iterator end() const { return const_iterator(items_.end()); }

 private:
  std::vector<RumorPtr> items_;
};

/// Push rumoring: the sender's currently-hot rumors, plus the partial
/// anti-entropy piggyback — ids of the most recent rumors the sender learned
/// but is no longer actively spreading (§3).
struct RumorMsg {
  RumorList rumors;
  std::vector<RumorId> recent_ids;
};

/// Reply to RumorMsg: which of the pushed rumors the receiver already knew
/// (drives the sender's stop-counter), the receiver's own piggyback, and the
/// ids the receiver wants pulled (it was missing them from the sender's
/// piggyback).
struct RumorAckMsg {
  std::vector<RumorId> already_knew;
  std::vector<RumorId> recent_ids;
  std::vector<RumorId> pull_ids;
};

/// Lazy rumor mongering (docs/PROTOCOL.md "Lazy dissemination"): instead of
/// full payloads, push only the (id, version) digests of the sender's hot
/// rumors. Receivers diff against their directory and reply with a
/// RumorWantMsg naming the ids whose bodies they lack. `recent_ids` is the
/// same partial anti-entropy piggyback RumorMsg carries.
struct RumorDigestMsg {
  std::vector<RumorId> ids;
  std::vector<RumorId> recent_ids;
};

/// Reply to RumorDigestMsg. Every digest id is echoed into exactly one of
/// `want` / `already_knew`, so the sender's per-rumor stop counters advance
/// on precise evidence (unlike RumorAck, whose "absence means news" rule
/// assumes one message carried the whole hot set). `recent_ids` / `pull_ids`
/// are the partial anti-entropy legs, as in RumorAckMsg.
struct RumorWantMsg {
  std::vector<RumorId> want;          ///< bodies the receiver lacks
  std::vector<RumorId> already_knew;  ///< digest ids already at or past this version
  std::vector<RumorId> recent_ids;
  std::vector<RumorId> pull_ids;
};

/// Pull anti-entropy step 1: ask the target for its directory summary.
/// `base_token` (0 = none) advertises the asker's shared DirectoryBase (lazy
/// peers only); a replier holding the same base answers with a delta-only
/// SummaryMsg.
struct SummaryRequestMsg {
  std::uint64_t base_token = 0;
};

/// A based Directory's summary expressed as (shared base snapshot, shared
/// changed-set): the logical entry list is the base with delta entries merged
/// over it and removed ids dropped. Building one is two pointer copies no
/// matter the community size, and a receiver sharing the same base compares
/// deltas instead of full lists (Directory::newer_in/same_as fast paths).
/// The merged flat list is materialized lazily, at most once, only when a
/// consumer genuinely needs per-entry iteration (live-mode encode, or a
/// receiver that does not share the base).
struct SummaryView {
  SummaryView(SummarySnapshot b, std::shared_ptr<const SummaryDelta> d, std::size_t merged)
      : base(std::move(b)), delta(std::move(d)), merged_size(merged) {}

  SummarySnapshot base;
  std::shared_ptr<const SummaryDelta> delta;
  std::size_t merged_size = 0;

  const std::vector<PeerSummary>& flat_list() const;

 private:
  mutable std::once_flag flat_once_;
  mutable std::vector<PeerSummary> flat_;
};

/// Directory summary entries: a Directory snapshot shared as-is, a shared
/// base+delta view (based directories), or a locally built list (decode,
/// tests). Reads see one id-sorted vector either way.
class SummaryEntries {
 public:
  SummaryEntries() = default;
  SummaryEntries(SummarySnapshot snap) : snap_(std::move(snap)) {}
  SummaryEntries(std::shared_ptr<const SummaryView> view) : view_(std::move(view)) {}
  SummaryEntries(std::initializer_list<PeerSummary> init) : own_(init) {}

  static SummaryEntries adopt(std::vector<PeerSummary> v) {
    SummaryEntries e;
    e.own_ = std::move(v);
    return e;
  }

  /// Builder-path append (decode, tests). Detaches from a shared snapshot.
  void push_back(const PeerSummary& s) {
    if (snap_ != nullptr || view_ != nullptr) {
      own_ = list();
      snap_.reset();
      view_.reset();
    }
    own_.push_back(s);
  }
  void reserve(std::size_t n) {
    if (snap_ == nullptr && view_ == nullptr) own_.reserve(n);
  }

  const std::vector<PeerSummary>& list() const {
    if (view_ != nullptr) return view_->flat_list();
    return snap_ != nullptr ? *snap_ : own_;
  }
  /// O(1) in every mode — the SizeModel path must never force a view to
  /// materialize its merged list.
  std::size_t size() const { return view_ != nullptr ? view_->merged_size : list().size(); }
  bool empty() const { return size() == 0; }
  const PeerSummary& operator[](std::size_t i) const { return list()[i]; }
  std::vector<PeerSummary>::const_iterator begin() const { return list().begin(); }
  std::vector<PeerSummary>::const_iterator end() const { return list().end(); }

  /// The version this summary advertises for \p id, if present. O(log n) for
  /// shared views (no materialization), linear otherwise. Replaces the O(n)
  /// own-id scan every summary receipt used to pay.
  std::optional<std::uint64_t> version_of(PeerId id) const;

  /// Non-null when this summary is a shared base+delta view (the receiver
  /// checks base pointer identity for the O(changed) compare fast path).
  const std::shared_ptr<const SummaryView>& view() const { return view_; }

 private:
  SummarySnapshot snap_;
  std::shared_ptr<const SummaryView> view_;
  std::vector<PeerSummary> own_;
};

/// Directory summary: one PeerSummary per known record. Sent as the reply in
/// pull anti-entropy, or unsolicited in push-anti-entropy-only mode (the
/// paper's LAN-AE baseline). `push` distinguishes the two on receipt.
struct SummaryMsg {
  SummaryEntries entries;
  bool push = false;
  /// Non-zero when the replier holds a T_dead tombstone for the *asker*: the
  /// version the asker's record was expired at. The asker restarted below it
  /// (lost its version counter in a crash), so every update it gossips at or
  /// below this version will be refused as stale — it must jump past it.
  std::uint64_t rejoin_floor = 0;
  /// Non-zero: this summary is *delta-only* against the shared DirectoryBase
  /// `base_token` (which the asker advertised and the replier verified it
  /// holds). Only the replier's changed-set travels: in simulation `entries`
  /// stays the full shared view and the size model prices the delta; on the
  /// live wire only the delta entries plus `removed` are encoded, and the
  /// decoded form carries exactly those.
  std::uint64_t base_token = 0;
  /// Delta-only decoded form: base ids the replier expired locally.
  std::vector<PeerId> removed;
};

/// Ask the target for full records of these rumor ids (anti-entropy pull, or
/// partial-anti-entropy pull after a piggyback hit).
struct PullRequestMsg {
  std::vector<RumorId> ids;
};

/// Full records answering a PullRequestMsg. Filters are sent whole here
/// (base_version == 0), since the requester may hold no usable base.
struct PullResponseMsg {
  RumorList rumors;
};

using Message = std::variant<RumorMsg, RumorAckMsg, SummaryRequestMsg, SummaryMsg,
                             PullRequestMsg, PullResponseMsg, RumorDigestMsg, RumorWantMsg>;

/// Number of alternatives in Message; per-type traffic accounting (sim
/// NetworkStats) indexes by variant index.
inline constexpr std::size_t kMessageTypeCount = std::variant_size_v<Message>;

/// Table 2 wire-cost model. Changing these constants re-prices every
/// simulated experiment without touching protocol logic.
struct SizeModel {
  std::size_t header_bytes = 3;
  std::size_t summary_entry_bytes = 6;  ///< Table 2 "BF summary": (id, version) digest
  std::size_t rumor_id_bytes = 6;
  std::size_t base_token_bytes = 8;  ///< shared-base token on delta summaries
  std::size_t removed_id_bytes = 4;  ///< one removed PeerId on delta summaries
  std::size_t record_base_bytes = 48;  ///< Table 2 "peer summary": full record sans filter
  // Linear Bloom-filter cost through Table 2's anchors
  // (1000, 3000) and (20000, 16000).
  double filter_fixed_bytes = 2315.8;
  double filter_per_key_bytes = 0.6842;

  /// Modeled compressed size of a filter payload covering \p keys keys.
  std::size_t filter_bytes(std::uint64_t keys) const;
};

/// Modeled wire size of \p msg under \p model. When a payload carries real
/// filter bytes (live mode) those dominate the model's estimate.
std::size_t wire_size(const Message& msg, const SizeModel& model);

/// Modeled wire size of one rumor payload (record base + filter cost).
std::size_t payload_wire_size(const RumorPayload& payload, const SizeModel& model);

/// Exact binary encoding size of \p msg (tag byte included). encode_message
/// pre-sizes its output from this, so encoding never reallocates.
std::size_t encoded_size(const Message& msg);

/// Binary encoding (live runtime). The first byte is the variant tag.
std::vector<std::uint8_t> encode_message(const Message& msg);

/// Encode into a caller-owned writer (cleared first), reserving exactly
/// encoded_size(msg) so the write path performs at most one allocation —
/// zero when the writer's buffer is reused and already large enough.
void encode_message_into(ByteWriter& w, const Message& msg);

/// Inverse of encode_message; throws on malformed input.
Message decode_message(std::span<const std::uint8_t> data);

/// Human-readable tag for logs.
const char* message_name(const Message& msg);

}  // namespace planetp::gossip
