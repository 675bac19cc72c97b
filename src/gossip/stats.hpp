#pragma once

#include <cstdint>

/// \file stats.hpp
/// Dissemination counters kept by gossip::Protocol (docs/PROTOCOL.md "Lazy
/// dissemination"). They answer the question lazy dissemination exists for:
/// how many payload bytes were pushed blind, and how many of those arrived at
/// a receiver that already knew them. Plain integers, aggregated by the
/// embedding runtime (SimCommunity across peers, LiveNode into NetStats).

namespace planetp::gossip {

struct GossipStats {
  /// Rumor payloads pushed blind in RumorMsg, and their modeled wire bytes.
  /// At eager_fanout 0 no filter change is pushed blind, so with no joins or
  /// rejoins both stay 0.
  std::uint64_t payloads_sent = 0;
  std::uint64_t payload_bytes_sent = 0;

  /// Received payloads (RumorMsg or PullResponse) that superseded nothing —
  /// the redundant deliveries lazy dissemination eliminates.
  std::uint64_t duplicate_payloads = 0;
  std::uint64_t duplicate_payload_bytes = 0;

  /// Lazy handshake volume: digests pushed, ids they carried, want replies
  /// issued, ids wanted, and bodies served (from the interned hot store or
  /// the pull cache — either way a pointer splice, never a re-encode).
  std::uint64_t digests_sent = 0;
  std::uint64_t digest_ids_sent = 0;
  std::uint64_t wants_sent = 0;
  std::uint64_t want_ids_sent = 0;
  std::uint64_t wants_served = 0;

  GossipStats& operator+=(const GossipStats& o) {
    payloads_sent += o.payloads_sent;
    payload_bytes_sent += o.payload_bytes_sent;
    duplicate_payloads += o.duplicate_payloads;
    duplicate_payload_bytes += o.duplicate_payload_bytes;
    digests_sent += o.digests_sent;
    digest_ids_sent += o.digest_ids_sent;
    wants_sent += o.wants_sent;
    want_ids_sent += o.want_ids_sent;
    wants_served += o.wants_served;
    return *this;
  }

  /// Field-wise subtraction; used to report counters relative to a baseline
  /// snapshot (the benches' measurement-window semantics after a reset).
  GossipStats& operator-=(const GossipStats& o) {
    payloads_sent -= o.payloads_sent;
    payload_bytes_sent -= o.payload_bytes_sent;
    duplicate_payloads -= o.duplicate_payloads;
    duplicate_payload_bytes -= o.duplicate_payload_bytes;
    digests_sent -= o.digests_sent;
    digest_ids_sent -= o.digest_ids_sent;
    wants_sent -= o.wants_sent;
    want_ids_sent -= o.want_ids_sent;
    wants_served -= o.wants_served;
    return *this;
  }
};

}  // namespace planetp::gossip
