#pragma once

#include <atomic>
#include <cstdint>

#include "gossip/stats.hpp"

/// \file net_stats.hpp
/// Observability surface of the live TCP runtime (docs/NET.md "NetStats").
/// `NetStats` is a plain copyable snapshot; `NetCounters` is the internally
/// shared atomic holder that the reactor (and LiveNode, for its own fields)
/// increments with relaxed ordering — counters are monotonic telemetry, not
/// synchronization.

namespace planetp::net {

/// Point-in-time snapshot of a reactor's counters. Counters are cumulative
/// since construction; `connections` and `queued_bytes` are gauges.
struct NetStats {
  // Wire traffic.
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;

  // Connection lifecycle.
  std::uint64_t accepts = 0;          ///< inbound connections accepted
  std::uint64_t connects_ok = 0;      ///< outbound connects completed
  std::uint64_t connects_failed = 0;  ///< refused / reset / timed out connects
  std::uint64_t closes = 0;           ///< every connection teardown (any cause)
  std::uint64_t idle_reaped = 0;      ///< subset of closes: idle-timeout reaps
  std::uint64_t backoffs_engaged = 0; ///< times a failure armed reconnect backoff

  // Backpressure / drop accounting (frames, not bytes).
  std::uint64_t drops_backpressure = 0;  ///< gossip frames evicted or refused by byte caps
  std::uint64_t drops_backoff = 0;       ///< frames refused while an address is in backoff
  std::uint64_t drops_unroutable = 0;    ///< unparseable address / socket creation failure
  std::uint64_t rpc_rejected_full = 0;   ///< RPC sends rejected synchronously by the global cap
  std::uint64_t oversize_closes = 0;     ///< connections closed for an over-cap frame
  /// RPC responses no call was waiting for (late or unsolicited), dropped
  /// unkept. Counted by LiveNode, not the reactor.
  std::uint64_t rpc_responses_dropped = 0;

  // Gauges.
  std::uint64_t connections = 0;       ///< open connections right now
  std::uint64_t queued_bytes = 0;      ///< outbound bytes queued right now (all connections)
  std::uint64_t peak_queued_bytes = 0; ///< high-water mark of queued_bytes

  /// Dissemination counters from this node's gossip::Protocol (payload
  /// pushes vs. duplicates, digests, served wants). LiveNode::net_stats()
  /// merges them into the reactor snapshot under the node lock.
  gossip::GossipStats gossip;

  NetStats& operator+=(const NetStats& o) {
    bytes_in += o.bytes_in;
    bytes_out += o.bytes_out;
    frames_in += o.frames_in;
    frames_out += o.frames_out;
    accepts += o.accepts;
    connects_ok += o.connects_ok;
    connects_failed += o.connects_failed;
    closes += o.closes;
    idle_reaped += o.idle_reaped;
    backoffs_engaged += o.backoffs_engaged;
    drops_backpressure += o.drops_backpressure;
    drops_backoff += o.drops_backoff;
    drops_unroutable += o.drops_unroutable;
    rpc_rejected_full += o.rpc_rejected_full;
    oversize_closes += o.oversize_closes;
    rpc_responses_dropped += o.rpc_responses_dropped;
    connections += o.connections;
    queued_bytes += o.queued_bytes;
    if (o.peak_queued_bytes > peak_queued_bytes) peak_queued_bytes = o.peak_queued_bytes;
    gossip += o.gossip;
    return *this;
  }
};

/// Atomic counter holder behind NetStats. All increments use relaxed order.
class NetCounters {
 public:
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
  std::atomic<std::uint64_t> frames_in{0};
  std::atomic<std::uint64_t> frames_out{0};
  std::atomic<std::uint64_t> accepts{0};
  std::atomic<std::uint64_t> connects_ok{0};
  std::atomic<std::uint64_t> connects_failed{0};
  std::atomic<std::uint64_t> closes{0};
  std::atomic<std::uint64_t> idle_reaped{0};
  std::atomic<std::uint64_t> backoffs_engaged{0};
  std::atomic<std::uint64_t> drops_backpressure{0};
  std::atomic<std::uint64_t> drops_backoff{0};
  std::atomic<std::uint64_t> drops_unroutable{0};
  std::atomic<std::uint64_t> rpc_rejected_full{0};
  std::atomic<std::uint64_t> oversize_closes{0};
  std::atomic<std::uint64_t> connections{0};
  std::atomic<std::uint64_t> queued_bytes{0};
  std::atomic<std::uint64_t> peak_queued_bytes{0};

  void note_queued_peak() {
    const std::uint64_t q = queued_bytes.load(std::memory_order_relaxed);
    std::uint64_t peak = peak_queued_bytes.load(std::memory_order_relaxed);
    while (q > peak &&
           !peak_queued_bytes.compare_exchange_weak(peak, q, std::memory_order_relaxed)) {
    }
  }

  NetStats snapshot() const {
    NetStats s;
    s.bytes_in = bytes_in.load(std::memory_order_relaxed);
    s.bytes_out = bytes_out.load(std::memory_order_relaxed);
    s.frames_in = frames_in.load(std::memory_order_relaxed);
    s.frames_out = frames_out.load(std::memory_order_relaxed);
    s.accepts = accepts.load(std::memory_order_relaxed);
    s.connects_ok = connects_ok.load(std::memory_order_relaxed);
    s.connects_failed = connects_failed.load(std::memory_order_relaxed);
    s.closes = closes.load(std::memory_order_relaxed);
    s.idle_reaped = idle_reaped.load(std::memory_order_relaxed);
    s.backoffs_engaged = backoffs_engaged.load(std::memory_order_relaxed);
    s.drops_backpressure = drops_backpressure.load(std::memory_order_relaxed);
    s.drops_backoff = drops_backoff.load(std::memory_order_relaxed);
    s.drops_unroutable = drops_unroutable.load(std::memory_order_relaxed);
    s.rpc_rejected_full = rpc_rejected_full.load(std::memory_order_relaxed);
    s.oversize_closes = oversize_closes.load(std::memory_order_relaxed);
    s.connections = connections.load(std::memory_order_relaxed);
    s.queued_bytes = queued_bytes.load(std::memory_order_relaxed);
    s.peak_queued_bytes = peak_queued_bytes.load(std::memory_order_relaxed);
    return s;
  }
};

}  // namespace planetp::net
