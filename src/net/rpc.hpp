#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "util/byte_buffer.hpp"

/// \file rpc.hpp
/// Request/response messages carried on the RPC channel of the live
/// runtime: remote ranked-query evaluation (eq. 2 with shipped weights),
/// exhaustive term search, and document fetch.

namespace planetp::net {

struct WeightedTerm {
  std::string term;
  double weight = 0.0;
};

struct RemoteDoc {
  std::uint32_t peer = 0;
  std::uint32_t local = 0;
  double score = 0.0;
  std::string title;
};

/// Evaluate eq. 2 under the searcher's weights and return the receiver's
/// own top \p k (docs/SEARCH.md §1: no document the merged top-k needs is
/// left behind).
struct RankedRequest {
  std::uint64_t request_id = 0;
  std::uint32_t k = 0;
  std::vector<WeightedTerm> weights;
};

struct RankedResponse {
  std::uint64_t request_id = 0;
  std::vector<RemoteDoc> docs;
};

struct ExhaustiveRequest {
  std::uint64_t request_id = 0;
  std::string query;
};

struct ExhaustiveResponse {
  std::uint64_t request_id = 0;
  std::vector<RemoteDoc> docs;
};

struct FetchRequest {
  std::uint64_t request_id = 0;
  std::uint32_t peer = 0;
  std::uint32_t local = 0;
};

struct FetchResponse {
  std::uint64_t request_id = 0;
  bool found = false;
  std::string title;
  std::string xml;
};

/// One brokered snippet on the wire (§4's information brokerage).
struct WireSnippet {
  std::uint32_t publisher = 0;
  std::uint64_t snippet_id = 0;
  std::string xml;
  std::vector<std::string> keys;
  std::int64_t ttl_us = 0;  ///< remaining lifetime (senders ship TTLs, not
                            ///< absolute times — peer clocks are unrelated)
};

/// Store a snippet at the receiving broker under its keys (fire-and-forget;
/// the brokerage is best-effort by design). request_id is 0.
struct StoreSnippetRequest {
  std::uint64_t request_id = 0;
  WireSnippet snippet;
};

struct LookupSnippetRequest {
  std::uint64_t request_id = 0;
  std::string key;
};

struct LookupSnippetResponse {
  std::uint64_t request_id = 0;
  std::vector<WireSnippet> snippets;
};

using RpcMessage =
    std::variant<RankedRequest, RankedResponse, ExhaustiveRequest, ExhaustiveResponse,
                 FetchRequest, FetchResponse, StoreSnippetRequest, LookupSnippetRequest,
                 LookupSnippetResponse>;

std::vector<std::uint8_t> encode_rpc(const RpcMessage& msg);
RpcMessage decode_rpc(std::span<const std::uint8_t> data);

/// The request id of any RPC message (responses echo their request's id).
std::uint64_t rpc_request_id(const RpcMessage& msg);

}  // namespace planetp::net
