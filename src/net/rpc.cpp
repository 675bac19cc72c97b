#include "net/rpc.hpp"

#include <limits>
#include <stdexcept>

namespace planetp::net {

namespace {

enum class Tag : std::uint8_t {
  kRankedRequest = 1,
  kRankedResponse = 2,
  kExhaustiveRequest = 3,
  kExhaustiveResponse = 4,
  kFetchRequest = 5,
  kFetchResponse = 6,
  kStoreSnippet = 7,
  kLookupSnippetRequest = 8,
  kLookupSnippetResponse = 9,
};

void encode_snippet(ByteWriter& w, const WireSnippet& s) {
  w.u32(s.publisher);
  w.u64(s.snippet_id);
  w.str(s.xml);
  w.varint(s.keys.size());
  for (const auto& k : s.keys) w.str(k);
  w.svarint(s.ttl_us);
}

WireSnippet decode_snippet(ByteReader& r) {
  WireSnippet s;
  s.publisher = r.u32();
  s.snippet_id = r.u64();
  s.xml = r.str();
  const std::size_t n = r.count();
  s.keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) s.keys.push_back(r.str());
  s.ttl_us = r.svarint();
  return s;
}

void encode_docs(ByteWriter& w, const std::vector<RemoteDoc>& docs) {
  w.varint(docs.size());
  for (const RemoteDoc& d : docs) {
    w.u32(d.peer);
    w.u32(d.local);
    w.f64(d.score);
    w.str(d.title);
  }
}

std::vector<RemoteDoc> decode_docs(ByteReader& r) {
  const std::size_t n = r.count(17);  // u32 + u32 + f64 + 1-byte str prefix
  std::vector<RemoteDoc> docs;
  docs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    RemoteDoc d;
    d.peer = r.u32();
    d.local = r.u32();
    d.score = r.f64();
    d.title = r.str();
    docs.push_back(std::move(d));
  }
  return docs;
}

struct Encoder {
  ByteWriter& w;

  void operator()(const RankedRequest& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kRankedRequest));
    w.u64(m.request_id);
    w.varint(m.k);
    w.varint(m.weights.size());
    for (const WeightedTerm& t : m.weights) {
      w.str(t.term);
      w.f64(t.weight);
    }
  }
  void operator()(const RankedResponse& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kRankedResponse));
    w.u64(m.request_id);
    encode_docs(w, m.docs);
  }
  void operator()(const ExhaustiveRequest& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kExhaustiveRequest));
    w.u64(m.request_id);
    w.str(m.query);
  }
  void operator()(const ExhaustiveResponse& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kExhaustiveResponse));
    w.u64(m.request_id);
    encode_docs(w, m.docs);
  }
  void operator()(const FetchRequest& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kFetchRequest));
    w.u64(m.request_id);
    w.u32(m.peer);
    w.u32(m.local);
  }
  void operator()(const FetchResponse& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kFetchResponse));
    w.u64(m.request_id);
    w.u8(m.found ? 1 : 0);
    w.str(m.title);
    w.str(m.xml);
  }
  void operator()(const StoreSnippetRequest& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kStoreSnippet));
    w.u64(m.request_id);
    encode_snippet(w, m.snippet);
  }
  void operator()(const LookupSnippetRequest& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kLookupSnippetRequest));
    w.u64(m.request_id);
    w.str(m.key);
  }
  void operator()(const LookupSnippetResponse& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kLookupSnippetResponse));
    w.u64(m.request_id);
    w.varint(m.snippets.size());
    for (const auto& s : m.snippets) encode_snippet(w, s);
  }
};

}  // namespace

std::vector<std::uint8_t> encode_rpc(const RpcMessage& msg) {
  ByteWriter w;
  std::visit(Encoder{w}, msg);
  return w.take();
}

RpcMessage decode_rpc(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  const Tag tag = static_cast<Tag>(r.u8());
  switch (tag) {
    case Tag::kRankedRequest: {
      RankedRequest m;
      m.request_id = r.u64();
      const std::uint64_t k = r.varint();
      if (k > std::numeric_limits<std::uint32_t>::max()) {
        throw std::out_of_range("decode_rpc: ranked k exceeds 32 bits");
      }
      m.k = static_cast<std::uint32_t>(k);
      const std::size_t n = r.count(9);  // str + f64
      m.weights.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        WeightedTerm t;
        t.term = r.str();
        t.weight = r.f64();
        m.weights.push_back(std::move(t));
      }
      return m;
    }
    case Tag::kRankedResponse: {
      RankedResponse m;
      m.request_id = r.u64();
      m.docs = decode_docs(r);
      return m;
    }
    case Tag::kExhaustiveRequest: {
      ExhaustiveRequest m;
      m.request_id = r.u64();
      m.query = r.str();
      return m;
    }
    case Tag::kExhaustiveResponse: {
      ExhaustiveResponse m;
      m.request_id = r.u64();
      m.docs = decode_docs(r);
      return m;
    }
    case Tag::kFetchRequest: {
      FetchRequest m;
      m.request_id = r.u64();
      m.peer = r.u32();
      m.local = r.u32();
      return m;
    }
    case Tag::kFetchResponse: {
      FetchResponse m;
      m.request_id = r.u64();
      m.found = r.u8() != 0;
      m.title = r.str();
      m.xml = r.str();
      return m;
    }
    case Tag::kStoreSnippet: {
      StoreSnippetRequest m;
      m.request_id = r.u64();
      m.snippet = decode_snippet(r);
      return m;
    }
    case Tag::kLookupSnippetRequest: {
      LookupSnippetRequest m;
      m.request_id = r.u64();
      m.key = r.str();
      return m;
    }
    case Tag::kLookupSnippetResponse: {
      LookupSnippetResponse m;
      m.request_id = r.u64();
      const std::size_t n = r.count(15);  // minimum encoded WireSnippet
      m.snippets.reserve(n);
      for (std::size_t i = 0; i < n; ++i) m.snippets.push_back(decode_snippet(r));
      return m;
    }
  }
  throw std::runtime_error("decode_rpc: unknown tag");
}

std::uint64_t rpc_request_id(const RpcMessage& msg) {
  return std::visit([](const auto& m) { return m.request_id; }, msg);
}

}  // namespace planetp::net
