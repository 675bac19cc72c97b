#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "index/persistence.hpp"
#include "net/framing.hpp"
#include "net/live_node.hpp"
#include "net/reactor.hpp"
#include "net/rpc.hpp"

namespace planetp::net {
namespace {

TEST(Framing, EncodeDecodeSingleFrame) {
  Frame frame;
  frame.sender = 42;
  frame.channel = Channel::kRpc;
  frame.payload = {1, 2, 3, 4};

  FrameDecoder decoder;
  decoder.feed(encode_frame(frame));
  const auto out = decoder.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->sender, 42u);
  EXPECT_EQ(out->channel, Channel::kRpc);
  EXPECT_EQ(out->payload, frame.payload);
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(Framing, HandlesPartialFeeds) {
  Frame frame;
  frame.sender = 7;
  frame.payload.assign(1000, 0xab);
  const auto bytes = encode_frame(frame);

  FrameDecoder decoder;
  // Feed one byte at a time; the frame must appear exactly once, at the end.
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.feed(std::span<const std::uint8_t>(&bytes[i], 1));
    EXPECT_FALSE(decoder.next().has_value());
  }
  decoder.feed(std::span<const std::uint8_t>(&bytes.back(), 1));
  const auto out = decoder.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->payload.size(), 1000u);
}

TEST(Framing, HandlesCoalescedFrames) {
  Frame f1;
  f1.sender = 1;
  f1.payload = {9};
  Frame f2;
  f2.sender = 2;
  f2.channel = Channel::kRpc;
  f2.payload = {8, 7};

  auto bytes = encode_frame(f1);
  const auto more = encode_frame(f2);
  bytes.insert(bytes.end(), more.begin(), more.end());

  FrameDecoder decoder;
  decoder.feed(bytes);
  const auto a = decoder.next();
  const auto b = decoder.next();
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->sender, 1u);
  EXPECT_EQ(b->sender, 2u);
  EXPECT_EQ(b->payload, (std::vector<std::uint8_t>{8, 7}));
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(Framing, EmptyPayloadFrame) {
  Frame frame;
  frame.sender = 5;
  FrameDecoder decoder;
  decoder.feed(encode_frame(frame));
  const auto out = decoder.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->payload.empty());
}

TEST(Framing, CorruptLengthThrows) {
  // A frame body length of 0 is impossible (minimum 5 bytes).
  const std::vector<std::uint8_t> bogus = {0, 0, 0, 0, 1, 2, 3, 4, 5};
  FrameDecoder decoder;
  decoder.feed(bogus);
  EXPECT_THROW(decoder.next(), std::runtime_error);
}

TEST(Rpc, RankedRoundtrip) {
  RankedRequest req;
  req.request_id = 99;
  req.k = 4'000'000'000u;  // a multi-byte varint near the 32-bit ceiling
  req.weights = {{"gossip", 1.5}, {"bloom", 0.25}};
  const RpcMessage decoded = decode_rpc(encode_rpc(req));
  const auto* out = std::get_if<RankedRequest>(&decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->request_id, 99u);
  EXPECT_EQ(out->k, 4'000'000'000u);
  ASSERT_EQ(out->weights.size(), 2u);
  EXPECT_EQ(out->weights[0].term, "gossip");
  EXPECT_DOUBLE_EQ(out->weights[1].weight, 0.25);
  EXPECT_EQ(rpc_request_id(decoded), 99u);
}

TEST(Rpc, ResponseRoundtrip) {
  RankedResponse resp;
  resp.request_id = 5;
  resp.docs = {{1, 2, 0.5, "title a"}, {3, 4, 0.25, ""}};
  const RpcMessage decoded = decode_rpc(encode_rpc(resp));
  const auto* out = std::get_if<RankedResponse>(&decoded);
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(out->docs.size(), 2u);
  EXPECT_EQ(out->docs[0].title, "title a");
  EXPECT_EQ(out->docs[1].peer, 3u);
}

TEST(Rpc, FetchRoundtrip) {
  FetchResponse resp;
  resp.request_id = 8;
  resp.found = true;
  resp.title = "t";
  resp.xml = "<doc>x</doc>";
  const RpcMessage decoded = decode_rpc(encode_rpc(resp));
  const auto* out = std::get_if<FetchResponse>(&decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(out->found);
  EXPECT_EQ(out->xml, "<doc>x</doc>");
}

// ---------------------------------------------------------------------------
// Live end-to-end over loopback TCP
// ---------------------------------------------------------------------------

LiveNodeConfig fast_config() {
  LiveNodeConfig cfg;
  cfg.bloom.bits = 65536;
  cfg.gossip.base_interval = 100 * kMillisecond;  // fast rounds for tests
  cfg.gossip.max_interval = 400 * kMillisecond;
  cfg.gossip.slow_down = 100 * kMillisecond;
  cfg.rpc_timeout = 3 * kSecond;
  return cfg;
}

TEST(LiveNode, ThreeNodesConvergeAndSearch) {
  LiveNode a(0, fast_config());
  LiveNode b(1, fast_config());
  LiveNode c(2, fast_config());
  a.start();
  b.start();
  c.start();

  b.join(0, a.address());
  c.join(0, a.address());

  ASSERT_TRUE(a.wait_for_peers(3, 20 * kSecond));
  ASSERT_TRUE(b.wait_for_peers(3, 20 * kSecond));
  ASSERT_TRUE(c.wait_for_peers(3, 20 * kSecond));

  b.publish_text("Gossip Paper", "gossiping builds content addressable communities");
  // Wait until c has seen b's filter-change version.
  ASSERT_TRUE(c.wait_for_version(1, 2, 30 * kSecond));

  const auto hits = c.ranked_search("gossiping communities", 5);
  ASSERT_GE(hits.size(), 1u);
  EXPECT_EQ(hits[0].peer, 1u);
  EXPECT_EQ(hits[0].title, "Gossip Paper");

  const auto exhaustive = c.exhaustive_search("content addressable");
  ASSERT_EQ(exhaustive.size(), 1u);
  EXPECT_EQ(exhaustive[0].title, "Gossip Paper");

  const auto xml = c.fetch_document(exhaustive[0].peer, exhaustive[0].local);
  ASSERT_TRUE(xml.has_value());
  EXPECT_NE(xml->find("communities"), std::string::npos);

  c.stop();
  b.stop();
  a.stop();
}

TEST(LiveNode, LazyModeConvergesOverTcpWithoutBlindPayloads) {
  // Digest/want/serve over real sockets: once the membership introductions
  // (which legitimately travel eagerly — a digest about a peer you cannot
  // address is undeliverable news) have drained, a publish must move zero
  // blind payloads, and the body must still arrive (served as an RPC-class
  // frame, exempt from gossip backpressure shedding).
  LiveNodeConfig cfg = fast_config();
  cfg.gossip.eager_fanout = 0;
  LiveNode a(0, cfg);
  LiveNode b(1, cfg);
  a.start();
  b.start();
  b.join(0, a.address());
  ASSERT_TRUE(a.wait_for_peers(2, 20 * kSecond));
  ASSERT_TRUE(b.wait_for_peers(2, 20 * kSecond));

  // Quiesce: wait until the join rumors have retired on both sides (no new
  // payload or digest sends across a full second of gossip rounds).
  const auto quiet = [&] {
    for (int i = 0; i < 100; ++i) {
      const auto a0 = a.net_stats().gossip;
      const auto b0 = b.net_stats().gossip;
      std::this_thread::sleep_for(std::chrono::seconds(1));
      const auto a1 = a.net_stats().gossip;
      const auto b1 = b.net_stats().gossip;
      if (a1.payloads_sent == a0.payloads_sent && b1.payloads_sent == b0.payloads_sent &&
          a1.digests_sent == a0.digests_sent && b1.digests_sent == b0.digests_sent) {
        return true;
      }
    }
    return false;
  };
  ASSERT_TRUE(quiet());

  const NetStats a0 = a.net_stats();
  const NetStats b0 = b.net_stats();
  a.publish_text("Lazy Doc", "digest want serve exchange over tcp");
  ASSERT_TRUE(b.wait_for_version(0, 2, 30 * kSecond));
  // An anti-entropy pull can deliver the body before a's next round sends
  // its digest. Every digest b receives is answered, so wait (bounded) for
  // that answer before reading the counters.
  for (int i = 0; i < 300 && b.net_stats().gossip.wants_sent == b0.gossip.wants_sent; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  const NetStats a1 = a.net_stats();
  EXPECT_EQ(a1.gossip.payloads_sent, a0.gossip.payloads_sent);
  EXPECT_GT(a1.gossip.digests_sent, a0.gossip.digests_sent);
  EXPECT_GT(a1.gossip.digest_ids_sent, a0.gossip.digest_ids_sent);
  const NetStats b1 = b.net_stats();
  EXPECT_EQ(b1.gossip.payloads_sent, b0.gossip.payloads_sent);
  // Every received digest is answered (want or already_knew), so the reply
  // counter is deterministic even if the body happened to arrive via an
  // anti-entropy pull first.
  EXPECT_GT(b1.gossip.wants_sent, b0.gossip.wants_sent);

  const auto hits = b.ranked_search("digest exchange", 5);
  ASSERT_GE(hits.size(), 1u);
  EXPECT_EQ(hits[0].title, "Lazy Doc");

  b.stop();
  a.stop();
}

TEST(LiveNode, ResponsesNobodyAwaitsAreDropped) {
  // RPC responses no call is waiting for — late or unsolicited — are
  // counted and dropped, not kept: outside input cannot grow the response
  // table, nor answer a later call that reuses the request id.
  LiveNode a(0, fast_config());
  LiveNode b(1, fast_config());
  a.start();
  b.start();
  b.join(0, a.address());
  ASSERT_TRUE(a.wait_for_peers(2, 20 * kSecond));
  b.publish_text("Genuine", "ptarmigan habitat survey");
  ASSERT_TRUE(a.wait_for_version(1, 2, 30 * kSecond));

  Reactor outsider;
  outsider.start(nullptr, nullptr);
  constexpr std::uint64_t kForged = 16;
  for (std::uint64_t id = 1; id <= kForged; ++id) {
    RankedResponse forged;
    forged.request_id = id;  // the ids a's next calls will carry
    forged.docs.push_back(RemoteDoc{1, 99, 1e9, "Forged"});
    Frame frame;
    frame.sender = 1;
    frame.channel = Channel::kRpc;
    frame.payload = encode_rpc(forged);
    ASSERT_EQ(outsider.send(a.address(), std::move(frame), SendClass::kRpc),
              SendResult::kEnqueued);
  }
  for (int i = 0; i < 200 && a.net_stats().rpc_responses_dropped < kForged; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_EQ(a.net_stats().rpc_responses_dropped, kForged);

  const auto hits = a.ranked_search("ptarmigan habitat", 5);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].title, "Genuine");
  EXPECT_EQ(a.net_stats().rpc_responses_dropped, kForged);

  outsider.stop();
  b.stop();
  a.stop();
}

TEST(LiveNode, SearchFindsDocumentsOnMultiplePeers) {
  LiveNode a(0, fast_config());
  LiveNode b(1, fast_config());
  a.start();
  b.start();
  b.join(0, a.address());
  ASSERT_TRUE(a.wait_for_peers(2, 20 * kSecond));

  a.publish_text("A Doc", "shared flamingo observations in africa");
  b.publish_text("B Doc", "more flamingo observations from europe");
  ASSERT_TRUE(a.wait_for_version(1, 2, 30 * kSecond));
  ASSERT_TRUE(b.wait_for_version(0, 2, 30 * kSecond));

  const auto hits = a.ranked_search("flamingo observations", 10);
  EXPECT_EQ(hits.size(), 2u);

  b.stop();
  a.stop();
}

TEST(LiveNode, FetchMissingDocumentReturnsEmpty) {
  LiveNode a(0, fast_config());
  a.start();
  EXPECT_FALSE(a.fetch_document(0, 12345).has_value());
  a.stop();
}


TEST(LiveNode, SnippetRpcRoundtrip) {
  StoreSnippetRequest store;
  store.snippet = {7, 42, "<s>body</s>", {"k1", "k2"}, 5 * kSecond};
  const RpcMessage decoded = decode_rpc(encode_rpc(store));
  const auto* out = std::get_if<StoreSnippetRequest>(&decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->snippet.publisher, 7u);
  EXPECT_EQ(out->snippet.snippet_id, 42u);
  EXPECT_EQ(out->snippet.keys, (std::vector<std::string>{"k1", "k2"}));
  EXPECT_EQ(out->snippet.ttl_us, 5 * kSecond);

  LookupSnippetResponse resp;
  resp.request_id = 9;
  resp.snippets.push_back({1, 2, "<x/>", {"a"}, kSecond});
  const RpcMessage decoded2 = decode_rpc(encode_rpc(resp));
  const auto* out2 = std::get_if<LookupSnippetResponse>(&decoded2);
  ASSERT_NE(out2, nullptr);
  ASSERT_EQ(out2->snippets.size(), 1u);
  EXPECT_EQ(out2->snippets[0].xml, "<x/>");
}

TEST(LiveNode, BrokeragePublishAndLookupAcrossPeers) {
  LiveNode a(0, fast_config());
  LiveNode b(1, fast_config());
  LiveNode c(2, fast_config());
  a.start();
  b.start();
  c.start();
  b.join(0, a.address());
  c.join(0, a.address());
  ASSERT_TRUE(a.wait_for_peers(3, 20 * kSecond));
  ASSERT_TRUE(b.wait_for_peers(3, 20 * kSecond));
  ASSERT_TRUE(c.wait_for_peers(3, 20 * kSecond));

  // b publishes a snippet; after routing settles, c can look it up through
  // the responsible broker, whoever that is.
  b.publish_snippet("<file href=\"u\">fresh content</file>", {"fresh", "content"},
                    30 * kSecond);
  std::vector<WireSnippet> found;
  for (int i = 0; i < 100 && found.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    found = c.lookup_snippets("fresh");
  }
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].publisher, 1u);
  EXPECT_NE(found[0].xml.find("fresh content"), std::string::npos);
  EXPECT_GT(found[0].ttl_us, 0);

  c.stop();
  b.stop();
  a.stop();
}

TEST(LiveNode, BrokeredSnippetsExpire) {
  LiveNode a(0, fast_config());
  a.start();
  a.publish_snippet("<x/>", {"ephemeral"}, 200 * kMillisecond);
  EXPECT_EQ(a.lookup_snippets("ephemeral").size(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_TRUE(a.lookup_snippets("ephemeral").empty());
  a.stop();
}


TEST(LiveNode, DirectorySnapshotReflectsMembership) {
  LiveNode a(0, fast_config());
  LiveNode b(1, fast_config());
  a.start();
  b.start();
  b.publish_text("Owned", "snapshot walrus content");
  b.join(0, a.address());
  ASSERT_TRUE(a.wait_for_peers(2, 20 * kSecond));

  const auto snapshot = a.directory_snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].id, 0u);
  EXPECT_EQ(snapshot[1].id, 1u);
  EXPECT_EQ(snapshot[1].address, b.address());
  EXPECT_TRUE(snapshot[1].online);
  EXPECT_GT(snapshot[1].key_count, 0u);  // b published before joining

  b.stop();
  a.stop();
}

TEST(LiveNode, RpcFailsFastWhenPeerCrashes) {
  LiveNodeConfig cfg = fast_config();
  cfg.search_retry.max_attempts = 1;  // isolate a single RPC's latency
  LiveNode a(0, cfg);
  LiveNode b(1, cfg);
  a.start();
  b.start();
  b.join(0, a.address());
  ASSERT_TRUE(a.wait_for_peers(2, 20 * kSecond));

  // b dies; a's next synchronous RPC to it must fail the moment the
  // transport reports the connect refused — not after the full 3 s timeout.
  b.stop();
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(a.fetch_document(1, 0).has_value());
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::milliseconds(1500))
      << "unreachable peer burned the rpc timeout";

  a.stop();
}

TEST(LiveNode, SendFailureKeepsPeerUntilTDead) {
  // §3: a peer that fails a send is marked offline, and only dropped after
  // T_dead of continuous absence, counted from the failure.
  LiveNodeConfig cfg = fast_config();
  cfg.gossip.t_dead = 60 * kSecond;
  LiveNode a(0, cfg);
  LiveNode b(1, cfg);
  a.start();
  b.start();
  b.join(0, a.address());
  ASSERT_TRUE(a.wait_for_peers(2, 20 * kSecond));

  b.stop();
  const auto b_offline = [&] {
    for (const auto& info : a.directory_snapshot()) {
      if (info.id == 1) return !info.online;
    }
    return true;  // already dropped
  };
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!b_offline() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(b_offline());
  // Every gossip round (100-400 ms here) expires the peers offline for
  // T_dead; give them two seconds.
  std::this_thread::sleep_for(std::chrono::seconds(2));
  EXPECT_EQ(a.known_peers(), 2u) << "b was expired long before T_dead";

  a.stop();
}

TEST(LiveNode, SerializedStoreRestoresAcrossRestart) {
  std::vector<std::uint8_t> snapshot;
  {
    LiveNode a(0, fast_config());
    a.start();
    a.publish_text("Durable", "persistent ptarmigan records");
    a.publish_text("Second", "more ptarmigan data");
    snapshot = a.serialize_store();
    a.stop();
  }
  const index::DataStore restored =
      index::deserialize_data_store(snapshot, fast_config().bloom);
  EXPECT_EQ(restored.num_documents(), 2u);
  EXPECT_EQ(restored.search_all_terms("ptarmigan").size(), 2u);

  // A new node seeded from the snapshot serves the same content.
  LiveNode reborn(0, fast_config());
  for (const index::DocumentId& id : restored.documents()) {
    reborn.publish(restored.document(id)->xml_source);
  }
  reborn.start();
  EXPECT_EQ(reborn.exhaustive_search("ptarmigan").size(), 2u);
  reborn.stop();
}

}  // namespace
}  // namespace planetp::net
