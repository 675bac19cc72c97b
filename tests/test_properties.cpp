/// Property-style and robustness tests cutting across modules: protocol
/// convergence under randomized churn, decoder behaviour on corrupted and
/// random inputs, and adversarial compression patterns.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <variant>

#include "gossip/messages.hpp"
#include "index/xml.hpp"
#include "net/framing.hpp"
#include "net/rpc.hpp"
#include "sim/community.hpp"
#include "util/golomb.hpp"
#include "util/rng.hpp"

namespace planetp {
namespace {

// ---------------------------------------------------------------------------
// Gossip convergence under randomized churn (the protocol's core guarantee)
// ---------------------------------------------------------------------------

class ChurnConvergence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnConvergence, DirectoriesConvergeAfterRandomChurn) {
  const std::uint64_t seed = GetParam();
  sim::SimConfig cfg;
  cfg.seed = seed;
  sim::SimCommunity community(cfg);
  constexpr std::size_t kPeers = 25;
  for (std::size_t i = 0; i < kPeers; ++i) {
    community.add_peer({sim::link_speed::kLan45M, 500});
  }
  community.start_converged();
  community.run_until(2 * kMinute);

  // Random storm: offline/rejoin/filter-change events over 20 minutes.
  Rng rng(seed * 31 + 7);
  std::vector<bool> online(kPeers, true);
  for (int burst = 0; burst < 40; ++burst) {
    const auto id = static_cast<gossip::PeerId>(rng.below(kPeers));
    const TimePoint when = community.queue().now() + 20 * kSecond;
    community.run_until(when);
    switch (rng.below(3)) {
      case 0:
        if (online[id] && community.online_count() > 2) {
          community.go_offline(id);
          online[id] = false;
        }
        break;
      case 1:
        if (!online[id]) {
          community.rejoin(id, rng.chance(0.3) ? 100 : 0);
          online[id] = true;
        }
        break;
      default:
        if (online[id]) community.inject_filter_change(id, 50);
    }
  }
  // Bring everyone back and let the community settle.
  for (std::size_t i = 0; i < kPeers; ++i) {
    if (!online[i]) community.rejoin(static_cast<gossip::PeerId>(i), 0);
  }
  community.run_until(community.queue().now() + 2 * kHour);
  EXPECT_TRUE(community.directories_consistent()) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnConvergence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Fault tolerance as a property: directory updates are versioned and
// idempotent, so duplicating and reordering traffic may change *when* the
// community converges but never *what* it converges to.
// ---------------------------------------------------------------------------

/// Fixed event script (filter changes, one offline/rejoin) under the given
/// fault plan; returns the converged directory as (id, version, key_count)
/// triples, asserting the community did converge.
std::vector<std::tuple<gossip::PeerId, std::uint64_t, std::uint32_t>> converged_directory(
    sim::FaultPlan faults) {
  sim::SimConfig cfg;
  cfg.seed = 4242;
  cfg.faults = std::move(faults);
  sim::SimCommunity community(cfg);
  constexpr std::size_t kPeers = 12;
  for (std::size_t i = 0; i < kPeers; ++i) {
    community.add_peer({sim::link_speed::kLan45M, 500});
  }
  community.start_converged();
  community.run_until(kMinute);
  community.inject_filter_change(0, 100);
  community.inject_filter_change(5, 50);
  community.run_until(5 * kMinute);
  community.go_offline(7);
  community.inject_filter_change(3, 25);
  community.run_until(15 * kMinute);
  community.rejoin(7, 10);
  community.run_until(2 * kHour);

  EXPECT_TRUE(community.directories_consistent());
  std::vector<std::tuple<gossip::PeerId, std::uint64_t, std::uint32_t>> out;
  community.protocol(0).directory().for_each([&](const gossip::PeerRecord& r) {
    out.emplace_back(r.id, r.version, r.key_count);
  });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(FaultProperties, DuplicatingAndReorderingAnyPrefixPreservesFinalState) {
  const auto baseline = converged_directory({});
  ASSERT_EQ(baseline.size(), 12u);

  // Duplicate and reorder aggressively over growing prefixes of the run,
  // including the whole of it. Whatever the fault window, the converged
  // directory must be byte-for-byte the baseline.
  for (const TimePoint window_end :
       {10 * kMinute, 30 * kMinute, std::numeric_limits<TimePoint>::max()}) {
    sim::FaultPlan plan;
    plan.duplicate(sim::FaultScope::any(), {0, window_end}, 0.5, 0, 5 * kSecond)
        .reorder(sim::FaultScope::any(), {0, window_end}, 0.5, 0, 10 * kSecond);
    EXPECT_EQ(converged_directory(std::move(plan)), baseline)
        << "fault window ends at " << window_end;
  }
}

// ---------------------------------------------------------------------------
// Decoder robustness: corrupted inputs must throw, never crash or hang
// ---------------------------------------------------------------------------

TEST(DecoderBounds, HostileListCountsAreRejectedBeforeAllocation) {
  // A tiny message claiming a 2^40-element list must throw up front, not
  // reserve() terabytes (found by the fuzz tests under ASan, whose allocator
  // refuses what Linux overcommit would silently grant).
  ByteWriter ranked;
  ranked.u8(2);  // RankedResponse
  ranked.u64(1);
  ranked.varint(std::uint64_t{1} << 40);  // doc count
  EXPECT_THROW((void)net::decode_rpc(ranked.data()), std::out_of_range);

  ByteWriter summary;
  summary.u8(4);  // Summary
  summary.u8(0);  // push
  summary.varint(std::uint64_t{1} << 40);  // entry count
  EXPECT_THROW((void)gossip::decode_message(summary.data()), std::out_of_range);
}

TEST(DecoderBounds, RankedRequestKMustFitThirtyTwoBits) {
  // A RankedRequest's k is a varint: one past the 32-bit ceiling is
  // rejected, the ceiling itself decodes.
  const auto request_with_k = [](std::uint64_t k) {
    ByteWriter w;
    w.u8(1);  // RankedRequest
    w.u64(7);
    w.varint(k);
    w.varint(0);  // no weights
    return w.take();
  };
  EXPECT_THROW((void)net::decode_rpc(request_with_k(std::uint64_t{1} << 32)), std::out_of_range);
  const net::RpcMessage msg = net::decode_rpc(request_with_k(0xFFFFFFFF));
  ASSERT_TRUE(std::holds_alternative<net::RankedRequest>(msg));
  EXPECT_EQ(std::get<net::RankedRequest>(msg).k, 0xFFFFFFFFu);
}

class FuzzDecoders : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzDecoders, GossipMessageDecoderSurvivesRandomBytes) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> junk(rng.below(200) + 1);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    try {
      const gossip::Message msg = gossip::decode_message(junk);
      (void)gossip::message_name(msg);  // decoded by luck: must be usable
    } catch (const std::exception&) {
      // rejected: fine
    }
  }
}

TEST_P(FuzzDecoders, GossipMessageDecoderSurvivesTruncations) {
  Rng rng(GetParam());
  gossip::RumorMsg msg;
  gossip::RumorPayload p;
  p.origin = 3;
  p.version = 9;
  p.address = "host:1234";
  gossip::FilterUpdate f;
  f.bits = {1, 2, 3, 4, 5, 6, 7, 8};
  f.key_count = 100;
  p.filter = std::move(f);
  msg.rumors.push_back(std::move(p));
  msg.recent_ids = {{1, 1}, {2, 2}};
  const auto bytes = gossip::encode_message(msg);

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    try {
      (void)gossip::decode_message(prefix);
    } catch (const std::exception&) {
    }
  }
}

TEST_P(FuzzDecoders, RpcDecoderSurvivesRandomBytes) {
  Rng rng(GetParam() ^ 0xabcdef);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> junk(rng.below(150) + 1);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    try {
      (void)net::decode_rpc(junk);
    } catch (const std::exception&) {
    }
  }
}

TEST_P(FuzzDecoders, FrameDecoderSurvivesRandomStreams) {
  Rng rng(GetParam() ^ 0x1234);
  net::FrameDecoder decoder;
  bool dead = false;
  for (int chunk = 0; chunk < 50 && !dead; ++chunk) {
    std::vector<std::uint8_t> junk(rng.below(64) + 1);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    decoder.feed(junk);
    try {
      while (decoder.next().has_value()) {
      }
    } catch (const std::exception&) {
      dead = true;  // stream declared corrupt — the reactor would close it
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDecoders, ::testing::Values(11, 22, 33, 44));

TEST(FuzzXml, MutatedDocumentsParseOrThrow) {
  const std::string base =
      R"(<doc title="t"><a href="x" type="text">hello &amp; goodbye</a><b>two</b></doc>)";
  Rng rng(777);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = base;
    const std::size_t edits = rng.below(4) + 1;
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t pos = rng.below(mutated.size());
      switch (rng.below(3)) {
        case 0: mutated[pos] = static_cast<char>(rng.below(96) + 32); break;
        case 1: mutated.erase(pos, 1); break;
        default: mutated.insert(pos, 1, static_cast<char>(rng.below(96) + 32));
      }
    }
    try {
      const auto root = xml::parse(mutated);
      (void)root->all_text();  // whatever parsed must be traversable
    } catch (const std::exception&) {
    }
  }
}

TEST(FuzzXml, DeeplyNestedDocumentParses) {
  std::string doc;
  constexpr int kDepth = 500;
  for (int i = 0; i < kDepth; ++i) doc += "<n>";
  doc += "x";
  for (int i = 0; i < kDepth; ++i) doc += "</n>";
  const auto root = xml::parse(doc);
  EXPECT_EQ(root->all_text(), "x");
}

// ---------------------------------------------------------------------------
// Compression on adversarial bit patterns
// ---------------------------------------------------------------------------

TEST(GolombAdversarial, AlternatingBitsRoundtrip) {
  BitVector bits(10'000);
  for (std::size_t i = 0; i < bits.size(); i += 2) bits.set(i);
  EXPECT_EQ(decompress_bits(compress_bits(bits)), bits);
}

TEST(GolombAdversarial, DenseBlocksRoundtrip) {
  BitVector bits(10'000);
  for (std::size_t i = 2000; i < 4000; ++i) bits.set(i);
  for (std::size_t i = 9000; i < 10'000; ++i) bits.set(i);
  EXPECT_EQ(decompress_bits(compress_bits(bits)), bits);
}

TEST(GolombAdversarial, AllOnesRoundtrip) {
  BitVector bits(4096);
  for (std::size_t i = 0; i < bits.size(); ++i) bits.set(i);
  const auto c = compress_bits(bits);
  EXPECT_EQ(decompress_bits(c), bits);
  // All-ones is the worst case for gap coding but must stay bounded.
  EXPECT_LT(c.byte_size(), 4096u / 4);
}

TEST(GolombAdversarial, SingleBitAtEveryPosition) {
  for (std::size_t pos : {0u, 1u, 63u, 64u, 65u, 1000u, 4095u}) {
    BitVector bits(4096);
    bits.set(pos);
    EXPECT_EQ(decompress_bits(compress_bits(bits)), bits) << pos;
  }
}

}  // namespace
}  // namespace planetp
