// Differential tests across the two runtimes: one script of publishes and
// queries on an in-process core::Community and on a loopback
// net::LiveCluster must give the same answers. Both drive the same
// core::Peer, so ranked hits must agree document for document with
// bit-identical scores, and exhaustive hit sets must be equal.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/community.hpp"
#include "corpus/placement.hpp"
#include "corpus/synthetic.hpp"
#include "index/xml.hpp"
#include "net/cluster.hpp"

namespace planetp {
namespace {

std::string doc_xml(const corpus::SynthDoc& doc) {
  std::string body;
  for (const auto& [term, freq] : doc.terms) {
    const std::string word = corpus::SynthCollection::term_string(term);
    for (std::uint32_t f = 0; f < freq; ++f) {
      body += word;
      body += ' ';
    }
  }
  return index::wrap_text_as_xml("d" + std::to_string(doc.id), body);
}

std::string terms_text(const std::vector<corpus::TermId>& terms, std::size_t limit) {
  std::string text;
  for (std::size_t i = 0; i < terms.size() && i < limit; ++i) {
    if (!text.empty()) text += ' ';
    text += corpus::SynthCollection::term_string(terms[i]);
  }
  return text;
}

/// preset_tiny's documents placed (Weibull) on the first \p holders of
/// holders + \p empty_peers peers in both runtimes; every peer then runs
/// every query ranked at k in {1, 5, 20}, and exhaustively on the query's
/// first two terms. In-process peer i is live peer i + 1.
void expect_runtimes_agree(std::size_t holders, std::size_t empty_peers) {
  const corpus::SynthCollection collection = corpus::generate(corpus::preset_tiny());
  const std::vector<std::uint32_t> owners =
      corpus::place_documents(collection.docs.size(), holders, corpus::PlacementOptions{});
  const std::size_t peers = holders + empty_peers;

  core::NodeConfig node_cfg;
  node_cfg.bloom.bits = 65536;
  node_cfg.publish_to_brokers = false;
  core::Community community(node_cfg);
  for (std::size_t i = 0; i < peers; ++i) community.create_node();

  net::LiveNodeConfig live_cfg;
  live_cfg.bloom.bits = 65536;
  net::LiveCluster cluster(peers, live_cfg);

  for (std::size_t d = 0; d < collection.docs.size(); ++d) {
    const std::string xml = doc_xml(collection.docs[d]);
    const index::DocumentId in_process = community.node(owners[d]).publish(xml);
    const index::DocumentId live = cluster.node(owners[d]).publish(xml);
    ASSERT_EQ(in_process.peer + 1, live.peer);
    ASSERT_EQ(in_process.local, live.local);
  }
  cluster.start();

  std::size_t compared = 0;
  std::size_t exhaustive_hits = 0;
  for (const corpus::SynthQuery& query : collection.queries) {
    const std::string text = terms_text(query.terms, query.terms.size());
    for (std::size_t s = 0; s < peers; ++s) {
      for (const std::size_t k : {1u, 5u, 20u}) {
        const auto expected =
            community.node(static_cast<gossip::PeerId>(s)).ranked_search(text, k);
        const auto got = cluster.node(s).ranked_search(text, k);
        ASSERT_EQ(expected.size(), got.size()) << "query " << query.id << " searcher " << s
                                               << " k " << k;
        for (std::size_t i = 0; i < got.size(); ++i) {
          SCOPED_TRACE("query " + std::to_string(query.id) + " searcher " +
                       std::to_string(s) + " k " + std::to_string(k) + " rank " +
                       std::to_string(i));
          EXPECT_EQ(expected[i].doc.peer + 1, got[i].peer);
          EXPECT_EQ(expected[i].doc.local, got[i].local);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(expected[i].score),
                    std::bit_cast<std::uint64_t>(got[i].score));
          EXPECT_EQ(expected[i].title, got[i].title);
        }
        compared += got.size();
      }

      const std::string pair = terms_text(query.terms, 2);
      const core::ExhaustiveResult exhaustive =
          community.node(static_cast<gossip::PeerId>(s)).exhaustive_search(pair);
      EXPECT_TRUE(exhaustive.offline_candidates.empty());
      std::set<std::pair<std::uint32_t, std::uint32_t>> expected_set;
      for (const core::SearchHit& hit : exhaustive.hits) {
        expected_set.emplace(hit.doc.peer + 1, hit.doc.local);
      }
      std::set<std::pair<std::uint32_t, std::uint32_t>> got_set;
      for (const net::LiveHit& hit : cluster.node(s).exhaustive_search(pair)) {
        got_set.emplace(hit.peer, hit.local);
      }
      EXPECT_EQ(expected_set, got_set) << "query " << query.id << " searcher " << s;
      exhaustive_hits += got_set.size();
    }
  }
  // The script really searches: most ranked runs fill their k, and the
  // exhaustive conjunctions match documents.
  EXPECT_GT(compared, collection.queries.size() * peers * (1 + 5 + 20) / 2);
  EXPECT_GT(exhaustive_hits, 0u);
  cluster.stop();
}

TEST(Runtimes, SearchAgreesWhenEveryPeerHoldsDocuments) { expect_runtimes_agree(6, 0); }

// A member with no documents still carries its (empty) encoded filter in
// both runtimes, so it counts in IPF's N = log(1 + N/N_t) on either side.
TEST(Runtimes, SearchAgreesWithADocumentlessPeer) { expect_runtimes_agree(6, 1); }

}  // namespace
}  // namespace planetp
