#include "index/data_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace planetp::index {
namespace {

/// Whether any live document of the store's current snapshot holds \p term
/// (an analyzed term).
bool has_term(const DataStore& store, std::string_view term) {
  return store.snapshot()->collection_frequency(term) > 0;
}

TEST(DataStore, PublishIndexesText) {
  DataStore store(1);
  const DocumentId id = store.publish_text("Doc One", "gossip protocols spread rumors");
  EXPECT_EQ(id.peer, 1u);
  EXPECT_EQ(store.num_documents(), 1u);

  const Document* doc = store.document(id);
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->title, "Doc One");

  // Terms are analyzed (stemmed): "protocols" -> "protocol".
  EXPECT_TRUE(has_term(store, "gossip"));
  EXPECT_TRUE(has_term(store, "protocol"));
  EXPECT_FALSE(has_term(store, "the"));
  EXPECT_EQ(store.num_terms(), 4u);  // gossip, protocol, spread, rumor
}

TEST(DataStore, BloomFilterCoversTerms) {
  DataStore store(1);
  store.publish_text("t", "epidemic algorithms for replicated databases");
  const auto filter = store.bloom_filter();
  EXPECT_TRUE(filter.contains("epidem"));  // stem of "epidemic"
  EXPECT_TRUE(filter.contains("algorithm"));
  EXPECT_FALSE(filter.contains("unrelated_term_xyz"));
}

TEST(DataStore, SearchAllTermsIsConjunctive) {
  DataStore store(1);
  const auto d1 = store.publish_text("a", "distributed gossip search");
  const auto d2 = store.publish_text("b", "distributed hash tables");
  store.publish_text("c", "centralized search engines");

  const auto both = store.search_all_terms("distributed search");
  ASSERT_EQ(both.size(), 1u);
  EXPECT_EQ(both[0], d1);

  const auto one = store.search_all_terms("distributed");
  EXPECT_EQ(one.size(), 2u);
  EXPECT_NE(std::find(one.begin(), one.end(), d2), one.end());

  EXPECT_TRUE(store.search_all_terms("distributed nonexistent").empty());
  EXPECT_TRUE(store.search_all_terms("").empty());
}

TEST(DataStore, UnpublishRemovesEverywhere) {
  DataStore store(1);
  const auto id = store.publish_text("doomed", "unique zanzibar marker");
  EXPECT_TRUE(has_term(store, "zanzibar"));
  EXPECT_TRUE(store.bloom_filter().contains("zanzibar"));
  EXPECT_EQ(store.num_terms(), 3u);

  EXPECT_TRUE(store.unpublish(id));
  EXPECT_FALSE(store.unpublish(id));
  EXPECT_EQ(store.document(id), nullptr);
  EXPECT_FALSE(has_term(store, "zanzibar"));
  EXPECT_FALSE(store.bloom_filter().contains("zanzibar"));
  EXPECT_EQ(store.num_terms(), 0u);
}

TEST(DataStore, SharedTermsSurviveUnpublish) {
  DataStore store(1);
  const auto d1 = store.publish_text("a", "shared quokka term");
  store.publish_text("b", "shared quokka elsewhere");
  store.unpublish(d1);
  EXPECT_TRUE(store.bloom_filter().contains("quokka"));
  EXPECT_TRUE(has_term(store, "quokka"));
  EXPECT_EQ(store.num_terms(), 3u);  // shared, quokka, elsewher
}

TEST(DataStore, FilterVersionIncrements) {
  DataStore store(1);
  const auto v0 = store.filter_version();
  const auto id = store.publish_text("x", "content");
  EXPECT_GT(store.filter_version(), v0);
  const auto v1 = store.filter_version();
  store.unpublish(id);
  EXPECT_GT(store.filter_version(), v1);
}

TEST(DataStore, PublishRawXmlWithLinks) {
  DataStore store(2);
  const auto id = store.publish(
      R"(<document title="Linked"><link href="notes.txt" type="text">searchable note body</link></document>)");
  const Document* doc = store.document(id);
  ASSERT_NE(doc, nullptr);
  ASSERT_EQ(doc->links.size(), 1u);
  // Linked text content is indexed.
  EXPECT_FALSE(store.search_all_terms("searchable note").empty());
}

TEST(DataStore, MalformedXmlRejected) {
  DataStore store(1);
  EXPECT_THROW(store.publish("<broken"), std::runtime_error);
  EXPECT_EQ(store.num_documents(), 0u);
}

TEST(DataStore, LocalIdsIncrease) {
  DataStore store(9);
  const auto a = store.publish_text("a", "one");
  const auto b = store.publish_text("b", "two");
  EXPECT_EQ(a.peer, 9u);
  EXPECT_LT(a.local, b.local);
}

TEST(DataStore, DocumentsListing) {
  DataStore store(1);
  store.publish_text("a", "alpha");
  store.publish_text("b", "beta");
  EXPECT_EQ(store.documents().size(), 2u);
}


TEST(DataStore, RepublishReplacesContent) {
  DataStore store(1);
  const auto id = store.publish_text("v1", "original ocelot content");
  ASSERT_TRUE(store.republish(id, wrap_text_as_xml("v2", "updated lynx content")));

  EXPECT_TRUE(store.search_all_terms("original ocelot").empty());
  ASSERT_EQ(store.search_all_terms("updated lynx").size(), 1u);
  EXPECT_EQ(store.document(id)->title, "v2");
  EXPECT_FALSE(store.bloom_filter().contains("ocelot"));
  EXPECT_TRUE(store.bloom_filter().contains("lynx"));
  EXPECT_EQ(store.num_documents(), 1u);
}

TEST(DataStore, RepublishUnknownIdFails) {
  DataStore store(1);
  EXPECT_FALSE(store.republish(DocumentId{1, 99}, wrap_text_as_xml("x", "y")));
}

TEST(DataStore, RepublishMalformedXmlLeavesOldVersion) {
  DataStore store(1);
  const auto id = store.publish_text("keep", "surviving capybara content");
  EXPECT_THROW(store.republish(id, "<broken"), std::runtime_error);
  EXPECT_EQ(store.search_all_terms("surviving capybara").size(), 1u);
  EXPECT_EQ(store.document(id)->title, "keep");
}

// ---------------------------------------------------------------------------
// Seeded property: the store's term census, conjunctive search and filter
// stay exact against brute force over the live documents after every
// publish, unpublish and republish — across fresh segments, merged bases
// and pending tombstones.
// ---------------------------------------------------------------------------

std::string random_body(std::mt19937_64& rng) {
  // Small vocabulary so documents share terms and removals leave some terms
  // alive and kill others.
  static const char* const kWords[] = {"gossip", "bloom",  "filter", "peer",   "index",
                                       "query",  "rank",   "epoch",  "merge",  "planet",
                                       "search", "rumor",  "digest", "lynx",   "ocelot",
                                       "quokka", "walrus", "zebra",  "the",    "and"};
  constexpr std::size_t kCount = sizeof(kWords) / sizeof(kWords[0]);
  std::string body;
  const std::size_t words = 1 + rng() % 8;
  for (std::size_t w = 0; w < words; ++w) {
    if (w != 0) body += ' ';
    body += kWords[rng() % kCount];
  }
  return body;
}

void expect_store_matches_brute_force(const DataStore& store,
                                      const std::map<DocumentId, std::string>& live,
                                      bloom::BloomParams params, std::mt19937_64& rng) {
  std::vector<DocumentId> ids;
  for (const auto& [id, body] : live) ids.push_back(id);
  ASSERT_EQ(store.documents(), ids);

  std::map<DocumentId, std::set<std::string>> doc_terms;
  std::set<std::string> all_terms;
  for (const auto& [id, body] : live) {
    ASSERT_NE(store.document(id), nullptr);
    for (std::string& t : store.analyzer().analyze(body)) {
      all_terms.insert(t);
      doc_terms[id].insert(std::move(t));
    }
  }
  EXPECT_EQ(store.num_terms(), all_terms.size());

  bloom::BloomFilter expected_filter(params);
  for (const std::string& t : all_terms) expected_filter.insert(t);
  EXPECT_EQ(store.bloom_filter(), expected_filter);

  for (int q = 0; q < 4; ++q) {
    const std::string query = random_body(rng);
    const std::vector<std::string> qterms = store.analyzer().analyze(query);
    std::vector<DocumentId> expected;
    if (!qterms.empty()) {
      for (const auto& [id, terms] : doc_terms) {
        if (std::all_of(qterms.begin(), qterms.end(),
                        [&terms](const std::string& t) { return terms.contains(t); })) {
          expected.push_back(id);
        }
      }
    }
    EXPECT_EQ(store.search_all_terms(query), expected) << "query: " << query;
  }
}

TEST(DataStore, SeededOpStreamKeepsTermsSearchAndFilterExact) {
  // Inline merges with tiny thresholds, so operations land on fresh
  // segments, coalesced tiers, merged bases and pending tombstones.
  EpochConfig cfg;
  cfg.background_merge = false;
  cfg.coalesce_fanin = 3;
  cfg.merge_min_docs = 8;
  cfg.merge_base_fraction = 0.5;
  cfg.merge_tombstone_threshold = 4;
  const bloom::BloomParams params{8192, 2};
  DataStore store(5, params, {}, cfg);

  std::mt19937_64 rng(0xDA7A5707EULL);
  std::map<DocumentId, std::string> live;
  std::size_t saw_base = 0, saw_segments = 0, saw_tombstones = 0;
  for (int step = 0; step < 300; ++step) {
    const std::uint64_t op = rng() % 10;
    if (op < 5 || live.empty()) {
      const std::string body = random_body(rng);
      live[store.publish_text("d", body)] = body;
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng() % live.size()));
      if (op < 8) {
        ASSERT_TRUE(store.unpublish(it->first));
        live.erase(it);
      } else {
        const std::string body = random_body(rng);
        ASSERT_TRUE(store.republish(it->first, wrap_text_as_xml("r", body)));
        it->second = body;
      }
    }
    expect_store_matches_brute_force(store, live, params, rng);

    const auto snap = store.snapshot();
    if (snap->base() != nullptr) ++saw_base;
    if (snap->segment_count() > 0) ++saw_segments;
    if (snap->tombstone_count() > 0) ++saw_tombstones;
  }
  EXPECT_GT(saw_base, 0u);
  EXPECT_GT(saw_segments, 0u);
  EXPECT_GT(saw_tombstones, 0u);
  const EpochStats stats = store.epochs().stats();
  EXPECT_GT(stats.coalesces, 0u);
  EXPECT_GT(stats.merges_completed, 0u);
  EXPECT_GT(stats.tombstones_merged, 0u);
}

}  // namespace
}  // namespace planetp::index
