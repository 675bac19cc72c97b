#include "index/persistence.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <unordered_map>

#include "index/compressed_postings.hpp"

namespace planetp::index {
namespace {

bloom::BloomParams small_bloom() { return bloom::BloomParams{65536, 2}; }

DataStore make_store() {
  DataStore store(7, small_bloom());
  store.publish_text("First", "gossip protocols spread rumors epidemically");
  store.publish_text("Second", "bloom filters summarize sets compactly");
  store.publish_text("Third", "consistent hashing balances load");
  return store;
}

TEST(Persistence, RoundtripPreservesDocuments) {
  const DataStore original = make_store();
  const auto bytes = serialize_data_store(original);
  const DataStore restored = deserialize_data_store(bytes, small_bloom());

  EXPECT_EQ(restored.peer_id(), original.peer_id());
  EXPECT_EQ(restored.num_documents(), 3u);
  ASSERT_EQ(restored.documents(), original.documents());
  for (const DocumentId& id : original.documents()) {
    const Document* a = original.document(id);
    const Document* b = restored.document(id);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->title, b->title);
    EXPECT_EQ(a->xml_source, b->xml_source);
  }
}

TEST(Persistence, RestoredIndexAnswersQueries) {
  const auto bytes = serialize_data_store(make_store());
  const DataStore restored = deserialize_data_store(bytes, small_bloom());
  EXPECT_EQ(restored.search_all_terms("gossip rumors").size(), 1u);
  EXPECT_EQ(restored.search_all_terms("bloom filters").size(), 1u);
  EXPECT_TRUE(restored.search_all_terms("nonexistent").empty());
}

TEST(Persistence, RestoredBloomFilterMatches) {
  const DataStore original = make_store();
  const auto bytes = serialize_data_store(original);
  const DataStore restored = deserialize_data_store(bytes, small_bloom());
  EXPECT_EQ(restored.bloom_filter(), original.bloom_filter());
}

TEST(Persistence, IdGapsAreNotReused) {
  DataStore store(1, small_bloom());
  store.publish_text("keep", "alpha");
  const DocumentId doomed = store.publish_text("drop", "beta");
  store.publish_text("keep2", "gamma");
  store.unpublish(doomed);

  const auto bytes = serialize_data_store(store);
  DataStore restored = deserialize_data_store(bytes, small_bloom());
  EXPECT_EQ(restored.num_documents(), 2u);
  // New publishes continue after the highest ever-assigned id.
  const DocumentId fresh = restored.publish_text("new", "delta");
  EXPECT_GE(fresh.local, 3u);
}

TEST(Persistence, EmptyStoreRoundtrip) {
  DataStore empty(42, small_bloom());
  const auto bytes = serialize_data_store(empty);
  const DataStore restored = deserialize_data_store(bytes, small_bloom());
  EXPECT_EQ(restored.peer_id(), 42u);
  EXPECT_EQ(restored.num_documents(), 0u);
}

TEST(Persistence, CorruptMagicRejected) {
  auto bytes = serialize_data_store(make_store());
  bytes[0] = 'X';
  EXPECT_THROW(deserialize_data_store(bytes, small_bloom()), std::runtime_error);
}

TEST(Persistence, UnsupportedVersionRejected) {
  auto bytes = serialize_data_store(make_store());
  bytes[4] = 99;  // version field
  EXPECT_THROW(deserialize_data_store(bytes, small_bloom()), std::runtime_error);
}

TEST(Persistence, TruncatedSnapshotRejected) {
  auto bytes = serialize_data_store(make_store());
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(deserialize_data_store(bytes, small_bloom()), std::exception);
}

TEST(Persistence, FileRoundtrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "planetp_store_test.ppds").string();
  const DataStore original = make_store();
  ASSERT_TRUE(save_data_store(original, path));
  const DataStore restored = load_data_store(path, small_bloom());
  EXPECT_EQ(restored.num_documents(), original.num_documents());
  EXPECT_EQ(restored.bloom_filter(), original.bloom_filter());
  std::remove(path.c_str());
}

TEST(Persistence, LoadMissingFileThrows) {
  EXPECT_THROW(load_data_store("/nonexistent/path/store.ppds", small_bloom()),
               std::runtime_error);
}

TEST(Persistence, TermIdsAreStoreLocalAndNotSerialized) {
  // TermIds must never cross the wire or disk: a snapshot round-trip that
  // interns terms in a different order has to produce a store that is
  // string-level identical even though the ids differ. Unpublishing the
  // first document shifts the restore's intern order (its terms were
  // interned first originally but are re-encountered later — or never —
  // after restore).
  DataStore store(3, small_bloom());
  const DocumentId first = store.publish_text("first", "zebra yak xylophone");
  store.publish_text("second", "apple banana cherry");
  store.unpublish(first);
  store.publish_text("third", "zebra walrus");

  const auto bytes = serialize_data_store(store);
  DataStore restored = deserialize_data_store(bytes, small_bloom());

  // String-level equality: same term set, same statistics, same postings,
  // same Bloom filter — read from each store's compacted base.
  EXPECT_EQ(restored.num_terms(), store.num_terms());
  store.compact();
  restored.compact();
  const CompressedIndex& a = *store.snapshot()->base();
  const CompressedIndex& b = *restored.snapshot()->base();
  std::vector<std::string> orig_terms, rest_terms;
  a.for_each_term([&](std::string_view t) { orig_terms.emplace_back(t); });
  b.for_each_term([&](std::string_view t) { rest_terms.emplace_back(t); });
  std::sort(orig_terms.begin(), orig_terms.end());
  std::sort(rest_terms.begin(), rest_terms.end());
  ASSERT_EQ(orig_terms, rest_terms);
  EXPECT_EQ(orig_terms.size(), store.num_terms());
  for (const std::string& t : orig_terms) {
    EXPECT_EQ(b.collection_frequency(t), a.collection_frequency(t)) << t;
    EXPECT_EQ(b.document_frequency(t), a.document_frequency(t)) << t;
    EXPECT_EQ(b.decode(t), a.decode(t)) << t;
  }
  EXPECT_EQ(restored.bloom_filter(), store.bloom_filter());

  // ...while the ids themselves genuinely differ: "zebra" was the very first
  // term interned originally, but the restore interns "second"'s terms
  // before re-encountering it. Ids are store-local bookkeeping only.
  const TermId before = store.dictionary().find("zebra");
  const TermId after = restored.dictionary().find("zebra");
  ASSERT_NE(before, kInvalidTermId);
  ASSERT_NE(after, kInvalidTermId);
  EXPECT_EQ(before, 0u);
  EXPECT_NE(before, after);
}

TEST(Persistence, PublishAsRejectsDuplicates) {
  DataStore store(1, small_bloom());
  store.publish_as(5, wrap_text_as_xml("five", "content"));
  EXPECT_THROW(store.publish_as(5, wrap_text_as_xml("again", "content")),
               std::invalid_argument);
  // And the counter advanced past the explicit id.
  const DocumentId next = store.publish_text("auto", "more");
  EXPECT_EQ(next.local, 6u);
}

// ---------------------------------------------------------------------------
// Compressed-index snapshots ("PPCI"): canonical round-trip + hostile blobs
// ---------------------------------------------------------------------------

/// A corpus big enough that the hot terms span multiple skip blocks, so the
/// round-trip actually exercises block metadata (not just the trivial
/// single-block case).
CompressedIndex blocky_compressed() {
  InvertedIndex idx;
  for (std::uint32_t d = 0; d < 700; ++d) {
    std::unordered_map<std::string, std::uint32_t> freqs;
    freqs["common"] = 1 + d % 7;
    freqs["w" + std::to_string(d % 40)] = 1 + d % 3;
    if (d % 2 == 0) freqs["even"] = 2;
    idx.add_document({d % 3, d}, freqs);
  }
  return CompressedIndex::build(idx);
}

TEST(Persistence, CompressedIndexRoundtripIsIdentical) {
  const CompressedIndex original = blocky_compressed();
  const auto bytes = serialize_compressed_index(original);
  const CompressedIndex restored = deserialize_compressed_index(bytes);

  EXPECT_EQ(restored.num_documents(), original.num_documents());
  EXPECT_EQ(restored.num_terms(), original.num_terms());
  ASSERT_EQ(restored.documents(), original.documents());

  // Serialization is canonical: re-serializing the restore must reproduce
  // the input bit for bit (this is also what the deserializer's self-check
  // relies on).
  EXPECT_EQ(serialize_compressed_index(restored), bytes);

  // And the block metadata the pruned driver depends on survived exactly.
  original.for_each_term([&](std::string_view term) {
    auto a = original.postings(term);
    auto b = restored.postings(term);
    ASSERT_EQ(b.size(), a.size()) << term;
    ASSERT_EQ(b.num_blocks(), a.num_blocks()) << term;
    ASSERT_EQ(b.collection_freq(), a.collection_freq()) << term;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(b.list_max()),
              std::bit_cast<std::uint64_t>(a.list_max()))
        << term;
    for (std::uint32_t blk = 0; blk < a.num_blocks(); ++blk) {
      EXPECT_EQ(b.block_last(blk), a.block_last(blk)) << term << " block " << blk;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(b.block_max(blk)),
                std::bit_cast<std::uint64_t>(a.block_max(blk)))
          << term << " block " << blk;
    }
    for (; !a.done(); a.next(), b.next()) {
      ASSERT_FALSE(b.done()) << term;
      EXPECT_EQ(b.doc(), a.doc()) << term;
      EXPECT_EQ(b.term_freq(), a.term_freq()) << term;
    }
    EXPECT_TRUE(b.done()) << term;
  });
}

TEST(Persistence, CompressedIndexEmptyRoundtrip) {
  const CompressedIndex empty = CompressedIndex::build(InvertedIndex{});
  const auto bytes = serialize_compressed_index(empty);
  const CompressedIndex restored = deserialize_compressed_index(bytes);
  EXPECT_EQ(restored.num_documents(), 0u);
  EXPECT_EQ(restored.num_terms(), 0u);
}

TEST(Persistence, CompressedIndexCorruptBlobsRejected) {
  const auto bytes = serialize_compressed_index(blocky_compressed());

  {  // bad magic
    auto b = bytes;
    b[0] = 'Q';
    EXPECT_THROW(deserialize_compressed_index(b), std::runtime_error);
  }
  {  // unsupported version
    auto b = bytes;
    b[4] = 0x7f;
    EXPECT_THROW(deserialize_compressed_index(b), std::runtime_error);
  }
  {  // truncation at every prefix length must throw, never crash or accept
    for (std::size_t len : {std::size_t{0}, std::size_t{3}, std::size_t{8}, bytes.size() / 4,
                            bytes.size() / 2, bytes.size() - 1}) {
      auto b = bytes;
      b.resize(len);
      EXPECT_THROW(deserialize_compressed_index(b), std::runtime_error) << "len " << len;
    }
  }
  {  // hostile count: claim ~2^60 documents in a tiny buffer
    auto b = bytes;
    // doc count varint starts right after magic + version (offset 8).
    // 10-byte hostile varint would shift everything; instead set the
    // first count byte to a large single-byte value inconsistent with the
    // remaining bytes only if the real count is single-byte — safer and
    // simpler: flip the continuation bit pattern to 0xff 0xff ... by
    // rewriting the prefix.
    std::vector<std::uint8_t> hostile(b.begin(), b.begin() + 8);
    for (int i = 0; i < 9; ++i) hostile.push_back(0xff);  // huge varint
    hostile.push_back(0x0f);
    EXPECT_THROW(deserialize_compressed_index(hostile), std::runtime_error);
  }
  {  // trailing garbage
    auto b = bytes;
    b.push_back(0x00);
    EXPECT_THROW(deserialize_compressed_index(b), std::runtime_error);
  }
}

TEST(Persistence, CompressedIndexTamperedBytesNeverAccepted) {
  // Flip bits across the whole blob — skip offsets, dense ids, score
  // bounds, counts. Every single-byte tamper must either throw or (for
  // bytes the canonical re-encode proves untouched, e.g. none here beyond
  // the magic tail) produce an index identical to the original. Accepting
  // corrupted block metadata is the one forbidden outcome.
  const CompressedIndex original = blocky_compressed();
  const auto bytes = serialize_compressed_index(original);
  const auto reference = serialize_compressed_index(original);

  std::size_t rejected = 0;
  for (std::size_t i = 0; i < bytes.size(); i += 13) {  // stride keeps runtime sane
    auto b = bytes;
    b[i] ^= 0x55;
    try {
      const CompressedIndex restored = deserialize_compressed_index(b);
      // Extremely rare legit case: the tamper produced a different but
      // well-formed canonical blob. Then it must round-trip to ITSELF (the
      // self-check guarantees this) — never silently to the original's
      // logical content with broken metadata.
      EXPECT_EQ(serialize_compressed_index(restored), b) << "offset " << i;
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(reference, bytes);  // serialization itself is deterministic
}

}  // namespace
}  // namespace planetp::index
