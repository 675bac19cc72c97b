#pragma once

#include <span>
#include <string>
#include <vector>

#include "index/data_store.hpp"

/// \file persistence.hpp
/// Durable storage for a peer's local data store. A PlanetP peer that goes
/// offline keeps its published documents; on restart it reloads them,
/// rebuilds its index epochs and Bloom filter, and rejoins the community
/// with the same content (its rejoin rumor re-advertises the filter).
///
/// Format (versioned, little-endian, ByteWriter framing):
///   magic "PPDS" | u32 format version | u32 peer id | u32 next local id |
///   varint doc count | per doc: u32 local id, length-prefixed XML source
///
/// Only the XML sources are stored; the index, filter and extracted text are
/// derived state and are rebuilt on load (publish() is the single code path
/// that constructs them, so stored and freshly published documents can never
/// disagree).

namespace planetp::index {

/// Current snapshot format version.
inline constexpr std::uint32_t kDataStoreFormatVersion = 1;

/// Current compressed-index snapshot format version. v2 added per-block and
/// per-term max_freq (norm-aware pruning bounds).
inline constexpr std::uint32_t kCompressedIndexFormatVersion = 2;

/// Serialize a read-optimized CompressedIndex — including the block skip
/// entries and score upper bounds the pruned top-k driver needs — so a
/// restarting peer can serve pruned queries without re-deriving the block
/// metadata. Canonical: terms are written in lexicographic order and all
/// offsets are relative to each term's byte run, so equal logical content
/// always serializes to equal bytes.
///
/// Format (versioned, little-endian, ByteWriter framing):
///   magic "PPCI" | u32 format version |
///   varint doc count | per doc: u32 peer, u32 local, varint doc length |
///   varint term count | per term (lex order):
///     length-prefixed term | varint doc_freq | varint collection_freq |
///     length-prefixed posting run (delta-coded varint (gap, freq) pairs) |
///     varint block count | per block:
///       varint offset, varint last_dense, varint base_dense,
///       f64 max_contrib, varint max_freq |
///     f64 term max_contrib | varint term max_freq
std::vector<std::uint8_t> serialize_compressed_index(const CompressedIndex& ci);

/// Reconstruct a CompressedIndex from serialize_compressed_index output.
/// Hostile-input hardened (the same count discipline as ByteReader::count):
/// every posting run is decoded and bounds-checked against the document
/// table, and the stored skip entries, block counts and score bounds are
/// verified against a canonical re-encode of the decoded postings — any
/// tampered offset, dense id, count or bound throws std::runtime_error
/// before a PostingCursor ever walks the data.
CompressedIndex deserialize_compressed_index(std::span<const std::uint8_t> bytes);

/// Serialize \p store into a byte buffer.
std::vector<std::uint8_t> serialize_data_store(const DataStore& store);

/// Reconstruct a data store from serialize_data_store output. Documents keep
/// their original local ids. Throws std::runtime_error on a bad snapshot.
DataStore deserialize_data_store(std::span<const std::uint8_t> bytes,
                                 bloom::BloomParams bloom_params = {},
                                 text::AnalyzerOptions analyzer_opts = {});

/// Write a snapshot to \p path (atomically: temp file + rename).
/// Returns false on I/O failure.
bool save_data_store(const DataStore& store, const std::string& path);

/// Load a snapshot from \p path. Throws std::runtime_error when the file is
/// missing or corrupt.
DataStore load_data_store(const std::string& path, bloom::BloomParams bloom_params = {},
                          text::AnalyzerOptions analyzer_opts = {});

}  // namespace planetp::index
