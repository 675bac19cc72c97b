#pragma once

#include <cstdint>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "util/byte_buffer.hpp"
#include "util/golomb.hpp"

/// \file wire.hpp
/// Wire encoding of Bloom filters and filter diffs. §7.1: filters are
/// compressed with Golomb-coded run lengths, "which outperforms gzip in our
/// specific context"; §7.2: updates are sent as diffs so the cost scales
/// with the number of new terms, not the filter size.

namespace planetp::bloom {

/// Serialize a full filter (geometry header + Golomb-compressed bits).
void encode_filter(ByteWriter& out, const BloomFilter& filter);

/// Inverse of encode_filter.
BloomFilter decode_filter(ByteReader& in);

/// Serialized byte size of a filter without materializing the message.
std::size_t encoded_filter_size(const BloomFilter& filter);

/// Serialize an XOR diff (bit-vector of changed positions, compressed).
void encode_diff(ByteWriter& out, const BitVector& diff);

/// Inverse of encode_diff.
BitVector decode_diff(ByteReader& in);

/// Serialized byte size of a diff.
std::size_t encoded_diff_size(const BitVector& diff);

/// Decode a filter from its complete encode_filter byte string.
BloomFilter decode_filter_bytes(std::span<const std::uint8_t> wire);

/// Apply an encode_diff byte string to an encode_filter byte string entirely
/// in the Golomb gap domain (positions merged with XOR semantics, result
/// re-encoded) — no 400k-bit vector is ever materialized. Byte-identical to
/// decode_filter -> BloomFilter::apply_diff -> encode_filter, which is what
/// keeps a directory record's filter bytes exactly equal to a decoded
/// oracle. Throws on geometry mismatch or corrupt streams.
std::vector<std::uint8_t> merge_diff_wire(std::span<const std::uint8_t> filter_wire,
                                          std::span<const std::uint8_t> diff_wire);

/// The sorted bit positions an encode_diff byte string flips, decoded
/// straight from the gap stream in O(changed bits) — the basis for surgical
/// candidate-cache fixes without materializing the diff as a bit vector.
/// Throws when the diff is not \p nbits wide or the stream is corrupt.
std::vector<std::uint64_t> diff_positions(std::span<const std::uint8_t> diff_wire,
                                          std::uint64_t nbits);

}  // namespace planetp::bloom
