#include "bloom/wire.hpp"

#include <stdexcept>

namespace planetp::bloom {

namespace {

void encode_bits(ByteWriter& out, const BitVector& bits) {
  const CompressedBits c = compress_bits(bits);
  out.varint(c.nbits);
  out.varint(c.set_bits);
  out.varint(c.m);
  out.bytes(c.payload);
}

BitVector decode_bits(ByteReader& in) {
  CompressedBits c;
  c.nbits = in.varint();
  c.set_bits = in.varint();
  c.m = in.varint();
  c.payload = in.bytes();
  return decompress_bits(c);
}

std::size_t encoded_bits_size(const BitVector& bits) {
  const CompressedBits c = compress_bits(bits);
  ByteWriter probe;
  probe.varint(c.nbits);
  probe.varint(c.set_bits);
  probe.varint(c.m);
  probe.varint(c.payload.size());
  return probe.size() + c.payload.size();
}

/// Read the compressed header + payload without decoding the gap stream.
CompressedBits read_compressed(ByteReader& in) {
  CompressedBits c;
  c.nbits = in.varint();
  c.set_bits = in.varint();
  c.m = in.varint();
  c.payload = in.bytes();
  return c;
}

}  // namespace

void encode_filter(ByteWriter& out, const BloomFilter& filter) {
  out.varint(filter.num_hashes());
  encode_bits(out, filter.bits());
}

BloomFilter decode_filter(ByteReader& in) {
  BloomParams params;
  params.num_hashes = static_cast<std::uint32_t>(in.varint());
  BitVector bits = decode_bits(in);
  params.bits = bits.size();
  BloomFilter filter(params);
  filter.mutable_bits() = std::move(bits);
  return filter;
}

std::size_t encoded_filter_size(const BloomFilter& filter) {
  return 1 + encoded_bits_size(filter.bits());
}

void encode_diff(ByteWriter& out, const BitVector& diff) { encode_bits(out, diff); }

BitVector decode_diff(ByteReader& in) { return decode_bits(in); }

std::size_t encoded_diff_size(const BitVector& diff) { return encoded_bits_size(diff); }

BloomFilter decode_filter_bytes(std::span<const std::uint8_t> wire) {
  ByteReader reader(wire);
  return decode_filter(reader);
}

std::vector<std::uint8_t> merge_diff_wire(std::span<const std::uint8_t> filter_wire,
                                          std::span<const std::uint8_t> diff_wire) {
  ByteReader filter_in(filter_wire);
  const std::uint64_t num_hashes = filter_in.varint();
  const CompressedBits base = read_compressed(filter_in);
  ByteReader diff_in(diff_wire);
  const CompressedBits diff = read_compressed(diff_in);
  if (base.nbits != diff.nbits)
    throw std::invalid_argument("merge_diff_wire: filter/diff size mismatch");

  const CompressedBits merged = xor_merge(base, diff);
  ByteWriter out;
  out.varint(num_hashes);
  out.varint(merged.nbits);
  out.varint(merged.set_bits);
  out.varint(merged.m);
  out.bytes(merged.payload);
  return out.take();
}

std::vector<std::uint64_t> diff_positions(std::span<const std::uint8_t> diff_wire,
                                          std::uint64_t nbits) {
  ByteReader in(diff_wire);
  const CompressedBits diff = read_compressed(in);
  if (diff.nbits != nbits) throw std::invalid_argument("diff_positions: size mismatch");
  return golomb_positions(diff);
}

}  // namespace planetp::bloom
