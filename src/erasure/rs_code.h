// Systematic (k, n) Reed-Solomon erasure code.
//
// EC-Cache (Section 3.2) splits a file into k data partitions and derives
// n - k parity partitions such that any k of the n reconstruct the file.
// We implement the systematic Cauchy construction: the n x k generator is
// [I_k ; C] with C a Cauchy matrix, so data shards are stored verbatim and
// any k rows of the generator are invertible (MDS property).
//
// Shard layout: a file of `size` bytes is zero-padded to a multiple of k
// and split row-wise into k equal data shards. decode() strips the padding
// back off using the original size recorded by the caller.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/units.h"
#include "erasure/matrix.h"

namespace spcache {

struct Shard {
  std::size_t index = 0;  // 0..n-1; < k means a data shard
  std::vector<std::uint8_t> bytes;
};

// Non-owning shard reference for the span-based decode path: lets callers
// decode straight out of cached blocks without copying shard bytes first.
struct ShardView {
  std::size_t index = 0;
  std::span<const std::uint8_t> bytes;
};

// Reusable decode workspace. All members are resized in place, so a warmed
// scratch makes repeated decodes of same-shaped files allocation-free.
struct RsScratch {
  GfMatrix sub, inv, work;
  std::vector<std::size_t> rows;            // generator rows of the chosen shards
  std::vector<std::size_t> lost;            // live data rows to rebuild
  std::vector<const ShardView*> chosen;
  std::vector<const std::uint8_t*> have;    // chosen data shard per live row, or null
  std::vector<std::uint8_t> seen;
  std::vector<std::uint32_t> row_crc;       // running CRC state per live row
};

class ReedSolomon {
 public:
  // Requires 1 <= k <= n <= 256.
  ReedSolomon(std::size_t k, std::size_t n);

  std::size_t data_shards() const { return k_; }
  std::size_t total_shards() const { return n_; }
  std::size_t parity_shards() const { return n_ - k_; }

  // Memory overhead of the code, (n - k) / k (Section 3.2).
  double memory_overhead() const {
    return static_cast<double>(n_ - k_) / static_cast<double>(k_);
  }

  // Shard byte length for a file of `size` bytes: ceil(size / k).
  std::size_t shard_size(std::size_t size) const { return (size + k_ - 1) / k_; }

  // Encode a file into n shards (first k are the zero-padded data).
  std::vector<Shard> encode(std::span<const std::uint8_t> data) const;

  // Span-based encode: writes all n shards into caller-provided buffers
  // (each exactly shard_size(data.size()) bytes; arena- or pool-backed on
  // the hot path). Buffers need no zero-initialization — every byte is
  // written exactly once, including the zero padding of the data tail.
  void encode_into(std::span<const std::uint8_t> data,
                   std::span<const std::span<std::uint8_t>> shards) const;

  // Compute only the parity shards for pre-split data shards (all the same
  // length). Used by the cluster write path, which splits first.
  std::vector<Shard> encode_parity(
      const std::vector<std::span<const std::uint8_t>>& data) const;

  // Span-based parity: writes the n-k parity shards into caller-provided
  // buffers of the data-shard length (no zero-init required).
  void encode_parity_into(std::span<const std::span<const std::uint8_t>> data,
                          std::span<const std::span<std::uint8_t>> parity) const;

  // Reconstruct the original file from any >= k distinct shards.
  // `original_size` removes the padding. Throws std::invalid_argument on
  // fewer than k shards, duplicate/out-of-range indices, or mismatched
  // shard lengths.
  std::vector<std::uint8_t> decode(const std::vector<Shard>& shards,
                                   std::size_t original_size) const;

  // Span-based decode: reconstructs into `out` (exactly original_size
  // bytes) from non-owning shard views, reusing `scratch` for the inverted
  // submatrix and bookkeeping, and returns crc32(out) without rescanning
  // it. A chosen data shard's live prefix is copied through crc32_copy;
  // only the data rows with no chosen shard are computed, and rows wholly
  // in the stripped padding are skipped. Same validation/throws as decode().
  std::uint32_t decode_into(std::span<const ShardView> shards, std::size_t original_size,
                            std::span<std::uint8_t> out, RsScratch& scratch) const;

  const GfMatrix& generator() const { return generator_; }

 private:
  std::size_t k_, n_;
  GfMatrix generator_;  // n x k: [I ; Cauchy]
};

// Plain splitting used by SP-Cache and fixed-size chunking: divide `data`
// into `k` near-equal contiguous pieces (no padding; the last piece may be
// shorter). Reassembly is concatenation.
std::vector<std::vector<std::uint8_t>> split_plain(std::span<const std::uint8_t> data,
                                                   std::size_t k);

// Split into contiguous pieces of the exact given sizes (must sum to
// data.size(); throws std::invalid_argument otherwise). Used by the
// heterogeneous extension, whose piece sizes follow server bandwidths.
std::vector<std::vector<std::uint8_t>> split_sized(std::span<const std::uint8_t> data,
                                                   const std::vector<Bytes>& sizes);

std::vector<std::uint8_t> join_plain(const std::vector<std::vector<std::uint8_t>>& pieces);

// View-based splitting for the zero-copy write path: pieces are contiguous
// slices *into* `data` (no bytes move). `out` must hold k (resp.
// sizes.size()) entries. split_sized_views throws if sizes don't sum to
// data.size(), mirroring split_sized.
void split_plain_views(std::span<const std::uint8_t> data, std::size_t k,
                       std::span<std::span<const std::uint8_t>> out);
void split_sized_views(std::span<const std::uint8_t> data,
                       std::span<const Bytes> sizes,
                       std::span<std::span<const std::uint8_t>> out);

// Concatenate pieces into a caller-provided buffer (piece sizes must sum to
// out.size(); throws std::invalid_argument otherwise).
void join_into(std::span<const std::span<const std::uint8_t>> pieces,
               std::span<std::uint8_t> out);

}  // namespace spcache
