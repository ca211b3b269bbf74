#include "erasure/rs_code.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "common/crc32.h"
#include "simd/simd.h"

namespace spcache {

namespace {

// Cache-blocked parity accumulation. The naive loop ("for each parity row,
// stream every source shard") re-reads each multi-MB source from DRAM once
// per parity row and round-trips each parity shard k times, so encode is
// memory-bound long before the GF kernels saturate. Blocking the shard
// length into cache-sized chunks keeps the chunk of every shard — k
// sources plus n-k parities — resident across the whole accumulation:
// every data byte is read from memory once and every parity byte written
// back once per encode. 32 KiB keeps the working set L2-resident for
// typical (k, n) and measured fastest on the smoke gate's RS(8,11). The
// decoder blocks its rebuilt rows the same way.
constexpr std::size_t kParityBlock = 32 * 1024;

// Compute this chunk of every parity shard from sources [0, k); parity
// buffers may be uninitialized. With GFNI each parity row is one dot
// product summed in registers, so the chunk is written once and never read.
// The PSHUFB tiers measured faster accumulating in place instead: source 0
// overwrites, the rest go pairwise through the fused two-source kernel, so
// each (L1-resident) parity chunk is read-modify-written ceil((k-1)/2) times.
template <typename SrcAt>
void parity_chunk(const simd::Kernels& kr, const GfMatrix& gen, std::size_t k,
                  std::size_t m, std::size_t off, std::size_t chunk,
                  std::span<const std::span<std::uint8_t>> parity, SrcAt src_at) {
  if (kr.level == simd::Level::kAvx512) {
    std::array<const std::uint8_t*, 256> srcs;
    for (std::size_t j = 0; j < k; ++j) srcs[j] = src_at(j) + off;
    for (std::size_t p = 0; p < m; ++p) {
      kr.gf256_dot(parity[p].data() + off, srcs.data(), gen.row(k + p), k, chunk);
    }
    return;
  }
  for (std::size_t p = 0; p < m; ++p) {
    std::uint8_t* dst = parity[p].data() + off;
    kr.gf256_mul(dst, src_at(0) + off, chunk, gen.at(k + p, 0));
    std::size_t j = 1;
    for (; j + 2 <= k; j += 2) {
      kr.gf256_mul_add2(dst, src_at(j) + off, gen.at(k + p, j), src_at(j + 1) + off,
                        gen.at(k + p, j + 1), chunk);
    }
    if (j < k) kr.gf256_mul_add(dst, src_at(j) + off, chunk, gen.at(k + p, j));
  }
}

template <typename SrcAt>
void blocked_parity(const GfMatrix& gen, std::size_t k, std::size_t len,
                    std::span<const std::span<std::uint8_t>> parity, SrcAt src_at) {
  const auto& kr = simd::kernels();
  const std::size_t m = parity.size();
  for (std::size_t off = 0; off < len; off += kParityBlock) {
    const std::size_t chunk = std::min(kParityBlock, len - off);
    parity_chunk(kr, gen, k, m, off, chunk, parity, src_at);
  }
}

}  // namespace

ReedSolomon::ReedSolomon(std::size_t k, std::size_t n) : k_(k), n_(n), generator_(n, k) {
  if (k < 1 || n < k || n > 256) {
    throw std::invalid_argument("ReedSolomon: require 1 <= k <= n <= 256");
  }
  const GfMatrix parity = GfMatrix::cauchy(n - k, k);
  for (std::size_t i = 0; i < k; ++i) generator_.at(i, i) = 1;
  for (std::size_t i = 0; i < n - k; ++i) {
    for (std::size_t j = 0; j < k; ++j) generator_.at(k + i, j) = parity.at(i, j);
  }
}

void ReedSolomon::encode_into(std::span<const std::uint8_t> data,
                              std::span<const std::span<std::uint8_t>> shards) const {
  if (shards.size() != n_) throw std::invalid_argument("encode_into: need exactly n shard buffers");
  const std::size_t len = shard_size(data.size());
  for (const auto& s : shards) {
    if (s.size() != len) throw std::invalid_argument("encode_into: shard buffer length mismatch");
  }
  // Fused copy + parity, blocked on the shard length: each chunk of a data
  // shard is copied from the source file (tail zero-padded) and — while
  // still cache-hot — accumulated into every parity chunk. One DRAM read
  // per data byte, one write per shard byte, for the whole encode.
  const auto& kr = simd::kernels();
  const std::size_t m = n_ - k_;
  const auto parity = shards.subspan(k_);
  for (std::size_t off = 0; off < len; off += kParityBlock) {
    const std::size_t chunk = std::min(kParityBlock, len - off);
    for (std::size_t j = 0; j < k_; ++j) {
      const std::size_t offset = j * len + off;
      const std::size_t count =
          offset < data.size() ? std::min(chunk, data.size() - offset) : 0;
      if (count > 0) std::memcpy(shards[j].data() + off, data.data() + offset, count);
      if (count < chunk) std::memset(shards[j].data() + off + count, 0, chunk - count);
    }
    if (m > 0) {
      parity_chunk(kr, generator_, k_, m, off, chunk, parity,
                   [&](std::size_t j) { return shards[j].data(); });
    }
  }
}

std::vector<Shard> ReedSolomon::encode(std::span<const std::uint8_t> data) const {
  const std::size_t len = shard_size(data.size());
  std::vector<Shard> shards(n_);
  std::vector<std::span<std::uint8_t>> views(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    shards[i].index = i;
    shards[i].bytes.resize(len);
    views[i] = shards[i].bytes;
  }
  encode_into(data, views);
  return shards;
}

void ReedSolomon::encode_parity_into(
    std::span<const std::span<const std::uint8_t>> data,
    std::span<const std::span<std::uint8_t>> parity) const {
  if (data.size() != k_) throw std::invalid_argument("encode_parity: need exactly k data shards");
  if (parity.size() != n_ - k_) {
    throw std::invalid_argument("encode_parity: need exactly n-k parity buffers");
  }
  const std::size_t len = data.front().size();
  for (const auto& d : data) {
    if (d.size() != len) throw std::invalid_argument("encode_parity: shard length mismatch");
  }
  for (const auto& p : parity) {
    if (p.size() != len) throw std::invalid_argument("encode_parity: parity length mismatch");
  }
  blocked_parity(generator_, k_, len, parity,
                 [&](std::size_t j) { return data[j].data(); });
}

std::vector<Shard> ReedSolomon::encode_parity(
    const std::vector<std::span<const std::uint8_t>>& data) const {
  if (data.size() != k_) throw std::invalid_argument("encode_parity: need exactly k data shards");
  const std::size_t len = data.front().size();
  std::vector<Shard> parity(n_ - k_);
  std::vector<std::span<std::uint8_t>> views(n_ - k_);
  for (std::size_t p = 0; p < n_ - k_; ++p) {
    parity[p].index = k_ + p;
    parity[p].bytes.resize(len);
    views[p] = parity[p].bytes;
  }
  encode_parity_into(std::span<const std::span<const std::uint8_t>>(data), views);
  return parity;
}

std::uint32_t ReedSolomon::decode_into(std::span<const ShardView> shards,
                                       std::size_t original_size,
                                       std::span<std::uint8_t> out,
                                       RsScratch& scratch) const {
  if (out.size() != original_size) {
    throw std::invalid_argument("decode_into: output span must be original_size bytes");
  }
  if (shards.size() < k_) throw std::invalid_argument("decode: need at least k shards");
  const std::size_t len = shard_size(original_size);

  // Validate every supplied shard before touching any of them.
  scratch.seen.assign(n_, 0);
  for (const auto& s : shards) {
    if (s.index >= n_) throw std::invalid_argument("decode: shard index out of range");
    if (s.bytes.size() != len) throw std::invalid_argument("decode: shard length mismatch");
    if (scratch.seen[s.index]) throw std::invalid_argument("decode: duplicate shard index");
    scratch.seen[s.index] = 1;
  }

  // Pick the first k shards, preferring data shards (cheap path).
  auto& chosen = scratch.chosen;
  chosen.clear();
  for (const auto& s : shards) {
    if (chosen.size() == k_) break;
    if (s.index < k_) chosen.push_back(&s);
  }
  for (const auto& s : shards) {
    if (chosen.size() == k_) break;
    if (s.index >= k_) chosen.push_back(&s);
  }
  if (chosen.size() < k_) throw std::invalid_argument("decode: need k distinct shards");

  // Output row j is data shard j's live prefix. Rows wholly inside the
  // stripped padding are skipped; the last live row may be truncated.
  // A row whose data shard was chosen is copied; only the others (`lost`)
  // are rebuilt, from the inverse of the chosen rows of the generator.
  const std::size_t live_rows = len == 0 ? 0 : (original_size + len - 1) / len;
  auto& have = scratch.have;
  have.assign(live_rows, nullptr);
  for (const ShardView* s : chosen) {
    if (s->index < live_rows) have[s->index] = s->bytes.data();
  }
  auto& lost = scratch.lost;
  lost.clear();
  for (std::size_t j = 0; j < live_rows; ++j) {
    if (have[j] == nullptr) lost.push_back(j);
  }
  if (!lost.empty()) {
    auto& rows = scratch.rows;
    rows.clear();
    for (const ShardView* s : chosen) rows.push_back(s->index);
    generator_.select_rows_into(rows, scratch.sub);
    const bool ok = scratch.sub.invert_into(scratch.inv, scratch.work);
    assert(ok && "Cauchy construction guarantees invertibility");
    if (!ok) throw std::invalid_argument("decode: singular submatrix");
  }

  // Blocked like the encoder: per chunk, copy the held rows (crc32_copy
  // pulls their chunk into cache, where the dot products below re-read
  // it), then compute every lost row's chunk with one gf256_dot each and
  // advance its CRC while the chunk is still hot.
  const auto& kr = simd::kernels();
  auto& row_crc = scratch.row_crc;
  row_crc.assign(live_rows, crc32_init());
  const auto row_live = [&](std::size_t j) { return std::min(len, original_size - j * len); };
  std::array<const std::uint8_t*, 256> srcs;
  for (std::size_t off = 0; off < len; off += kParityBlock) {
    const std::size_t chunk = std::min(kParityBlock, len - off);
    const auto live_in_chunk = [&](std::size_t j) {
      const std::size_t live = row_live(j);
      return off < live ? std::min(chunk, live - off) : std::size_t{0};
    };
    for (std::size_t j = 0; j < live_rows; ++j) {
      const std::size_t count = live_in_chunk(j);
      if (have[j] == nullptr || count == 0) continue;
      row_crc[j] = crc32_copy_update(row_crc[j], out.subspan(j * len + off, count),
                                     std::span(have[j] + off, count));
    }
    if (lost.empty()) continue;
    for (std::size_t i = 0; i < k_; ++i) srcs[i] = chosen[i]->bytes.data() + off;
    for (const std::size_t j : lost) {
      const std::size_t count = live_in_chunk(j);
      if (count == 0) continue;
      std::uint8_t* dst = out.data() + j * len + off;
      kr.gf256_dot(dst, srcs.data(), scratch.inv.row(j), k_, count);
      row_crc[j] = crc32_update(row_crc[j], std::span<const std::uint8_t>(dst, count));
    }
  }

  // Stitch the row CRCs into crc32(out); every row but the last is `len`
  // bytes long, so one combine operator serves them all.
  if (live_rows == 0) return crc32({});
  const std::uint32_t step = crc32_combine_gen(len);
  std::uint32_t whole = crc32_final(row_crc[0]);
  for (std::size_t j = 1; j < live_rows; ++j) {
    const std::uint32_t crc = crc32_final(row_crc[j]);
    const std::size_t live = row_live(j);
    whole = live == len ? crc32_combine_op(whole, crc, step) : crc32_combine(whole, crc, live);
  }
  return whole;
}

std::vector<std::uint8_t> ReedSolomon::decode(const std::vector<Shard>& shards,
                                              std::size_t original_size) const {
  std::vector<ShardView> views;
  views.reserve(shards.size());
  for (const auto& s : shards) views.push_back({s.index, s.bytes});
  std::vector<std::uint8_t> out(original_size);
  RsScratch scratch;
  decode_into(views, original_size, out, scratch);
  return out;
}

std::vector<std::vector<std::uint8_t>> split_plain(std::span<const std::uint8_t> data,
                                                   std::size_t k) {
  assert(k >= 1);
  // reserve + emplace from the slice: each piece's bytes are written exactly
  // once by the range constructor (no value-initialized resize).
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(k);
  const std::size_t base = data.size() / k;
  const std::size_t extra = data.size() % k;
  std::size_t offset = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t len = base + (i < extra ? 1 : 0);
    out.emplace_back(data.begin() + static_cast<std::ptrdiff_t>(offset),
                     data.begin() + static_cast<std::ptrdiff_t>(offset + len));
    offset += len;
  }
  return out;
}

std::vector<std::vector<std::uint8_t>> split_sized(std::span<const std::uint8_t> data,
                                                   const std::vector<Bytes>& sizes) {
  Bytes total = 0;
  for (Bytes s : sizes) total += s;
  if (total != data.size()) {
    throw std::invalid_argument("split_sized: piece sizes must sum to the data size");
  }
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(sizes.size());
  std::size_t offset = 0;
  for (Bytes s : sizes) {
    out.emplace_back(data.begin() + static_cast<std::ptrdiff_t>(offset),
                     data.begin() + static_cast<std::ptrdiff_t>(offset + s));
    offset += s;
  }
  return out;
}

void split_plain_views(std::span<const std::uint8_t> data, std::size_t k,
                       std::span<std::span<const std::uint8_t>> out) {
  assert(k >= 1 && out.size() == k);
  const std::size_t base = data.size() / k;
  const std::size_t extra = data.size() % k;
  std::size_t offset = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t len = base + (i < extra ? 1 : 0);
    out[i] = data.subspan(offset, len);
    offset += len;
  }
}

void split_sized_views(std::span<const std::uint8_t> data,
                       std::span<const Bytes> sizes,
                       std::span<std::span<const std::uint8_t>> out) {
  assert(out.size() == sizes.size());
  Bytes total = 0;
  for (Bytes s : sizes) total += s;
  if (total != data.size()) {
    throw std::invalid_argument("split_sized: piece sizes must sum to the data size");
  }
  std::size_t offset = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    out[i] = data.subspan(offset, sizes[i]);
    offset += sizes[i];
  }
}

std::vector<std::uint8_t> join_plain(const std::vector<std::vector<std::uint8_t>>& pieces) {
  std::size_t total = 0;
  for (const auto& p : pieces) total += p.size();
  std::vector<std::uint8_t> out;
  out.reserve(total);
  for (const auto& p : pieces) out.insert(out.end(), p.begin(), p.end());
  return out;
}

void join_into(std::span<const std::span<const std::uint8_t>> pieces,
               std::span<std::uint8_t> out) {
  std::size_t total = 0;
  for (const auto& p : pieces) total += p.size();
  if (total != out.size()) {
    throw std::invalid_argument("join_into: piece sizes must sum to the output size");
  }
  std::size_t offset = 0;
  for (const auto& p : pieces) {
    std::memcpy(out.data() + offset, p.data(), p.size());
    offset += p.size();
  }
}

}  // namespace spcache
