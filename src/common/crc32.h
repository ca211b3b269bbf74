// CRC-32 (IEEE 802.3 polynomial, reflected) for block integrity checks.
//
// The threaded cluster substrate (src/cluster) checksums every cached block
// on write and verifies it on read/reassembly, mirroring how real cluster
// caches detect corruption during partition transfer.
//
// The byte-crunching itself is delegated to src/simd (PCLMULQDQ folding
// where the CPU has it, slicing-by-8 otherwise; see simd/simd.h for the
// dispatch policy). This header adds the fused and parallel-combine
// primitives the data plane is built on:
//   - crc32_copy: checksum computed in the same pass as the memcpy, so hot
//     reads touch each byte once instead of twice.
//   - crc32_combine: stitch per-piece CRCs into the whole-file CRC without
//     rescanning the reassembled buffer (pieces are checksummed in parallel
//     while they are copied, then combined in O(k log n) bit operations
//     instead of O(bytes)).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace spcache {

// One-shot CRC of a byte buffer.
std::uint32_t crc32(std::span<const std::uint8_t> data);

// Incremental interface: crc32_update(crc32_init(), chunk) ... then
// crc32_final. Allows checksumming a file across partition boundaries.
std::uint32_t crc32_init();
std::uint32_t crc32_update(std::uint32_t state, std::span<const std::uint8_t> data);
std::uint32_t crc32_final(std::uint32_t state);

// Fused copy+checksum: copies src into dst (same length, non-overlapping)
// and advances the CRC state over those bytes in the same pass.
std::uint32_t crc32_copy_update(std::uint32_t state, std::span<std::uint8_t> dst,
                                std::span<const std::uint8_t> src);

// One-shot fused copy: copies src into dst and returns the finalized CRC of
// the copied bytes.
std::uint32_t crc32_copy(std::span<std::uint8_t> dst,
                         std::span<const std::uint8_t> src);

// ---------------------------------------------------------------------------
// CRC combination (polynomial method, as in zlib 1.2.12's crc32_combine).
//
// If crc_a = crc32(A) and crc_b = crc32(B) (both finalized), then
// crc32_combine(crc_a, crc_b, B.size()) == crc32(A || B). Appending len_b
// zero bytes to A multiplies its CRC by x^(8 * len_b) modulo the CRC
// polynomial; that power is assembled from a static table of x^(2^j) in
// O(log len_b) carry-less multiplies, with no per-length cache.
std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::size_t len_b);

// Split form for stitching many pieces of one length: gen computes the
// x^(8 * len_b) operator once, op applies it (one carry-less multiply).
// crc32_combine(a, b, n) == crc32_combine_op(a, b, crc32_combine_gen(n)).
std::uint32_t crc32_combine_gen(std::size_t len_b);
std::uint32_t crc32_combine_op(std::uint32_t crc_a, std::uint32_t crc_b,
                               std::uint32_t op);

}  // namespace spcache
