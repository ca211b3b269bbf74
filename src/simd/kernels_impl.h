// Internal declarations shared between the per-ISA kernel translation units
// and the dispatcher. Not part of the public simd API.
#pragma once

#include <cstddef>
#include <cstdint>

namespace spcache::simd::detail {

// Precomputed GF(256) tables over 0x11B, built once at startup and shared by
// every kernel tier. The nibble tables are the PSHUFB operands: for a
// coefficient c and byte v = hi*16 + lo, c*v == nib_lo[c][lo] ^ nib_hi[c][hi]
// because multiplication distributes over GF addition (xor).
struct Gf256Tables {
  std::uint8_t mul[256][256];               // mul[c][v] = c * v
  alignas(16) std::uint8_t nib_lo[256][16];  // nib_lo[c][i] = c * i
  alignas(16) std::uint8_t nib_hi[256][16];  // nib_hi[c][i] = c * (i << 4)
  std::uint8_t exp[512];                     // doubled to skip mod-255
  std::uint8_t log[256];                     // log[0] unused
};
const Gf256Tables& gf256_tables();

// Scalar kernels (no ISA requirements). The vector kernels call these for
// head/tail remainders, so they live in an unflagged translation unit.
void gf256_mul_scalar(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                      std::uint8_t c);
void gf256_mul_add_scalar(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                          std::uint8_t c);
void gf256_mul_add2_scalar(std::uint8_t* dst, const std::uint8_t* src0, std::uint8_t c0,
                           const std::uint8_t* src1, std::uint8_t c1, std::size_t n);
void gf256_dot_scalar(std::uint8_t* dst, const std::uint8_t* const* src,
                      const std::uint8_t* c, std::size_t k, std::size_t n);
// Byte-at-a-time dot product over positions [from, n): the remainder the
// PSHUFB tiers leave after their last full vector.
void gf256_dot_tail_scalar(std::uint8_t* dst, const std::uint8_t* const* src,
                           const std::uint8_t* c, std::size_t k, std::size_t from,
                           std::size_t n);
std::uint32_t crc32_update_scalar(std::uint32_t state, const std::uint8_t* p,
                                  std::size_t n);
std::uint32_t crc32_copy_update_scalar(std::uint32_t state, std::uint8_t* dst,
                                       const std::uint8_t* src, std::size_t n);

#if defined(SPCACHE_SIMD_X86)
void gf256_mul_ssse3(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                     std::uint8_t c);
void gf256_mul_add_ssse3(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                         std::uint8_t c);
void gf256_mul_add2_ssse3(std::uint8_t* dst, const std::uint8_t* src0, std::uint8_t c0,
                          const std::uint8_t* src1, std::uint8_t c1, std::size_t n);
void gf256_dot_ssse3(std::uint8_t* dst, const std::uint8_t* const* src,
                     const std::uint8_t* c, std::size_t k, std::size_t n);
void gf256_mul_avx2(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                    std::uint8_t c);
void gf256_mul_add_avx2(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                        std::uint8_t c);
void gf256_mul_add2_avx2(std::uint8_t* dst, const std::uint8_t* src0, std::uint8_t c0,
                         const std::uint8_t* src1, std::uint8_t c1, std::size_t n);
void gf256_dot_avx2(std::uint8_t* dst, const std::uint8_t* const* src,
                    const std::uint8_t* c, std::size_t k, std::size_t n);
void gf256_mul_avx512(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                      std::uint8_t c);
void gf256_mul_add_avx512(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                          std::uint8_t c);
void gf256_dot_avx512(std::uint8_t* dst, const std::uint8_t* const* src,
                      const std::uint8_t* c, std::size_t k, std::size_t n);
std::uint32_t crc32_update_pclmul(std::uint32_t state, const std::uint8_t* p,
                                  std::size_t n);
std::uint32_t crc32_copy_update_pclmul(std::uint32_t state, std::uint8_t* dst,
                                       const std::uint8_t* src, std::size_t n);
std::uint32_t crc32_update_vpclmul(std::uint32_t state, const std::uint8_t* p,
                                   std::size_t n);
std::uint32_t crc32_copy_update_vpclmul(std::uint32_t state, std::uint8_t* dst,
                                        const std::uint8_t* src, std::size_t n);
#endif

}  // namespace spcache::simd::detail
