// VPCLMULQDQ-folded CRC-32 for the avx512 tier: the PCLMUL scheme of
// crc32_pclmul.cpp widened to 512-bit registers, in the shape of Chromium
// zlib's crc32_avx512_simd_. Four zmm accumulators (sixteen 128-bit lanes)
// fold 256 input bytes per iteration. They fold into one zmm, which folds
// any remaining whole 64-byte blocks; its four lanes are then the x1..x4 of
// the 128-bit scheme and go through the shared fold_finish (crc32_fold.h).
// Inputs under 256 bytes take the PCLMUL path. Same raw-state convention as
// the other tiers, and bit-exact with them.
#include "simd/kernels_impl.h"

#if defined(SPCACHE_SIMD_X86)

#include <immintrin.h>

#include "simd/crc32_fold.h"

namespace spcache::simd::detail {

namespace {

// reflect(x^e mod P) << 1 for e = 2080, 2016: moves a lane 256 bytes forward.
constexpr std::uint64_t k256_lo = 0x011542778a;
constexpr std::uint64_t k256_hi = 0x01322d1430;

// One fold step on every 128-bit lane: acc * k (both 64-bit halves,
// carry-less) xor next.
__m512i fold_lanes(__m512i acc, __m512i k, __m512i next) {
  return _mm512_ternarylogic_epi32(_mm512_clmulepi64_epi128(acc, k, 0x00),
                                   _mm512_clmulepi64_epi128(acc, k, 0x11), next, 0x96);
}

// Loads the 64 bytes at src + off; with kCopy also stores them at dst + off
// (dst is null otherwise, so it is only offset under kCopy).
template <bool kCopy>
__m512i load_block(std::uint8_t* dst, const std::uint8_t* src, std::size_t off) {
  const __m512i v = _mm512_loadu_si512(src + off);
  if constexpr (kCopy) _mm512_storeu_si512(dst + off, v);
  return v;
}

// Folds `len` bytes (len >= 256 and a multiple of 16) into the running
// state. With kCopy every loaded block is also stored to `dst`.
template <bool kCopy>
std::uint32_t fold512(std::uint32_t crc, std::uint8_t* dst, const std::uint8_t* buf,
                      std::size_t len) {
  __m512i x0 = load_block<kCopy>(dst, buf, 0x00);
  __m512i x1 = load_block<kCopy>(dst, buf, 0x40);
  __m512i x2 = load_block<kCopy>(dst, buf, 0x80);
  __m512i x3 = load_block<kCopy>(dst, buf, 0xc0);
  x0 = _mm512_xor_si512(x0, _mm512_maskz_set1_epi32(1, static_cast<int>(crc)));
  if constexpr (kCopy) dst += 256;
  buf += 256;
  len -= 256;

  __m512i k = _mm512_set4_epi64(k256_hi, k256_lo, k256_hi, k256_lo);
  while (len >= 256) {
    x0 = fold_lanes(x0, k, load_block<kCopy>(dst, buf, 0x00));
    x1 = fold_lanes(x1, k, load_block<kCopy>(dst, buf, 0x40));
    x2 = fold_lanes(x2, k, load_block<kCopy>(dst, buf, 0x80));
    x3 = fold_lanes(x3, k, load_block<kCopy>(dst, buf, 0xc0));
    if constexpr (kCopy) dst += 256;
    buf += 256;
    len -= 256;
  }

  // Four accumulators into one, then whole 64-byte blocks, both a 64-byte
  // move per step.
  k = _mm512_set4_epi64(k1k2[1], k1k2[0], k1k2[1], k1k2[0]);
  x0 = fold_lanes(x0, k, x1);
  x0 = fold_lanes(x0, k, x2);
  x0 = fold_lanes(x0, k, x3);
  while (len >= 64) {
    x0 = fold_lanes(x0, k, load_block<kCopy>(dst, buf, 0));
    if constexpr (kCopy) dst += 64;
    buf += 64;
    len -= 64;
  }

  // The maskz extract (all four dwords kept) reads no undefined register,
  // unlike GCC's _mm512_castsi512_si128 and unmasked extract.
  return fold_finish<kCopy>(_mm512_maskz_extracti32x4_epi32(0xF, x0, 0),
                            _mm512_maskz_extracti32x4_epi32(0xF, x0, 1),
                            _mm512_maskz_extracti32x4_epi32(0xF, x0, 2),
                            _mm512_maskz_extracti32x4_epi32(0xF, x0, 3), dst, buf, len);
}

}  // namespace

std::uint32_t crc32_update_vpclmul(std::uint32_t state, const std::uint8_t* p,
                                   std::size_t n) {
  if (n < 256) return crc32_update_pclmul(state, p, n);
  const std::size_t folded = n & ~static_cast<std::size_t>(15);
  state = fold512<false>(state, nullptr, p, folded);
  return crc32_update_scalar(state, p + folded, n - folded);
}

std::uint32_t crc32_copy_update_vpclmul(std::uint32_t state, std::uint8_t* dst,
                                        const std::uint8_t* src, std::size_t n) {
  if (n < 256) return crc32_copy_update_pclmul(state, dst, src, n);
  const std::size_t folded = n & ~static_cast<std::size_t>(15);
  state = fold512<true>(state, dst, src, folded);
  return crc32_copy_update_scalar(state, dst + folded, src + folded, n - folded);
}

}  // namespace spcache::simd::detail

#endif  // SPCACHE_SIMD_X86
