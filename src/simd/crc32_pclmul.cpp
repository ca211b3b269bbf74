// PCLMULQDQ-folded CRC-32 for the reflected IEEE polynomial 0xEDB88320.
//
// Note the SSE4.2 `crc32` instruction computes CRC-32C (Castagnoli) — the
// wrong polynomial for this code base — so hardware acceleration has to go
// through carry-less multiply folding instead. This is the classic Intel
// "Fast CRC Computation Using PCLMULQDQ" scheme as deployed in zlib: four
// 128-bit accumulators fold 64 input bytes per iteration, then the shared
// fold_finish (crc32_fold.h) folds down 4→1, 16 bytes at a time, 128→64
// bits, and a Barrett reduction produces the 32-bit state. Operates on the
// raw (pre-final-xor) state, same convention as the scalar kernel, and is
// bit-exact with it. The avx512 tier widens the main loop to zmm lanes in
// crc32_vpclmul.cpp.
#include "simd/kernels_impl.h"

#if defined(SPCACHE_SIMD_X86)

#include "simd/crc32_fold.h"

namespace spcache::simd::detail {

namespace {

// Folds `len` bytes (len >= 64 and a multiple of 16) into the running state.
// When `dst` is non-null every loaded block is also stored there — the fused
// copy path reuses the loads the checksum needed anyway.
template <bool kCopy>
std::uint32_t fold(std::uint32_t crc, std::uint8_t* dst, const std::uint8_t* buf,
                   std::size_t len) {
  __m128i x0, x1, x2, x3, x4, x5, x6, x7, x8, y5, y6, y7, y8;

  x1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x00));
  x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x10));
  x3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x20));
  x4 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x30));
  if constexpr (kCopy) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 0x00), x1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 0x10), x2);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 0x20), x3);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 0x30), x4);
    dst += 64;
  }
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(crc)));
  x0 = _mm_load_si128(reinterpret_cast<const __m128i*>(k1k2));
  buf += 64;
  len -= 64;

  while (len >= 64) {
    x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    x6 = _mm_clmulepi64_si128(x2, x0, 0x00);
    x7 = _mm_clmulepi64_si128(x3, x0, 0x00);
    x8 = _mm_clmulepi64_si128(x4, x0, 0x00);
    x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
    x2 = _mm_clmulepi64_si128(x2, x0, 0x11);
    x3 = _mm_clmulepi64_si128(x3, x0, 0x11);
    x4 = _mm_clmulepi64_si128(x4, x0, 0x11);
    y5 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x00));
    y6 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x10));
    y7 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x20));
    y8 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x30));
    if constexpr (kCopy) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 0x00), y5);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 0x10), y6);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 0x20), y7);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 0x30), y8);
      dst += 64;
    }
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x5), y5);
    x2 = _mm_xor_si128(_mm_xor_si128(x2, x6), y6);
    x3 = _mm_xor_si128(_mm_xor_si128(x3, x7), y7);
    x4 = _mm_xor_si128(_mm_xor_si128(x4, x8), y8);
    buf += 64;
    len -= 64;
  }

  return fold_finish<kCopy>(x1, x2, x3, x4, dst, buf, len);
}

}  // namespace

std::uint32_t crc32_update_pclmul(std::uint32_t state, const std::uint8_t* p,
                                  std::size_t n) {
  if (n < 64) return crc32_update_scalar(state, p, n);
  const std::size_t folded = n & ~static_cast<std::size_t>(15);
  state = fold<false>(state, nullptr, p, folded);
  return crc32_update_scalar(state, p + folded, n - folded);
}

std::uint32_t crc32_copy_update_pclmul(std::uint32_t state, std::uint8_t* dst,
                                       const std::uint8_t* src, std::size_t n) {
  if (n < 64) return crc32_copy_update_scalar(state, dst, src, n);
  const std::size_t folded = n & ~static_cast<std::size_t>(15);
  state = fold<true>(state, dst, src, folded);
  return crc32_copy_update_scalar(state, dst + folded, src + folded, n - folded);
}

}  // namespace spcache::simd::detail

#endif  // SPCACHE_SIMD_X86
