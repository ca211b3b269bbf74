// Constants and reduction tail of the carry-less-multiply CRC-32 (reflected
// IEEE polynomial 0xEDB88320), shared by the PCLMUL tier (crc32_pclmul.cpp)
// and the VPCLMULQDQ tier (crc32_vpclmul.cpp). Each tier's main loop ends
// with four 128-bit accumulators x1..x4 over the last 64 folded bytes (x1
// the oldest); fold_finish takes them from there.
//
// Everything here has internal linkage on purpose: each including TU
// compiles its own copy under its own ISA flags. An external-linkage inline
// would be one symbol, and the linker could keep the AVX-512-encoded body
// for the PCLMUL tier too, which faults with SIGILL on CPUs without AVX-512.
#pragma once

#include <smmintrin.h>
#include <wmmintrin.h>

#include <cstddef>
#include <cstdint>

namespace spcache::simd::detail {

namespace {

// Folding constants in the bit-reflected domain, each reflect(x^e mod P)
// << 1: k1k2 moves a 128-bit lane 64 bytes forward (e = 544, 480), k3k4 16
// bytes (e = 160, 96), k5 folds 96 bits to 64 (e = 64). poly holds P and
// the Barrett constant mu.
alignas(16) constexpr std::uint64_t k1k2[2] = {0x0154442bd4, 0x01c6e41596};
alignas(16) constexpr std::uint64_t k3k4[2] = {0x01751997d0, 0x00ccaa009e};
alignas(16) constexpr std::uint64_t k5k0[2] = {0x0163cd6124, 0x0000000000};
alignas(16) constexpr std::uint64_t poly[2] = {0x01db710641, 0x01f7011641};

// Folds the four accumulators into one, then the remaining `len` bytes of
// `buf` (a multiple of 16, any count) 16 at a time, and reduces to the 32-bit
// raw state. With kCopy each loaded tail block is also stored to `dst`.
template <bool kCopy>
std::uint32_t fold_finish(__m128i x1, __m128i x2, __m128i x3, __m128i x4,
                          std::uint8_t* dst, const std::uint8_t* buf, std::size_t len) {
  __m128i x0 = _mm_load_si128(reinterpret_cast<const __m128i*>(k3k4));
  __m128i x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x2), x5);
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x3), x5);
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x4), x5);

  while (len >= 16) {
    x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf));
    if constexpr (kCopy) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), x2);
      dst += 16;
    }
    x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x2), x5);
    buf += 16;
    len -= 16;
  }

  // Fold 128 bits down to 64.
  x2 = _mm_clmulepi64_si128(x1, x0, 0x10);
  x3 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_srli_si128(x1, 8);
  x1 = _mm_xor_si128(x1, x2);
  x0 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(k5k0));
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, x3);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_xor_si128(x1, x2);

  // Barrett reduction 64 → 32 bits.
  x0 = _mm_load_si128(reinterpret_cast<const __m128i*>(poly));
  x2 = _mm_and_si128(x1, x3);
  x2 = _mm_clmulepi64_si128(x2, x0, 0x10);
  x2 = _mm_and_si128(x2, x3);
  x2 = _mm_clmulepi64_si128(x2, x0, 0x00);
  x1 = _mm_xor_si128(x1, x2);

  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

}  // namespace

}  // namespace spcache::simd::detail
