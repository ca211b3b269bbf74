// AVX-512 GF(256) slice kernels on GFNI: VGF2P8MULB multiplies 64 byte
// pairs per instruction and reduces by x^8 + x^4 + x^3 + x + 1 (0x11B) in
// hardware, the same field as the scalar tables, so this tier is bit-exact
// with the others without any lookup tables. Tails use AVX512BW byte masks
// instead of a scalar loop; masked-off lanes are neither read nor written.
#include "simd/kernels_impl.h"

#if defined(SPCACHE_SIMD_X86)

#include <immintrin.h>

namespace spcache::simd::detail {

namespace {

// Mask selecting the first min(len, 64) bytes of a vector.
inline __mmask64 head_mask(std::size_t len) {
  return len >= 64 ? ~__mmask64{0} : (__mmask64{1} << len) - 1;
}

inline __m512i broadcast(std::uint8_t c) {
  return _mm512_set1_epi8(static_cast<char>(c));
}

}  // namespace

void gf256_mul_avx512(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                      std::uint8_t c) {
  const __m512i cv = broadcast(c);
  std::size_t i = 0;
  for (; i + 128 <= n; i += 128) {
    const __m512i v0 = _mm512_loadu_si512(src + i);
    const __m512i v1 = _mm512_loadu_si512(src + i + 64);
    _mm512_storeu_si512(dst + i, _mm512_gf2p8mul_epi8(v0, cv));
    _mm512_storeu_si512(dst + i + 64, _mm512_gf2p8mul_epi8(v1, cv));
  }
  for (; i < n; i += 64) {  // at most two steps, the last one masked
    const __mmask64 m = head_mask(n - i);
    const __m512i v = _mm512_maskz_loadu_epi8(m, src + i);
    _mm512_mask_storeu_epi8(dst + i, m, _mm512_gf2p8mul_epi8(v, cv));
  }
}

void gf256_mul_add_avx512(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                          std::uint8_t c) {
  if (c == 0) return;
  const __m512i cv = broadcast(c);
  std::size_t i = 0;
  for (; i + 128 <= n; i += 128) {
    const __m512i v0 = _mm512_loadu_si512(src + i);
    const __m512i v1 = _mm512_loadu_si512(src + i + 64);
    const __m512i d0 = _mm512_loadu_si512(dst + i);
    const __m512i d1 = _mm512_loadu_si512(dst + i + 64);
    _mm512_storeu_si512(dst + i, _mm512_xor_si512(d0, _mm512_gf2p8mul_epi8(v0, cv)));
    _mm512_storeu_si512(dst + i + 64, _mm512_xor_si512(d1, _mm512_gf2p8mul_epi8(v1, cv)));
  }
  for (; i < n; i += 64) {
    const __mmask64 m = head_mask(n - i);
    const __m512i v = _mm512_maskz_loadu_epi8(m, src + i);
    const __m512i d = _mm512_maskz_loadu_epi8(m, dst + i);
    _mm512_mask_storeu_epi8(dst + i, m,
                            _mm512_xor_si512(d, _mm512_gf2p8mul_epi8(v, cv)));
  }
}

void gf256_dot_avx512(std::uint8_t* dst, const std::uint8_t* const* src,
                      const std::uint8_t* c, std::size_t k, std::size_t n) {
  // 128 bytes per pass over the k sources, summed in two registers.
  std::size_t i = 0;
  for (; i + 128 <= n; i += 128) {
    __m512i a0 = _mm512_setzero_si512();
    __m512i a1 = _mm512_setzero_si512();
    for (std::size_t j = 0; j < k; ++j) {
      const __m512i cv = broadcast(c[j]);
      const __m512i v0 = _mm512_loadu_si512(src[j] + i);
      const __m512i v1 = _mm512_loadu_si512(src[j] + i + 64);
      a0 = _mm512_xor_si512(a0, _mm512_gf2p8mul_epi8(v0, cv));
      a1 = _mm512_xor_si512(a1, _mm512_gf2p8mul_epi8(v1, cv));
    }
    _mm512_storeu_si512(dst + i, a0);
    _mm512_storeu_si512(dst + i + 64, a1);
  }
  for (; i < n; i += 64) {  // at most two steps, the last one masked
    const __mmask64 m = head_mask(n - i);
    __m512i a = _mm512_setzero_si512();
    for (std::size_t j = 0; j < k; ++j) {
      const __m512i v = _mm512_maskz_loadu_epi8(m, src[j] + i);
      a = _mm512_xor_si512(a, _mm512_gf2p8mul_epi8(v, broadcast(c[j])));
    }
    _mm512_mask_storeu_epi8(dst + i, m, a);
  }
}

}  // namespace spcache::simd::detail

#endif  // SPCACHE_SIMD_X86
