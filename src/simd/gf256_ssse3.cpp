// SSSE3 GF(256) slice kernels: split-nibble PSHUFB table lookups, 16 bytes
// per step. For a coefficient c the two 16-entry tables cover the low and
// high nibbles; the product of each byte is the xor of the two lookups.
#include "simd/kernels_impl.h"

#if defined(SPCACHE_SIMD_X86)

#include <tmmintrin.h>

namespace spcache::simd::detail {

namespace {

struct NibTables {
  __m128i lo;
  __m128i hi;
  __m128i mask;
};

inline NibTables load_tables(const Gf256Tables& t, std::uint8_t c) {
  return NibTables{
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.nib_lo[c])),
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.nib_hi[c])),
      _mm_set1_epi8(0x0F),
  };
}

inline __m128i mul_vec(const NibTables& nt, __m128i v) {
  const __m128i lo = _mm_and_si128(v, nt.mask);
  const __m128i hi = _mm_and_si128(_mm_srli_epi16(v, 4), nt.mask);
  return _mm_xor_si128(_mm_shuffle_epi8(nt.lo, lo), _mm_shuffle_epi8(nt.hi, hi));
}

}  // namespace

void gf256_mul_ssse3(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                     std::uint8_t c) {
  if (c <= 1 || n < 16) {
    gf256_mul_scalar(dst, src, n, c);
    return;
  }
  const NibTables nt = load_tables(gf256_tables(), c);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), mul_vec(nt, v));
  }
  if (i < n) gf256_mul_scalar(dst + i, src + i, n - i, c);
}

void gf256_mul_add_ssse3(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                         std::uint8_t c) {
  if (c == 0) return;
  if (c == 1 || n < 16) {
    gf256_mul_add_scalar(dst, src, n, c);
    return;
  }
  const NibTables nt = load_tables(gf256_tables(), c);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(d, mul_vec(nt, v)));
  }
  if (i < n) gf256_mul_add_scalar(dst + i, src + i, n - i, c);
}

void gf256_mul_add2_ssse3(std::uint8_t* dst, const std::uint8_t* src0, std::uint8_t c0,
                          const std::uint8_t* src1, std::uint8_t c1, std::size_t n) {
  if (n < 16) {
    gf256_mul_add2_scalar(dst, src0, c0, src1, c1, n);
    return;
  }
  // The nibble tables are exact for every coefficient (all-zero row for
  // c == 0, identity for c == 1), so both terms always fuse.
  const NibTables nt0 = load_tables(gf256_tables(), c0);
  const NibTables nt1 = load_tables(gf256_tables(), c1);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src0 + i));
    const __m128i v1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src1 + i));
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(dst + i),
        _mm_xor_si128(d, _mm_xor_si128(mul_vec(nt0, v0), mul_vec(nt1, v1))));
  }
  if (i < n) gf256_mul_add2_scalar(dst + i, src0 + i, c0, src1 + i, c1, n - i);
}

void gf256_dot_ssse3(std::uint8_t* dst, const std::uint8_t* const* src,
                     const std::uint8_t* c, std::size_t k, std::size_t n) {
  // Two 16-byte accumulators per pass over the k sources; the nibble
  // tables are exact for c == 0 and c == 1, so no coefficient is special.
  const auto& t = gf256_tables();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m128i a0 = _mm_setzero_si128();
    __m128i a1 = _mm_setzero_si128();
    for (std::size_t j = 0; j < k; ++j) {
      const NibTables nt = load_tables(t, c[j]);
      const __m128i v0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src[j] + i));
      const __m128i v1 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src[j] + i + 16));
      a0 = _mm_xor_si128(a0, mul_vec(nt, v0));
      a1 = _mm_xor_si128(a1, mul_vec(nt, v1));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), a0);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i + 16), a1);
  }
  for (; i + 16 <= n; i += 16) {
    __m128i a = _mm_setzero_si128();
    for (std::size_t j = 0; j < k; ++j) {
      const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src[j] + i));
      a = _mm_xor_si128(a, mul_vec(load_tables(t, c[j]), v));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), a);
  }
  gf256_dot_tail_scalar(dst, src, c, k, i, n);
}

}  // namespace spcache::simd::detail

#endif  // SPCACHE_SIMD_X86
