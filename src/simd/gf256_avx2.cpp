// AVX2 GF(256) slice kernels: the SSSE3 split-nibble scheme widened to 32
// bytes per step by broadcasting the two 16-entry tables into both lanes
// (VPSHUFB shuffles within each 128-bit lane, which is exactly what the
// nibble lookup needs).
#include "simd/kernels_impl.h"

#if defined(SPCACHE_SIMD_X86)

#include <immintrin.h>

namespace spcache::simd::detail {

namespace {

struct NibTables256 {
  __m256i lo;
  __m256i hi;
  __m256i mask;
};

inline NibTables256 load_tables(const Gf256Tables& t, std::uint8_t c) {
  return NibTables256{
      _mm256_broadcastsi128_si256(
          _mm_load_si128(reinterpret_cast<const __m128i*>(t.nib_lo[c]))),
      _mm256_broadcastsi128_si256(
          _mm_load_si128(reinterpret_cast<const __m128i*>(t.nib_hi[c]))),
      _mm256_set1_epi8(0x0F),
  };
}

inline __m256i mul_vec(const NibTables256& nt, __m256i v) {
  const __m256i lo = _mm256_and_si256(v, nt.mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), nt.mask);
  return _mm256_xor_si256(_mm256_shuffle_epi8(nt.lo, lo),
                          _mm256_shuffle_epi8(nt.hi, hi));
}

}  // namespace

void gf256_mul_avx2(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                    std::uint8_t c) {
  if (c <= 1 || n < 32) {
    gf256_mul_ssse3(dst, src, n, c);
    return;
  }
  const NibTables256 nt = load_tables(gf256_tables(), c);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m256i v0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), mul_vec(nt, v0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32), mul_vec(nt, v1));
  }
  for (; i + 32 <= n; i += 32) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), mul_vec(nt, v));
  }
  if (i < n) gf256_mul_ssse3(dst + i, src + i, n - i, c);
}

void gf256_mul_add_avx2(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                        std::uint8_t c) {
  if (c == 0) return;
  if (c == 1 || n < 32) {
    gf256_mul_add_ssse3(dst, src, n, c);
    return;
  }
  const NibTables256 nt = load_tables(gf256_tables(), c);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m256i v0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 32));
    const __m256i d0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i d1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d0, mul_vec(nt, v0)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32),
                        _mm256_xor_si256(d1, mul_vec(nt, v1)));
  }
  for (; i + 32 <= n; i += 32) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, mul_vec(nt, v)));
  }
  if (i < n) gf256_mul_add_ssse3(dst + i, src + i, n - i, c);
}

void gf256_mul_add2_avx2(std::uint8_t* dst, const std::uint8_t* src0, std::uint8_t c0,
                         const std::uint8_t* src1, std::uint8_t c1, std::size_t n) {
  if (n < 32) {
    gf256_mul_add2_ssse3(dst, src0, c0, src1, c1, n);
    return;
  }
  // Both terms fuse for every coefficient (the nibble tables are exact for
  // c == 0 and c == 1), so dst is read and written once for two sources —
  // this is what keeps the cache-blocked RS encode off the store ports.
  const NibTables256 nt0 = load_tables(gf256_tables(), c0);
  const NibTables256 nt1 = load_tables(gf256_tables(), c1);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m256i a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src0 + i));
    const __m256i a1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src0 + i + 32));
    const __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src1 + i));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src1 + i + 32));
    const __m256i d0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i d1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 32));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_xor_si256(d0, _mm256_xor_si256(mul_vec(nt0, a0), mul_vec(nt1, b0))));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i + 32),
        _mm256_xor_si256(d1, _mm256_xor_si256(mul_vec(nt0, a1), mul_vec(nt1, b1))));
  }
  for (; i + 32 <= n; i += 32) {
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src0 + i));
    const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src1 + i));
    const __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_xor_si256(d, _mm256_xor_si256(mul_vec(nt0, a), mul_vec(nt1, b))));
  }
  if (i < n) gf256_mul_add2_ssse3(dst + i, src0 + i, c0, src1 + i, c1, n - i);
}

void gf256_dot_avx2(std::uint8_t* dst, const std::uint8_t* const* src,
                    const std::uint8_t* c, std::size_t k, std::size_t n) {
  // 128 bytes per pass over the k sources, summed in four registers, so
  // each coefficient's table broadcasts are paid once per 128 output bytes.
  const auto& t = gf256_tables();
  std::size_t i = 0;
  for (; i + 128 <= n; i += 128) {
    __m256i a0 = _mm256_setzero_si256();
    __m256i a1 = _mm256_setzero_si256();
    __m256i a2 = _mm256_setzero_si256();
    __m256i a3 = _mm256_setzero_si256();
    for (std::size_t j = 0; j < k; ++j) {
      const NibTables256 nt = load_tables(t, c[j]);
      const auto* s = reinterpret_cast<const __m256i*>(src[j] + i);
      a0 = _mm256_xor_si256(a0, mul_vec(nt, _mm256_loadu_si256(s)));
      a1 = _mm256_xor_si256(a1, mul_vec(nt, _mm256_loadu_si256(s + 1)));
      a2 = _mm256_xor_si256(a2, mul_vec(nt, _mm256_loadu_si256(s + 2)));
      a3 = _mm256_xor_si256(a3, mul_vec(nt, _mm256_loadu_si256(s + 3)));
    }
    auto* d = reinterpret_cast<__m256i*>(dst + i);
    _mm256_storeu_si256(d, a0);
    _mm256_storeu_si256(d + 1, a1);
    _mm256_storeu_si256(d + 2, a2);
    _mm256_storeu_si256(d + 3, a3);
  }
  for (; i + 32 <= n; i += 32) {
    __m256i a = _mm256_setzero_si256();
    for (std::size_t j = 0; j < k; ++j) {
      const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src[j] + i));
      a = _mm256_xor_si256(a, mul_vec(load_tables(t, c[j]), v));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), a);
  }
  gf256_dot_tail_scalar(dst, src, c, k, i, n);
}

}  // namespace spcache::simd::detail

#endif  // SPCACHE_SIMD_X86
