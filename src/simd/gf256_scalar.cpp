#include <cstring>

#include "simd/kernels_impl.h"

namespace spcache::simd::detail {

namespace {

// Below this length the 256-byte product row costs more to pull into cache
// than it saves; two lookups in the (hot, shared) log/exp tables win.
constexpr std::size_t kTinySlice = 16;

}  // namespace

void gf256_mul_scalar(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                      std::uint8_t c) {
  if (n == 0) return;
  if (c == 0) {
    std::memset(dst, 0, n);
    return;
  }
  if (c == 1) {
    if (dst != src) std::memmove(dst, src, n);
    return;
  }
  const auto& t = gf256_tables();
  if (n < kTinySlice) {
    const unsigned log_c = t.log[c];
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint8_t v = src[i];
      dst[i] = v ? t.exp[t.log[v] + log_c] : 0;
    }
    return;
  }
  const std::uint8_t* row = t.mul[c];
  for (std::size_t i = 0; i < n; ++i) dst[i] = row[src[i]];
}

void gf256_mul_add_scalar(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                          std::uint8_t c) {
  if (n == 0 || c == 0) return;
  if (c == 1) {
    for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
    return;
  }
  const auto& t = gf256_tables();
  if (n < kTinySlice) {
    const unsigned log_c = t.log[c];
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint8_t v = src[i];
      if (v) dst[i] ^= t.exp[t.log[v] + log_c];
    }
    return;
  }
  const std::uint8_t* row = t.mul[c];
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= row[src[i]];
}

void gf256_mul_add2_scalar(std::uint8_t* dst, const std::uint8_t* src0, std::uint8_t c0,
                           const std::uint8_t* src1, std::uint8_t c1, std::size_t n) {
  // One pass over dst for both accumulations. Delegate when a term drops
  // out; mul[1] is the identity row, so c == 1 needs no special case.
  if (c0 == 0) {
    gf256_mul_add_scalar(dst, src1, n, c1);
    return;
  }
  if (c1 == 0) {
    gf256_mul_add_scalar(dst, src0, n, c0);
    return;
  }
  const auto& t = gf256_tables();
  const std::uint8_t* r0 = t.mul[c0];
  const std::uint8_t* r1 = t.mul[c1];
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= r0[src0[i]] ^ r1[src1[i]];
}

void gf256_dot_scalar(std::uint8_t* dst, const std::uint8_t* const* src,
                      const std::uint8_t* c, std::size_t k, std::size_t n) {
  if (k == 0) {
    if (n > 0) std::memset(dst, 0, n);
    return;
  }
  gf256_mul_scalar(dst, src[0], n, c[0]);
  for (std::size_t j = 1; j < k; ++j) gf256_mul_add_scalar(dst, src[j], n, c[j]);
}

void gf256_dot_tail_scalar(std::uint8_t* dst, const std::uint8_t* const* src,
                           const std::uint8_t* c, std::size_t k, std::size_t from,
                           std::size_t n) {
  const auto& t = gf256_tables();
  for (std::size_t i = from; i < n; ++i) {
    std::uint8_t acc = 0;
    for (std::size_t j = 0; j < k; ++j) acc ^= t.mul[c[j]][src[j][i]];
    dst[i] = acc;
  }
}

}  // namespace spcache::simd::detail
