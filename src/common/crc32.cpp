#include "common/crc32.h"

#include <array>

#include "simd/simd.h"

namespace spcache {

namespace {

// Polynomials over GF(2) in the reflected bit order of the CRC: bit 31 is
// x^0 and the modulus is the IEEE polynomial 0xEDB88320.
constexpr std::uint32_t kPoly = 0xEDB88320u;
constexpr std::uint32_t kOne = 1u << 31;  // x^0

// a * b mod P (zlib's multmodp). a must be nonzero; every operator built
// here is a power of x, which P (having an x^0 term) never divides.
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t m = kOne;
  std::uint32_t p = 0;
  for (;;) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1u) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return p;
}

// kX2n[j] = x^(2^j) mod P.
constexpr std::array<std::uint32_t, 32> make_x2n_table() {
  std::array<std::uint32_t, 32> t{};
  std::uint32_t p = kOne >> 1;  // x^1
  for (auto& e : t) {
    e = p;
    p = multmodp(p, p);
  }
  return t;
}
constexpr std::array<std::uint32_t, 32> kX2n = make_x2n_table();

// x^(n * 2^k) mod P (zlib's x2nmodp): square-and-multiply over the table.
std::uint32_t x2nmodp(std::size_t n, unsigned k) {
  std::uint32_t p = kOne;
  for (; n != 0; n >>= 1, ++k) {
    if (n & 1u) p = multmodp(kX2n[k & 31], p);
  }
  return p;
}

}  // namespace

std::uint32_t crc32_init() { return 0xFFFFFFFFu; }

std::uint32_t crc32_update(std::uint32_t state, std::span<const std::uint8_t> data) {
  return simd::kernels().crc32_update(state, data.data(), data.size());
}

std::uint32_t crc32_final(std::uint32_t state) { return state ^ 0xFFFFFFFFu; }

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  return crc32_final(crc32_update(crc32_init(), data));
}

std::uint32_t crc32_copy_update(std::uint32_t state, std::span<std::uint8_t> dst,
                                std::span<const std::uint8_t> src) {
  return simd::kernels().crc32_copy_update(state, dst.data(), src.data(),
                                           src.size());
}

std::uint32_t crc32_copy(std::span<std::uint8_t> dst,
                         std::span<const std::uint8_t> src) {
  return crc32_final(crc32_copy_update(crc32_init(), dst, src));
}

std::uint32_t crc32_combine_gen(std::size_t len_b) { return x2nmodp(len_b, 3); }

std::uint32_t crc32_combine_op(std::uint32_t crc_a, std::uint32_t crc_b,
                               std::uint32_t op) {
  return multmodp(op, crc_a) ^ crc_b;
}

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::size_t len_b) {
  return crc32_combine_op(crc_a, crc_b, crc32_combine_gen(len_b));
}

}  // namespace spcache
