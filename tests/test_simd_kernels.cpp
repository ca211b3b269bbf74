// Cross-ISA equivalence suite for the src/simd kernel layer.
//
// Every kernel (GF(256) mul / mul-add / mul-add2 / dot, CRC-32 update, fused
// copy+CRC) is fuzz-compared against the scalar tier — and against an
// independent bit-by-bit reference — across odd lengths, unaligned offsets, and
// head/tail remainders, at every level the host CPU supports. The cases
// pick tiers through kernels_for(), not SPCACHE_SIMD, so the asan stage of
// tools/check.sh runs every supported tier under Address+UBSan, and the
// exactly-sized-buffer case there catches a kernel reading past its input.
#include "simd/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/crc32.h"
#include "simd/kernels_impl.h"

namespace spcache {
namespace {

// Deterministic data, independent of any library RNG.
std::vector<std::uint8_t> fuzz_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> v(n);
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  for (std::size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v[i] = static_cast<std::uint8_t>(x);
  }
  return v;
}

// Independent GF(256) reference: Russian-peasant multiply over 0x11B,
// sharing no tables with src/simd.
std::uint8_t gf_ref_mul(std::uint8_t a, std::uint8_t b) {
  std::uint16_t acc = 0;
  std::uint16_t aa = a;
  for (std::uint8_t bb = b; bb != 0; bb >>= 1) {
    if (bb & 1) acc ^= aa;
    aa <<= 1;
    if (aa & 0x100) aa ^= 0x11B;
  }
  return static_cast<std::uint8_t>(acc);
}

// Independent bitwise CRC-32 (reflected IEEE), raw-state convention.
std::uint32_t crc_ref_update(std::uint32_t state, const std::uint8_t* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    state ^= p[i];
    for (int b = 0; b < 8; ++b) {
      state = (state >> 1) ^ (0xEDB88320u & (0u - (state & 1u)));
    }
  }
  return state;
}

std::vector<simd::Level> supported_levels() {
  std::vector<simd::Level> out;
  for (const auto level : {simd::Level::kScalar, simd::Level::kSsse3, simd::Level::kAvx2,
                           simd::Level::kAvx512}) {
    if (simd::level_supported(level)) out.push_back(level);
  }
  return out;
}

// Lengths chosen to hit every remainder path: empty, sub-vector, one
// vector, vector±1, the AVX2 64-byte unroll boundary, the PCLMUL 64-byte
// minimum, the VPCLMULQDQ 256-byte minimum with each count of trailing
// 64-byte blocks and 16-byte tails after it, multi-KB bodies with ragged
// tails, and one ragged multi-MiB body.
constexpr std::size_t kBigLen = (std::size_t{2} << 20) + 333;
constexpr std::size_t kLengths[] = {0,    1,    2,    3,    15,   16,   17,    31,
                                    32,   33,   48,   63,   64,   65,   127,   128,
                                    129,  255,  256,  257,  319,  320,  383,   384,
                                    511,  512,  513,  767,  783,  1024, 4095,  4096,
                                    4097, 65521, kBigLen};
constexpr std::size_t kOffsets[] = {0, 1, 3, 7};
// Source buffers the length/offset sweeps slice from.
constexpr std::size_t kBufLen = kBigLen + 8;

TEST(SimdKernels, LevelPlumbing) {
  EXPECT_TRUE(simd::level_supported(simd::Level::kScalar));
  const auto detected = simd::detected_level();
  EXPECT_GE(static_cast<int>(detected), static_cast<int>(simd::Level::kScalar));
  EXPECT_STREQ(simd::level_name(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::Level::kAvx512), "avx512");
  EXPECT_EQ(simd::level_supported(simd::Level::kAvx512),
            detected == simd::Level::kAvx512);

  // force_level clamps to the detected ceiling and is reversible. avx512 is
  // the top tier, so forcing it lands exactly on the detected level: on a
  // host without AVX512BW+GFNI it clamps down to avx2 (or lower).
  simd::force_level(simd::Level::kAvx2);
  EXPECT_LE(static_cast<int>(simd::active_level()), static_cast<int>(detected));
  simd::force_level(simd::Level::kAvx512);
  EXPECT_EQ(simd::active_level(), detected);
  EXPECT_EQ(simd::kernels_for(simd::Level::kAvx512).level, detected);
  simd::force_level(simd::Level::kScalar);
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  EXPECT_EQ(simd::kernels().level, simd::Level::kScalar);
  simd::force_level(detected);
  EXPECT_EQ(simd::active_level(), detected);

#if defined(SPCACHE_SIMD_X86)
  // The avx512 tier folds CRC with VPCLMULQDQ exactly when the CPU has it
  // (and AVX512VL, which its TU is built with); otherwise it keeps the
  // PCLMUL entries. Without this, the cross-tier CRC cases could quietly
  // compare PCLMUL with itself.
  const bool want_vpclmul = detected == simd::Level::kAvx512 &&
                            __builtin_cpu_supports("vpclmulqdq") &&
                            __builtin_cpu_supports("avx512vl");
  const auto& top = simd::kernels_for(simd::Level::kAvx512);
  EXPECT_EQ(top.crc32_update == &simd::detail::crc32_update_vpclmul, want_vpclmul);
  EXPECT_EQ(top.crc32_copy_update == &simd::detail::crc32_copy_update_vpclmul,
            want_vpclmul);
#endif
}

TEST(SimdKernels, Gf256MulMatchesReferenceAcrossLevels) {
  const auto levels = supported_levels();
  const auto src_all = fuzz_bytes(kBufLen, 11);
  // Coefficients covering the special cases (0, 1) and both table paths.
  const std::uint8_t coeffs[] = {0, 1, 2, 3, 91, 142, 253, 255};
  for (const auto level : levels) {
    const auto& k = simd::kernels_for(level);
    ASSERT_EQ(k.level, level);
    for (const std::size_t n : kLengths) {
      for (const std::size_t off : kOffsets) {
        for (const std::uint8_t c : coeffs) {
          const std::uint8_t* src = src_all.data() + off;
          std::vector<std::uint8_t> dst(n, 0xA5);
          k.gf256_mul(dst.data(), src, n, c);
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(dst[i], gf_ref_mul(src[i], c))
                << simd::level_name(level) << " mul n=" << n << " off=" << off
                << " c=" << int(c) << " i=" << i;
          }
        }
      }
    }
  }
}

TEST(SimdKernels, Gf256MulAddMatchesReferenceAcrossLevels) {
  const auto levels = supported_levels();
  const auto src_all = fuzz_bytes(kBufLen, 23);
  const auto base_all = fuzz_bytes(kBufLen, 29);
  const std::uint8_t coeffs[] = {0, 1, 2, 91, 255};
  for (const auto level : levels) {
    const auto& k = simd::kernels_for(level);
    for (const std::size_t n : kLengths) {
      for (const std::size_t off : kOffsets) {
        for (const std::uint8_t c : coeffs) {
          const std::uint8_t* src = src_all.data() + off;
          std::vector<std::uint8_t> dst(base_all.begin(),
                                        base_all.begin() + static_cast<std::ptrdiff_t>(n));
          k.gf256_mul_add(dst.data(), src, n, c);
          for (std::size_t i = 0; i < n; ++i) {
            const std::uint8_t want =
                static_cast<std::uint8_t>(base_all[i] ^ gf_ref_mul(src[i], c));
            ASSERT_EQ(dst[i], want)
                << simd::level_name(level) << " mul_add n=" << n << " off=" << off
                << " c=" << int(c) << " i=" << i;
          }
        }
      }
    }
  }
}

TEST(SimdKernels, Gf256MulAdd2MatchesReferenceAcrossLevels) {
  const auto src0_all = fuzz_bytes(kBufLen, 67);
  const auto src1_all = fuzz_bytes(kBufLen, 71);
  const auto base_all = fuzz_bytes(kBufLen, 73);
  // Pairs hitting the degenerate coefficients on either side.
  const std::pair<std::uint8_t, std::uint8_t> coeff_pairs[] = {
      {0, 0}, {0, 91}, {91, 0}, {1, 255}, {255, 1}, {2, 3}, {91, 142}, {253, 254}};
  for (const auto level : supported_levels()) {
    const auto& k = simd::kernels_for(level);
    for (const std::size_t n : kLengths) {
      for (const std::size_t off : kOffsets) {
        for (const auto& [c0, c1] : coeff_pairs) {
          const std::uint8_t* s0 = src0_all.data() + off;
          const std::uint8_t* s1 = src1_all.data() + off;
          std::vector<std::uint8_t> dst(base_all.begin(),
                                        base_all.begin() + static_cast<std::ptrdiff_t>(n));
          k.gf256_mul_add2(dst.data(), s0, c0, s1, c1, n);
          for (std::size_t i = 0; i < n; ++i) {
            const std::uint8_t want = static_cast<std::uint8_t>(
                base_all[i] ^ gf_ref_mul(s0[i], c0) ^ gf_ref_mul(s1[i], c1));
            ASSERT_EQ(dst[i], want)
                << simd::level_name(level) << " mul_add2 n=" << n << " off=" << off
                << " c0=" << int(c0) << " c1=" << int(c1) << " i=" << i;
          }
        }
      }
    }
  }
}

// Reference dot product over positions [0, n) with the same sources.
std::vector<std::uint8_t> dot_ref(const std::vector<const std::uint8_t*>& src,
                                  const std::vector<std::uint8_t>& c, std::size_t n) {
  std::vector<std::uint8_t> out(n, 0);
  for (std::size_t j = 0; j < src.size(); ++j) {
    for (std::size_t i = 0; i < n; ++i) out[i] ^= gf_ref_mul(src[j][i], c[j]);
  }
  return out;
}

// Runs one tier's dot kernel into a poisoned buffer (dst is write-only, so
// its old bytes must not leak in) with a canary past the end, and checks
// the first n bytes against the reference.
void expect_dot(const simd::Kernels& k, const std::vector<const std::uint8_t*>& src,
                const std::vector<std::uint8_t>& c, std::size_t n, std::size_t dst_off,
                const std::vector<std::uint8_t>& want) {
  std::vector<std::uint8_t> buf(dst_off + n + 1, 0xA5);
  k.gf256_dot(buf.data() + dst_off, src.data(), c.data(), src.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(buf[dst_off + i], want[i])
        << simd::level_name(k.level) << " dot k=" << src.size() << " n=" << n
        << " dst_off=" << dst_off << " i=" << i;
  }
  ASSERT_EQ(buf[dst_off + n], 0xA5) << "dot overran the destination";
}

TEST(SimdKernels, Gf256DotMatchesReferenceAcrossLevels) {
  // k from one source to the 256 the kernel contract allows; every odd
  // length up to 300 (and 0) covers each tier's block loop and tail paths.
  constexpr std::size_t kMaxLen = 300;
  const std::size_t ks[] = {1, 2, 3, 10, 17, 64, 256};
  constexpr std::size_t kStride = 331;  // misaligns the sources against each other
  const auto pool = fuzz_bytes(8 + 256 * kStride, 79);
  for (const std::size_t k : ks) {
    auto c = fuzz_bytes(k, 83 + k);
    c[k / 2] = 0;  // degenerate coefficients ride along
    c[k - 1] = 1;
    if (k == 1) c[0] = 177;
    for (const std::size_t off : kOffsets) {
      std::vector<const std::uint8_t*> src(k);
      for (std::size_t j = 0; j < k; ++j) src[j] = pool.data() + off + j * kStride;
      const auto want = dot_ref(src, c, kMaxLen);
      for (const auto level : supported_levels()) {
        const auto& kr = simd::kernels_for(level);
        expect_dot(kr, src, c, 0, off, want);
        for (std::size_t n = 1; n <= kMaxLen; n += 2) expect_dot(kr, src, c, n, off, want);
      }
    }
  }
}

TEST(SimdKernels, Gf256DotMatchesMulAddChainOnLongRows) {
  // Multi-KB rows through each tier's steady-state loop, against the same
  // tier's mul/mul_add chain (itself pinned to the reference above).
  const auto pool = fuzz_bytes(10 * 70000, 89);
  const auto c = fuzz_bytes(10, 97);
  std::vector<const std::uint8_t*> src(10);
  for (std::size_t j = 0; j < 10; ++j) src[j] = pool.data() + 3 + j * 70000;
  for (const auto level : supported_levels()) {
    const auto& k = simd::kernels_for(level);
    for (const std::size_t n : {std::size_t{4096}, std::size_t{4097}, std::size_t{65521}}) {
      std::vector<std::uint8_t> chain(n), dot(n, 0xA5);
      k.gf256_mul(chain.data(), src[0], n, c[0]);
      for (std::size_t j = 1; j < 10; ++j) k.gf256_mul_add(chain.data(), src[j], n, c[j]);
      k.gf256_dot(dot.data(), src.data(), c.data(), 10, n);
      ASSERT_EQ(dot, chain) << simd::level_name(level) << " n=" << n;
    }
  }
}

TEST(SimdKernels, Gf256MulExactAliasingIsSupported) {
  for (const auto level : supported_levels()) {
    const auto& k = simd::kernels_for(level);
    for (const std::size_t n : {std::size_t{33}, std::size_t{4097}}) {
      auto buf = fuzz_bytes(n, 37);
      auto expect = buf;
      k.gf256_mul(expect.data(), expect.data(), n, 177);  // dst == src
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(expect[i], gf_ref_mul(buf[i], 177)) << simd::level_name(level);
      }
    }
  }
}

TEST(SimdKernels, Crc32UpdateMatchesReferenceAcrossLevels) {
  const auto data_all = fuzz_bytes(kBufLen, 41);
  for (const auto level : supported_levels()) {
    const auto& k = simd::kernels_for(level);
    for (const std::size_t n : kLengths) {
      for (const std::size_t off : kOffsets) {
        const std::uint8_t* p = data_all.data() + off;
        const std::uint32_t got = k.crc32_update(0xFFFFFFFFu, p, n);
        const std::uint32_t want = crc_ref_update(0xFFFFFFFFu, p, n);
        ASSERT_EQ(got, want) << simd::level_name(level) << " crc n=" << n
                             << " off=" << off;
        // Split-state equivalence: resuming mid-buffer must match one shot,
        // also from a cut inside the VPCLMULQDQ 256-byte loop.
        for (const std::size_t cut : {n / 3, std::min<std::size_t>(n, 300)}) {
          const std::uint32_t split =
              k.crc32_update(k.crc32_update(0xFFFFFFFFu, p, cut), p + cut, n - cut);
          ASSERT_EQ(split, want) << simd::level_name(level) << " n=" << n
                                 << " off=" << off << " cut=" << cut;
        }
      }
    }
  }
}

TEST(SimdKernels, Crc32CopyUpdateCopiesAndChecksumsAcrossLevels) {
  const auto data_all = fuzz_bytes(kBufLen, 53);
  for (const auto level : supported_levels()) {
    const auto& k = simd::kernels_for(level);
    for (const std::size_t n : kLengths) {
      for (const std::size_t off : kOffsets) {
        const std::uint8_t* src = data_all.data() + off;
        std::vector<std::uint8_t> dst(n + 1, 0xEE);  // +1 canary
        const std::uint32_t got = k.crc32_copy_update(0xFFFFFFFFu, dst.data(), src, n);
        ASSERT_EQ(got, crc_ref_update(0xFFFFFFFFu, src, n))
            << simd::level_name(level) << " n=" << n << " off=" << off;
        ASSERT_EQ(std::memcmp(dst.data(), src, n), 0);
        ASSERT_EQ(dst[n], 0xEE) << "copy overran the destination";
      }
    }
  }
}

TEST(SimdKernels, Crc32KernelsStayInsideExactlySizedBuffers) {
  // Each source and destination is its own heap allocation of exactly n
  // bytes, so a load or store past the end (a whole-vector tail) lands in
  // the allocator's redzone under the asan preset; the sweeps above slice
  // one larger buffer, where an overread goes unnoticed.
  for (const std::size_t n : kLengths) {
    const auto src = fuzz_bytes(n, 107 + n);
    const std::uint32_t want = crc_ref_update(0xFFFFFFFFu, src.data(), n);
    for (const auto level : supported_levels()) {
      const auto& k = simd::kernels_for(level);
      ASSERT_EQ(k.crc32_update(0xFFFFFFFFu, src.data(), n), want)
          << simd::level_name(level) << " n=" << n;
      std::vector<std::uint8_t> dst(n);
      ASSERT_EQ(k.crc32_copy_update(0xFFFFFFFFu, dst.data(), src.data(), n), want)
          << simd::level_name(level) << " n=" << n;
      ASSERT_EQ(dst, src) << simd::level_name(level) << " n=" << n;
    }
  }
}

TEST(SimdKernels, PublicCrcApiAgreesWithActiveKernels) {
  const auto data = fuzz_bytes(9001, 61);
  const std::uint32_t whole = crc32(data);
  EXPECT_EQ(whole, crc_ref_update(0xFFFFFFFFu, data.data(), data.size()) ^ 0xFFFFFFFFu);

  // Incremental + fused public wrappers.
  std::uint32_t st = crc32_init();
  std::vector<std::uint8_t> copy(data.size());
  st = crc32_copy_update(st, copy, data);
  EXPECT_EQ(crc32_final(st), whole);
  EXPECT_EQ(copy, data);

  // Combine: per-piece CRCs stitched into the whole-file CRC.
  const std::size_t cut = 2718;
  const std::uint32_t a =
      crc32(std::span<const std::uint8_t>(data.data(), cut));
  const std::uint32_t b =
      crc32(std::span<const std::uint8_t>(data.data() + cut, data.size() - cut));
  EXPECT_EQ(crc32_combine(a, b, data.size() - cut), whole);
  EXPECT_EQ(crc32_combine_op(a, b, crc32_combine_gen(data.size() - cut)), whole);
  EXPECT_EQ(crc32_combine(a, b, 0), a ^ b);

  // Random split points, each against the one-shot CRC.
  std::uint64_t x = 0x2545F4914F6CDD1Dull;
  for (int rep = 0; rep < 300; ++rep) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::size_t at = x % (data.size() + 1);
    const std::span<const std::uint8_t> all(data);
    ASSERT_EQ(crc32_combine(crc32(all.first(at)), crc32(all.subspan(at)), data.size() - at),
              whole)
        << "split at " << at;
  }
}

TEST(SimdKernels, Crc32CombineAcrossLengthScales) {
  // The appended piece's length walks every scale of the x^(2^j) table:
  // empty, one byte, just past 1 MiB, and 64 MiB.
  const auto head = fuzz_bytes(1000, 101);
  for (const std::size_t len_b :
       {std::size_t{0}, std::size_t{1}, (std::size_t{1} << 20) + 3, std::size_t{64} << 20}) {
    std::vector<std::uint8_t> all = head;
    const auto tail = fuzz_bytes(len_b, 103 + len_b);
    all.insert(all.end(), tail.begin(), tail.end());
    const std::uint32_t crc_b = crc32(tail);
    EXPECT_EQ(crc32_combine(crc32(head), crc_b, len_b), crc32(all)) << "len_b=" << len_b;
  }
}

}  // namespace
}  // namespace spcache
