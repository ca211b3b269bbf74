// Runtime-dispatched SIMD kernels for the data plane.
//
// Everything that moves bytes in bulk — GF(256) multiply-accumulate for the
// Reed-Solomon codec, CRC-32 for block integrity, and the fused
// checksum-while-copying primitive — funnels through one kernel table here.
// The table is selected once at startup by CPUID (scalar / SSSE3 / AVX2 /
// AVX-512, with PCLMULQDQ-folded CRC where available) and can be clamped
// down for testing via the SPCACHE_SIMD environment variable
// (scalar|ssse3|avx2|avx512) or force_level(). The avx512 tier needs
// AVX512F, AVX512BW and GFNI. Its CRC entries fold 256 bytes per step with
// VPCLMULQDQ on zmm lanes when the CPU also has VPCLMULQDQ and AVX512VL,
// and are the PCLMUL ones otherwise; its gf256_mul_add2 is the AVX2 one
// (the RS encoder uses gf256_dot there).
//
// All kernels are bit-exact across levels: the SSSE3/AVX2 GF kernels use
// split-nibble PSHUFB table lookups over the same AES polynomial 0x11B as
// the scalar code, the AVX-512 tier's VGF2P8MULB reduces by that same
// polynomial in hardware, and the PCLMUL and VPCLMULQDQ CRCs fold the same
// reflected IEEE polynomial 0xEDB88320 (not the SSE4.2 crc32 instruction,
// which computes CRC-32C). The cross-ISA equivalence suite in tests/test_simd_kernels.cpp
// fuzzes every kernel pair across odd lengths and unaligned offsets.
#pragma once

#include <cstddef>
#include <cstdint>

namespace spcache::simd {

// Kernel tiers, ordered: a higher level implies every lower one works too.
enum class Level : int { kScalar = 0, kSsse3 = 1, kAvx2 = 2, kAvx512 = 3 };

const char* level_name(Level level);

// Highest level this CPU supports (detected once, cached).
Level detected_level();
bool level_supported(Level level);

// Level the process is actually running: detected_level() clamped by the
// SPCACHE_SIMD environment variable (scalar|ssse3|avx2|avx512) and by
// force_level().
Level active_level();

// Test hook: swap the active kernel table. Requests above detected_level()
// are clamped. Safe to call concurrently with kernel use (atomic pointer
// swap), but intended for test setup, not steady-state switching.
void force_level(Level level);

struct Kernels {
  Level level;

  // GF(256) slice ops over x^8 + x^4 + x^3 + x + 1 (0x11B).
  // dst and src must be the same length; they may alias only exactly
  // (dst == src), never partially overlap.
  //   gf256_mul:     dst[i]  = c * src[i]
  //   gf256_mul_add: dst[i] ^= c * src[i]
  void (*gf256_mul)(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                    std::uint8_t c);
  void (*gf256_mul_add)(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                        std::uint8_t c);

  // Fused two-source accumulate: dst[i] ^= c0*src0[i] ^ c1*src1[i].
  // One read-modify-write of dst covers two sources, which halves the
  // dst traffic of the RS parity inner loop (its bottleneck once the
  // shard chunks are cache-blocked). Same aliasing rules as gf256_mul_add
  // for each source independently. The RS encoder uses it below the avx512
  // tier, where it measured faster than gf256_dot.
  void (*gf256_mul_add2)(std::uint8_t* dst, const std::uint8_t* src0, std::uint8_t c0,
                         const std::uint8_t* src1, std::uint8_t c1, std::size_t n);

  // Dot product of k sources: dst[i] = sum_j c[j] * src[j][i], for any
  // k <= 256 (k == 0 zeroes dst). The vector tiers hold the sum in
  // registers, so dst is written once and never read: one pass computes an
  // RS parity or reconstructed data row. dst must not overlap any source.
  void (*gf256_dot)(std::uint8_t* dst, const std::uint8_t* const* src,
                    const std::uint8_t* c, std::size_t k, std::size_t n);

  // CRC-32 (reflected IEEE 0xEDB88320) on the *raw* state convention:
  // state starts at 0xFFFFFFFF and is xor-finalized by the caller
  // (common/crc32.h wraps this with the usual init/update/final API).
  std::uint32_t (*crc32_update)(std::uint32_t state, const std::uint8_t* p,
                                std::size_t n);

  // Fused copy+checksum: copies src into dst and returns the CRC state
  // advanced over those same bytes, touching each byte once. dst and src
  // must not overlap.
  std::uint32_t (*crc32_copy_update)(std::uint32_t state, std::uint8_t* dst,
                                     const std::uint8_t* src, std::size_t n);
};

// Active kernel table (one atomic load; hot-path safe).
const Kernels& kernels();

// Table for a specific level, clamped to detected_level(). Used by the
// equivalence tests to pit levels against each other in-process.
const Kernels& kernels_for(Level level);

}  // namespace spcache::simd
