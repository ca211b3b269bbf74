#include "simd/simd.h"

#include <atomic>
#include <cstdlib>
#include <string_view>

#include "simd/kernels_impl.h"

namespace spcache::simd {

namespace {

struct Registry {
  Kernels tables[4];
  Level detected = Level::kScalar;

  Registry() {
    const Kernels scalar{
        Level::kScalar,
        &detail::gf256_mul_scalar,
        &detail::gf256_mul_add_scalar,
        &detail::gf256_mul_add2_scalar,
        &detail::gf256_dot_scalar,
        &detail::crc32_update_scalar,
        &detail::crc32_copy_update_scalar,
    };
    tables[0] = scalar;
    tables[1] = scalar;
    tables[2] = scalar;
    tables[3] = scalar;
#if defined(SPCACHE_SIMD_X86)
    const bool has_ssse3 = __builtin_cpu_supports("ssse3");
    const bool has_avx2 = __builtin_cpu_supports("avx2");
    // VGF2P8MULB on zmm registers, with AVX512BW byte masks for the tails.
    const bool has_avx512 = __builtin_cpu_supports("avx512f") &&
                            __builtin_cpu_supports("avx512bw") &&
                            __builtin_cpu_supports("gfni");
    // PCLMUL folding needs SSE4.1 for the final extract; it rides along at
    // the ssse3 tier and above (SPCACHE_SIMD=scalar forces the table CRC).
    const bool has_pclmul =
        __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
    if (has_ssse3) {
      tables[1].level = Level::kSsse3;
      tables[1].gf256_mul = &detail::gf256_mul_ssse3;
      tables[1].gf256_mul_add = &detail::gf256_mul_add_ssse3;
      tables[1].gf256_mul_add2 = &detail::gf256_mul_add2_ssse3;
      tables[1].gf256_dot = &detail::gf256_dot_ssse3;
      if (has_pclmul) {
        tables[1].crc32_update = &detail::crc32_update_pclmul;
        tables[1].crc32_copy_update = &detail::crc32_copy_update_pclmul;
      }
      detected = Level::kSsse3;
    }
    if (has_ssse3 && has_avx2) {
      tables[2] = tables[1];
      tables[2].level = Level::kAvx2;
      tables[2].gf256_mul = &detail::gf256_mul_avx2;
      tables[2].gf256_mul_add = &detail::gf256_mul_add_avx2;
      tables[2].gf256_mul_add2 = &detail::gf256_mul_add2_avx2;
      tables[2].gf256_dot = &detail::gf256_dot_avx2;
      detected = Level::kAvx2;
    } else {
      tables[2] = tables[1];
    }
    tables[3] = tables[2];
    if (detected == Level::kAvx2 && has_avx512) {
      tables[3].level = Level::kAvx512;
      tables[3].gf256_mul = &detail::gf256_mul_avx512;
      tables[3].gf256_mul_add = &detail::gf256_mul_add_avx512;
      tables[3].gf256_dot = &detail::gf256_dot_avx512;
      // 512-bit CRC folding; without VPCLMULQDQ the tier keeps the PCLMUL
      // entries inherited from avx2. Its TU is built with -mavx512vl, so
      // that is checked too (every VPCLMULQDQ CPU with AVX-512 has it).
      if (has_pclmul && __builtin_cpu_supports("vpclmulqdq") &&
          __builtin_cpu_supports("avx512vl")) {
        tables[3].crc32_update = &detail::crc32_update_vpclmul;
        tables[3].crc32_copy_update = &detail::crc32_copy_update_vpclmul;
      }
      detected = Level::kAvx512;
    }
#endif
  }
};

const Registry& registry() {
  static const Registry r;
  return r;
}

Level clamp_to_detected(Level level) {
  const Level det = registry().detected;
  return static_cast<int>(level) < static_cast<int>(det) ? level : det;
}

Level env_level() {
  const Level det = registry().detected;
  const char* e = std::getenv("SPCACHE_SIMD");
  if (e == nullptr) return det;
  const std::string_view v(e);
  if (v == "scalar") return Level::kScalar;
  if (v == "ssse3") return clamp_to_detected(Level::kSsse3);
  if (v == "avx2") return clamp_to_detected(Level::kAvx2);
  if (v == "avx512") return clamp_to_detected(Level::kAvx512);
  return det;  // unknown value: keep the detected level
}

std::atomic<const Kernels*>& active_slot() {
  static std::atomic<const Kernels*> slot{
      &registry().tables[static_cast<int>(env_level())]};
  return slot;
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kSsse3: return "ssse3";
    case Level::kAvx2: return "avx2";
    case Level::kAvx512: return "avx512";
  }
  return "unknown";
}

Level detected_level() { return registry().detected; }

bool level_supported(Level level) {
  return static_cast<int>(level) <= static_cast<int>(registry().detected);
}

Level active_level() { return kernels().level; }

void force_level(Level level) {
  active_slot().store(&kernels_for(level), std::memory_order_release);
}

const Kernels& kernels() {
  return *active_slot().load(std::memory_order_acquire);
}

const Kernels& kernels_for(Level level) {
  return registry().tables[static_cast<int>(clamp_to_detected(level))];
}

}  // namespace spcache::simd
