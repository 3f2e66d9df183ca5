/**
 * @file
 * Runtime ISA selection for edgepcc/platform/simd.h.
 *
 * Lives in edgepcc::common (not src/platform/) so the CRC32C kernel
 * in this module can dispatch without creating a platform <-> common
 * library cycle; see the header comment for the full contract.
 */

#include "edgepcc/platform/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "edgepcc/common/gf256.h"

#if EDGEPCC_SIMD_X86
#include <immintrin.h>
#endif

namespace edgepcc {

namespace {

/** -1 = no test override; otherwise a SimdLevel value. */
std::atomic<int> g_test_override{-1};

SimdLevel
computeDetectedLevel()
{
#if EDGEPCC_SIMD_X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        return SimdLevel::kAvx2;
    if (__builtin_cpu_supports("sse4.2"))
        return SimdLevel::kSse4;
#endif
    return SimdLevel::kScalar;
}

/** Startup selection: detected level clamped by EDGEPCC_SIMD. */
SimdLevel
computeStartupLevel()
{
    SimdLevel level = detectSimdLevel();
    if (const char *env = std::getenv("EDGEPCC_SIMD")) {
        SimdLevel requested = SimdLevel::kScalar;
        if (simdLevelFromName(env, &requested) && requested < level)
            level = requested;
    }
    return level;
}

}  // namespace

const char *
simdLevelName(SimdLevel level)
{
    switch (level) {
      case SimdLevel::kSse4:
        return "sse4";
      case SimdLevel::kAvx2:
        return "avx2";
      case SimdLevel::kScalar:
      default:
        return "scalar";
    }
}

bool
simdLevelFromName(const char *name, SimdLevel *out)
{
    if (name == nullptr || out == nullptr)
        return false;
    if (std::strcmp(name, "scalar") == 0) {
        *out = SimdLevel::kScalar;
        return true;
    }
    if (std::strcmp(name, "sse4") == 0) {
        *out = SimdLevel::kSse4;
        return true;
    }
    if (std::strcmp(name, "avx2") == 0) {
        *out = SimdLevel::kAvx2;
        return true;
    }
    return false;
}

SimdLevel
detectSimdLevel()
{
    static const SimdLevel detected = computeDetectedLevel();
    return detected;
}

SimdLevel
activeSimdLevel()
{
    const int forced =
        g_test_override.load(std::memory_order_relaxed);
    if (forced >= 0)
        return static_cast<SimdLevel>(forced);
    static const SimdLevel startup = computeStartupLevel();
    return startup;
}

SimdLevel
setSimdLevelForTesting(SimdLevel level)
{
    const SimdLevel detected = detectSimdLevel();
    if (level > detected)
        level = detected;
    g_test_override.store(static_cast<int>(level),
                          std::memory_order_relaxed);
    return level;
}

void
clearSimdLevelForTesting()
{
    g_test_override.store(-1, std::memory_order_relaxed);
}

namespace {

void
xorBytesScalar(std::uint8_t *dst, const std::uint8_t *src,
               std::size_t n)
{
    std::size_t i = 0;
    // Word-at-a-time scalar baseline; exact byte semantics.
    for (; i + 8 <= n; i += 8) {
        std::uint64_t a;
        std::uint64_t b;
        std::memcpy(&a, dst + i, 8);
        std::memcpy(&b, src + i, 8);
        a ^= b;
        std::memcpy(dst + i, &a, 8);
    }
    for (; i < n; ++i)
        dst[i] ^= src[i];
}

#if EDGEPCC_SIMD_X86

__attribute__((target("avx2"))) void
xorBytesAvx2(std::uint8_t *dst, const std::uint8_t *src,
             std::size_t n)
{
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + i));
        const __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                            _mm256_xor_si256(a, b));
    }
    xorBytesScalar(dst + i, src + i, n - i);
}

#endif  // EDGEPCC_SIMD_X86

/** dst[i] ^= src[i]: the GF(256) multiply-add with coefficient 1
 *  (XOR parity is Reed-Solomon row 0). */
void
xorBytes(std::uint8_t *dst, const std::uint8_t *src, std::size_t n)
{
#if EDGEPCC_SIMD_X86
    if (activeSimdLevel() >= SimdLevel::kAvx2) {
        xorBytesAvx2(dst, src, n);
        return;
    }
#endif
    xorBytesScalar(dst, src, n);
}

/**
 * 16-entry nibble product tables for one coefficient: for byte
 * b = hi<<4 | lo, coeff*b = lo_table[lo] ^ hi_table[hi] (GF
 * multiplication distributes over XOR). Built per kernel call —
 * 32 table multiplies against parity rows that are KBs long.
 */
struct GfNibbleTables {
    std::uint8_t lo[16];
    std::uint8_t hi[16];
};

GfNibbleTables
buildNibbleTables(std::uint8_t coeff)
{
    GfNibbleTables t;
    for (std::uint8_t v = 0; v < 16; ++v) {
        t.lo[v] = gfMul(coeff, v);
        t.hi[v] = gfMul(coeff, static_cast<std::uint8_t>(v << 4));
    }
    return t;
}

void
gfMulAddBytesScalar(std::uint8_t *dst, const std::uint8_t *src,
                    std::uint8_t coeff, std::size_t n)
{
    // The nibble decomposition (not a log/exp lookup per byte) is
    // the scalar reference so every dispatch level computes the
    // exact same table-derived products.
    const GfNibbleTables t = buildNibbleTables(coeff);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t b = src[i];
        dst[i] ^= t.lo[b & 0x0fu] ^ t.hi[b >> 4];
    }
}

#if EDGEPCC_SIMD_X86

__attribute__((target("avx2"))) void
gfMulAddBytesAvx2(std::uint8_t *dst, const std::uint8_t *src,
                  std::uint8_t coeff, std::size_t n)
{
    const GfNibbleTables t = buildNibbleTables(coeff);
    const __m256i lo_tbl = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(t.lo)));
    const __m256i hi_tbl = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(t.hi)));
    const __m256i nib = _mm256_set1_epi8(0x0f);
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i s = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        const __m256i d = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + i));
        const __m256i lo = _mm256_shuffle_epi8(
            lo_tbl, _mm256_and_si256(s, nib));
        const __m256i hi = _mm256_shuffle_epi8(
            hi_tbl,
            _mm256_and_si256(_mm256_srli_epi16(s, 4), nib));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(dst + i),
            _mm256_xor_si256(d, _mm256_xor_si256(lo, hi)));
    }
    gfMulAddBytesScalar(dst + i, src + i, coeff, n - i);
}

#endif  // EDGEPCC_SIMD_X86

}  // namespace

void
gfMulAddBytes(std::uint8_t *dst, const std::uint8_t *src,
              std::uint8_t coeff, std::size_t n)
{
    if (coeff == 0)
        return;
    if (coeff == 1) {
        xorBytes(dst, src, n);
        return;
    }
#if EDGEPCC_SIMD_X86
    if (activeSimdLevel() >= SimdLevel::kAvx2) {
        gfMulAddBytesAvx2(dst, src, coeff, n);
        return;
    }
#endif
    gfMulAddBytesScalar(dst, src, coeff, n);
}

}  // namespace edgepcc
