#include "edgepcc/morton/morton.h"

#include "edgepcc/platform/simd.h"

#if EDGEPCC_SIMD_X86
#include <immintrin.h>
#endif

namespace edgepcc {

std::uint64_t
mortonExpandBits(std::uint32_t v)
{
    // Classic bit-spreading sequence for 21-bit inputs
    // (Baert, "Morton encoding/decoding through bit interleaving").
    std::uint64_t x = v & 0x1fffffULL;
    x = (x | (x << 32)) & 0x1f00000000ffffULL;
    x = (x | (x << 16)) & 0x1f0000ff0000ffULL;
    x = (x | (x << 8)) & 0x100f00f00f00f00fULL;
    x = (x | (x << 4)) & 0x10c30c30c30c30c3ULL;
    x = (x | (x << 2)) & 0x1249249249249249ULL;
    return x;
}

std::uint32_t
mortonCompactBits(std::uint64_t v)
{
    std::uint64_t x = v & 0x1249249249249249ULL;
    x = (x ^ (x >> 2)) & 0x10c30c30c30c30c3ULL;
    x = (x ^ (x >> 4)) & 0x100f00f00f00f00fULL;
    x = (x ^ (x >> 8)) & 0x1f0000ff0000ffULL;
    x = (x ^ (x >> 16)) & 0x1f00000000ffffULL;
    x = (x ^ (x >> 32)) & 0x1fffffULL;
    return static_cast<std::uint32_t>(x);
}

int
mortonCommonLevel(std::uint64_t a, std::uint64_t b, int depth)
{
    for (int level = 0; level < depth; ++level) {
        const int shift = 3 * (depth - 1 - level);
        if ((a >> shift) != (b >> shift))
            return level;
    }
    return depth;
}

namespace {

void
mortonEncodeBatchScalar(const std::uint16_t *x,
                        const std::uint16_t *y,
                        const std::uint16_t *z, std::size_t n,
                        std::uint64_t *codes)
{
    for (std::size_t i = 0; i < n; ++i)
        codes[i] = mortonEncode(x[i], y[i], z[i]);
}

void
mortonDecodeBatchScalar(const std::uint64_t *codes, std::size_t n,
                        std::uint32_t *x, std::uint32_t *y,
                        std::uint32_t *z)
{
    for (std::size_t i = 0; i < n; ++i) {
        const MortonXyz xyz = mortonDecode(codes[i]);
        x[i] = xyz.x;
        y[i] = xyz.y;
        z[i] = xyz.z;
    }
}

#if EDGEPCC_SIMD_X86

// The same spread/compact mask sequence as the scalar path, run on
// four 64-bit lanes at once. u16 inputs are already below 2^21, so
// the initial 21-bit clamp is a no-op and is skipped; every other
// step is the exact scalar computation per lane, keeping the batch
// byte-identical to the reference.

__attribute__((target("avx2"))) inline __m256i
expandBitsAvx2(__m256i v)
{
    v = _mm256_and_si256(
        _mm256_or_si256(v, _mm256_slli_epi64(v, 32)),
        _mm256_set1_epi64x(0x1f00000000ffffLL));
    v = _mm256_and_si256(
        _mm256_or_si256(v, _mm256_slli_epi64(v, 16)),
        _mm256_set1_epi64x(0x1f0000ff0000ffLL));
    v = _mm256_and_si256(
        _mm256_or_si256(v, _mm256_slli_epi64(v, 8)),
        _mm256_set1_epi64x(0x100f00f00f00f00fLL));
    v = _mm256_and_si256(
        _mm256_or_si256(v, _mm256_slli_epi64(v, 4)),
        _mm256_set1_epi64x(0x10c30c30c30c30c3LL));
    v = _mm256_and_si256(
        _mm256_or_si256(v, _mm256_slli_epi64(v, 2)),
        _mm256_set1_epi64x(0x1249249249249249LL));
    return v;
}

__attribute__((target("avx2"))) inline __m256i
compactBitsAvx2(__m256i v)
{
    v = _mm256_and_si256(
        v, _mm256_set1_epi64x(0x1249249249249249LL));
    v = _mm256_and_si256(
        _mm256_xor_si256(v, _mm256_srli_epi64(v, 2)),
        _mm256_set1_epi64x(0x10c30c30c30c30c3LL));
    v = _mm256_and_si256(
        _mm256_xor_si256(v, _mm256_srli_epi64(v, 4)),
        _mm256_set1_epi64x(0x100f00f00f00f00fLL));
    v = _mm256_and_si256(
        _mm256_xor_si256(v, _mm256_srli_epi64(v, 8)),
        _mm256_set1_epi64x(0x1f0000ff0000ffLL));
    v = _mm256_and_si256(
        _mm256_xor_si256(v, _mm256_srli_epi64(v, 16)),
        _mm256_set1_epi64x(0x1f00000000ffffLL));
    v = _mm256_and_si256(
        _mm256_xor_si256(v, _mm256_srli_epi64(v, 32)),
        _mm256_set1_epi64x(0x1fffffLL));
    return v;
}

__attribute__((target("avx2"))) inline __m256i
loadFourU16Avx2(const std::uint16_t *p)
{
    return _mm256_cvtepu16_epi64(_mm_loadl_epi64(
        reinterpret_cast<const __m128i *>(p)));
}

__attribute__((target("avx2"))) void
mortonEncodeBatchAvx2(const std::uint16_t *x,
                      const std::uint16_t *y,
                      const std::uint16_t *z, std::size_t n,
                      std::uint64_t *codes)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i ex = expandBitsAvx2(loadFourU16Avx2(x + i));
        const __m256i ey = expandBitsAvx2(loadFourU16Avx2(y + i));
        const __m256i ez = expandBitsAvx2(loadFourU16Avx2(z + i));
        const __m256i code = _mm256_or_si256(
            ex, _mm256_or_si256(_mm256_slli_epi64(ey, 1),
                                _mm256_slli_epi64(ez, 2)));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(codes + i), code);
    }
    mortonEncodeBatchScalar(x + i, y + i, z + i, n - i, codes + i);
}

__attribute__((target("avx2"))) void
mortonDecodeBatchAvx2(const std::uint64_t *codes, std::size_t n,
                      std::uint32_t *x, std::uint32_t *y,
                      std::uint32_t *z)
{
    std::size_t i = 0;
    alignas(32) std::uint64_t lane[4];
    for (; i + 4 <= n; i += 4) {
        const __m256i code = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(codes + i));
        const __m256i cx = compactBitsAvx2(code);
        const __m256i cy =
            compactBitsAvx2(_mm256_srli_epi64(code, 1));
        const __m256i cz =
            compactBitsAvx2(_mm256_srli_epi64(code, 2));
        _mm256_store_si256(reinterpret_cast<__m256i *>(lane), cx);
        for (int k = 0; k < 4; ++k)
            x[i + static_cast<std::size_t>(k)] =
                static_cast<std::uint32_t>(lane[k]);
        _mm256_store_si256(reinterpret_cast<__m256i *>(lane), cy);
        for (int k = 0; k < 4; ++k)
            y[i + static_cast<std::size_t>(k)] =
                static_cast<std::uint32_t>(lane[k]);
        _mm256_store_si256(reinterpret_cast<__m256i *>(lane), cz);
        for (int k = 0; k < 4; ++k)
            z[i + static_cast<std::size_t>(k)] =
                static_cast<std::uint32_t>(lane[k]);
    }
    mortonDecodeBatchScalar(codes + i, n - i, x + i, y + i, z + i);
}

#endif  // EDGEPCC_SIMD_X86

}  // namespace

void
mortonEncodeBatch(const std::uint16_t *x, const std::uint16_t *y,
                  const std::uint16_t *z, std::size_t n,
                  std::uint64_t *codes)
{
#if EDGEPCC_SIMD_X86
    if (activeSimdLevel() >= SimdLevel::kAvx2) {
        mortonEncodeBatchAvx2(x, y, z, n, codes);
        return;
    }
#endif
    mortonEncodeBatchScalar(x, y, z, n, codes);
}

void
mortonDecodeBatch(const std::uint64_t *codes, std::size_t n,
                  std::uint32_t *x, std::uint32_t *y,
                  std::uint32_t *z)
{
#if EDGEPCC_SIMD_X86
    if (activeSimdLevel() >= SimdLevel::kAvx2) {
        mortonDecodeBatchAvx2(codes, n, x, y, z);
        return;
    }
#endif
    mortonDecodeBatchScalar(codes, n, x, y, z);
}

}  // namespace edgepcc
