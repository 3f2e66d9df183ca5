/**
 * @file
 * Radix sort for 64-bit keys with a 32-bit payload.
 *
 * This is the host-side equivalent of the GPU radix sort the paper
 * uses to order points by Morton code. One MSD counting pass splits
 * the keys into cache-sized buckets by their top used bits, then an
 * LSD sort in 8-bit digits orders each bucket's low bits; the
 * payload is typically the original point index.
 */

#ifndef EDGEPCC_PARALLEL_RADIX_SORT_H
#define EDGEPCC_PARALLEL_RADIX_SORT_H

#include <cstddef>
#include <cstdint>

namespace edgepcc {

/**
 * Stable radix sort of parallel SoA arrays: `keys[i]` travels with
 * `values[i]`, and equal keys keep their input order. The Morton
 * order stage sorts codes and the permutation directly.
 *
 * One OR-reduce finds the key bits in use. Below 512 keys the whole
 * array is one bucket; above, one stable MSD counting pass scatters
 * the keys into buckets by their top t used bits, t = min(8,
 * bit_width(n / 512)), so a bucket holds about 512 uniform keys. The
 * bucket index is the key window from the top used bit down to the
 * t-th (at most 12 bits wide): bits no key uses may fall inside it,
 * and only leave buckets empty. Each bucket's low bits are then
 * sorted by a stable 8-bit LSD pass per digit while the bucket sits
 * in L1/L2: its histograms come from one sweep over its keys, and a
 * digit every key of the bucket shares skips its pass. The
 * permutation is the one a plain stable LSD sort gives. Scratch
 * comes from the bound FrameArena (platform/arena.h) when one is
 * active — zero heap traffic in steady state — falling back to heap
 * vectors otherwise.
 *
 * @param keys     n 64-bit keys, sorted ascending in place.
 * @param values   n 32-bit payloads, permuted alongside the keys.
 * @param n        element count.
 * @param key_bits significant low key bits, in [1, 64]; the order
 *                 ignores bits above them, which travel unchanged.
 */
void radixSortKeysValues(std::uint64_t *keys,
                         std::uint32_t *values, std::size_t n,
                         int key_bits = 64);

}  // namespace edgepcc

#endif  // EDGEPCC_PARALLEL_RADIX_SORT_H
