/**
 * @file
 * LSD radix sort for 64-bit keys with a 32-bit payload.
 *
 * This is the host-side equivalent of the GPU radix sort the paper
 * uses to order points by Morton code. Keys up to `key_bits` wide are
 * sorted in 8-bit digits; the payload is typically the original point
 * index.
 */

#ifndef EDGEPCC_PARALLEL_RADIX_SORT_H
#define EDGEPCC_PARALLEL_RADIX_SORT_H

#include <cstddef>
#include <cstdint>

namespace edgepcc {

/**
 * Stable LSD radix sort of parallel SoA arrays: `keys[i]` travels
 * with `values[i]`, and equal keys keep their input order. The
 * Morton order stage sorts codes and the permutation directly;
 * histograms for every pass are built in one sweep over the keys,
 * and scratch comes from the bound FrameArena (platform/arena.h)
 * when one is active — zero heap traffic in steady state — falling
 * back to heap vectors otherwise.
 *
 * @param keys     n 64-bit keys, sorted ascending in place.
 * @param values   n 32-bit payloads, permuted alongside the keys.
 * @param n        element count.
 * @param key_bits significant low key bits, in [1, 64]; digits
 *                 wholly above them are skipped.
 */
void radixSortKeysValues(std::uint64_t *keys,
                         std::uint32_t *values, std::size_t n,
                         int key_bits = 64);

}  // namespace edgepcc

#endif  // EDGEPCC_PARALLEL_RADIX_SORT_H
