#include "edgepcc/parallel/radix_sort.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <utility>
#include <vector>

#include "edgepcc/platform/arena.h"

namespace edgepcc {

namespace {

constexpr int kDigitBits = 8;
constexpr int kBuckets = 1 << kDigitBits;
constexpr int kMaxPasses = 64 / kDigitBits;

}  // namespace

void
radixSortKeysValues(std::uint64_t *keys, std::uint32_t *values,
                    std::size_t n, int key_bits)
{
    assert(key_bits >= 1 && key_bits <= 64);
    if (n < 2)
        return;
    const int passes = (key_bits + kDigitBits - 1) / kDigitBits;

    // Scratch: arena-backed inside a frame, heap otherwise.
    FrameArena *arena = currentFrameArena();
    std::vector<std::uint64_t> key_heap;
    std::vector<std::uint32_t> val_heap;
    std::uint64_t *key_scratch = nullptr;
    std::uint32_t *val_scratch = nullptr;
    if (arena != nullptr) {
        key_scratch = arena->allocateArray<std::uint64_t>(n);
        val_scratch = arena->allocateArray<std::uint32_t>(n);
    } else {
        key_heap.resize(n);
        val_heap.resize(n);
        key_scratch = key_heap.data();
        val_scratch = val_heap.data();
    }

    // All pass histograms in a single sweep over the keys: the sort
    // is memory-bound, so reading every key once instead of once
    // per pass is the dominant win on wide keys.
    std::array<std::size_t,
               static_cast<std::size_t>(kMaxPasses) * kBuckets>
        counts{};
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t key = keys[i];
        for (int pass = 0; pass < passes; ++pass) {
            ++counts[static_cast<std::size_t>(pass) * kBuckets +
                     ((key >> (pass * kDigitBits)) &
                      (kBuckets - 1))];
        }
    }

    std::uint64_t *src_k = keys;
    std::uint32_t *src_v = values;
    std::uint64_t *dst_k = key_scratch;
    std::uint32_t *dst_v = val_scratch;
    for (int pass = 0; pass < passes; ++pass) {
        std::size_t *offsets =
            counts.data() +
            static_cast<std::size_t>(pass) * kBuckets;
        // Skip passes where every key shares the digit (digit
        // uniformity is order-independent, so the pre-sweep
        // histogram stays valid across performed passes).
        if (*std::max_element(offsets, offsets + kBuckets) == n)
            continue;
        std::size_t offset = 0;
        for (int bucket = 0; bucket < kBuckets; ++bucket) {
            const std::size_t count = offsets[bucket];
            offsets[bucket] = offset;
            offset += count;
        }
        // The scatter stays scalar: it is bound by memory traffic,
        // and its in-order walk is what makes the sort stable.
        const int shift = pass * kDigitBits;
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t pos =
                offsets[(src_k[i] >> shift) & (kBuckets - 1)]++;
            dst_k[pos] = src_k[i];
            dst_v[pos] = src_v[i];
        }
        std::swap(src_k, dst_k);
        std::swap(src_v, dst_v);
    }
    // Ping-pong may end in the scratch arrays; the caller owns
    // `keys`/`values`, so move the result home.
    if (src_k != keys) {
        std::copy(src_k, src_k + n, keys);
        std::copy(src_v, src_v + n, values);
    }
}

}  // namespace edgepcc
