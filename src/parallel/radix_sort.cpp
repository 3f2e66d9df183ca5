#include "edgepcc/parallel/radix_sort.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <utility>
#include <vector>

#include "edgepcc/platform/arena.h"

namespace edgepcc {

namespace {

constexpr int kDigitBits = 8;
constexpr int kDigits = 1 << kDigitBits;
constexpr int kMaxPasses = 64 / kDigitBits;

/** Keys per MSD bucket the partition aims at: a bucket's keys,
 *  payloads and their ping-pong copies (12 KB at 512) stay in L1
 *  while its LSD passes run. */
constexpr std::size_t kBucketKeys = 512;
/** Up to one digit's worth of used key bits picks the bucket, in a
 *  window of at most 12 key bits (a 32-KB histogram). */
constexpr int kMaxPartitionBits = kDigitBits;
constexpr int kMaxWindowBits = 12;

/** Keys with their payloads, as parallel arrays. */
struct Pairs {
    std::uint64_t *keys;
    std::uint32_t *values;

    Pairs
    operator+(std::size_t offset) const
    {
        return {keys + offset, values + offset};
    }
};

/**
 * One stable counting pass: the n pairs of `from` go to `to` in the
 * order of their digit (key >> shift) & mask, equal digits in input
 * order. `counts` holds the digit histogram (mask + 1 entries);
 * afterwards counts[d] is where digit d's run ends.
 */
void
scatterByDigit(Pairs from, Pairs to, std::size_t n, int shift,
               std::uint64_t mask, std::size_t *counts)
{
    std::size_t start = 0;
    for (std::uint64_t d = 0; d <= mask; ++d) {
        const std::size_t count = counts[d];
        counts[d] = start;
        start += count;
    }
    // The scatter stays scalar: its in-order walk is what makes the
    // sort stable.
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t pos =
            counts[(from.keys[i] >> shift) & mask]++;
        to.keys[pos] = from.keys[i];
        to.values[pos] = from.values[i];
    }
}

/**
 * Stable LSD sort, in 8-bit digits, of the `n` pairs in `data` by
 * their low `bits` key bits (higher bits are ignored), ping-ponging
 * with `spare`. Histograms for every pass come from one sweep over
 * the keys, and a digit every key shares skips its pass. Returns
 * whichever of the two holds the result.
 */
Pairs
sortLowBits(Pairs data, Pairs spare, std::size_t n, int bits)
{
    if (n < 2)
        return data;
    const int passes = (bits + kDigitBits - 1) / kDigitBits;
    std::array<std::uint64_t, kMaxPasses> masks{};
    for (int pass = 0; pass < passes; ++pass) {
        const int width =
            std::min(kDigitBits, bits - pass * kDigitBits);
        masks[static_cast<std::size_t>(pass)] =
            (std::uint64_t{1} << width) - 1;
    }
    const auto digit = [&](std::uint64_t key, int pass) {
        return static_cast<std::size_t>(
            (key >> (pass * kDigitBits)) &
            masks[static_cast<std::size_t>(pass)]);
    };

    std::array<std::size_t,
               static_cast<std::size_t>(kMaxPasses) * kDigits>
        counts;
    std::fill_n(counts.begin(),
                static_cast<std::size_t>(passes) * kDigits, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t key = data.keys[i];
        for (int pass = 0; pass < passes; ++pass) {
            ++counts[static_cast<std::size_t>(pass) * kDigits +
                     digit(key, pass)];
        }
    }

    for (int pass = 0; pass < passes; ++pass) {
        std::size_t *offsets =
            counts.data() + static_cast<std::size_t>(pass) * kDigits;
        // Digit uniformity is order-independent, so the pre-sweep
        // histogram stays valid across performed passes.
        if (*std::max_element(offsets, offsets + kDigits) == n)
            continue;
        scatterByDigit(data, spare, n, pass * kDigitBits,
                       masks[static_cast<std::size_t>(pass)], offsets);
        std::swap(data, spare);
    }
    return data;
}

}  // namespace

void
radixSortKeysValues(std::uint64_t *keys, std::uint32_t *values,
                    std::size_t n, int key_bits)
{
    assert(key_bits >= 1 && key_bits <= 64);
    if (n < 2)
        return;

    // The bits the keys actually use, below key_bits.
    std::uint64_t used = 0;
    for (std::size_t i = 0; i < n; ++i)
        used |= keys[i];
    if (key_bits < 64)
        used &= (std::uint64_t{1} << key_bits) - 1;
    // The partition window runs from the top used bit down to the
    // t-th used bit, t = min(8, bit_width(n / kBucketKeys)); below
    // kBucketKeys keys it is empty and there is one bucket. Bits no
    // key uses may fall inside it: they only leave buckets empty.
    const int used_bits = static_cast<int>(std::bit_width(used));
    const int partition_bits =
        std::min(kMaxPartitionBits,
                 static_cast<int>(std::bit_width(n / kBucketKeys)));
    int low_bits = used_bits;
    for (int taken = 0; taken < partition_bits && low_bits > 0 &&
                        used_bits - low_bits < kMaxWindowBits;) {
        --low_bits;
        taken += static_cast<int>((used >> low_bits) & 1);
    }
    const int window_bits = used_bits - low_bits;

    FrameArena *arena = currentFrameArena();
    std::vector<std::uint64_t> key_heap;
    std::vector<std::uint32_t> val_heap;
    const Pairs home{keys, values};
    const Pairs spare{scratchArray(arena, key_heap, n),
                      scratchArray(arena, val_heap, n)};

    // One stable MSD counting pass scatters the pairs into their
    // buckets in `spare`, by the window bits of their key; bucket b
    // then ends at bounds[b] and starts where bucket b - 1 ends.
    const std::size_t buckets = std::size_t{1} << window_bits;
    std::array<std::size_t, std::size_t{1} << kMaxWindowBits> bounds;
    bounds[0] = n;
    Pairs data = home;
    if (window_bits > 0) {
        const std::uint64_t window = buckets - 1;
        std::fill_n(bounds.begin(), buckets, 0);
        for (std::size_t i = 0; i < n; ++i)
            ++bounds[(keys[i] >> low_bits) & window];
        scatterByDigit(home, spare, n, low_bits, window, bounds.data());
        data = spare;
    }
    const Pairs other = data.keys == keys ? spare : home;

    // Each bucket's low bits, sorted while the bucket is cache
    // resident; a bucket that ends in the scratch is copied home.
    std::size_t lo = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
        const std::size_t count = bounds[b] - lo;
        const Pairs sorted =
            sortLowBits(data + lo, other + lo, count, low_bits);
        if (sorted.keys != keys + lo) {
            std::copy_n(sorted.keys, count, keys + lo);
            std::copy_n(sorted.values, count, values + lo);
        }
        lo = bounds[b];
    }
}

}  // namespace edgepcc
