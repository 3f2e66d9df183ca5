/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All synthetic data (dataset generator, test fixtures, bench
 * workloads) must be reproducible across runs and platforms, so the
 * library ships its own small generators instead of relying on
 * implementation-defined std::default_random_engine behaviour.
 */

#ifndef EDGEPCC_COMMON_RNG_H
#define EDGEPCC_COMMON_RNG_H

#include <cstdint>

namespace edgepcc {

/**
 * SplitMix64: tiny, fast, well-distributed 64-bit generator.
 * Used both directly and to seed Xoshiro256**.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state_;
};

/**
 * Multiplicative jitter factor, uniform in [1 - jitter, 1 + jitter):
 * one SplitMix64 draw keyed by seed ^ (salt + index), so the factor
 * for an index does not depend on evaluation order. Callers pass
 * their own salt to keep their streams apart. jitter <= 0 gives 1.
 */
inline double
jitterFactor(double jitter, std::uint64_t seed, std::uint64_t salt,
             std::uint64_t index)
{
    if (jitter <= 0.0)
        return 1.0;
    const std::uint64_t draw = SplitMix64(seed ^ (salt + index)).next();
    // Map the top 53 bits onto [0, 1).
    const double unit = static_cast<double>(draw >> 11) * 0x1.0p-53;
    return 1.0 - jitter + 2.0 * jitter * unit;
}

/**
 * Xoshiro256** generator: the workhorse RNG for workload synthesis.
 *
 * Satisfies UniformRandomBitGenerator so it can be used with
 * <random> distributions when convenient.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL)
    {
        SplitMix64 sm(seed);
        for (auto &word : state_)
            word = sm.next();
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~std::uint64_t{0}; }

    result_type
    operator()()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, bound). bound must be > 0. */
    std::uint64_t
    bounded(std::uint64_t bound)
    {
        // Lemire's multiply-shift rejection-free variant is overkill
        // here; modulo bias is negligible for bound << 2^64.
        return (*this)() % bound;
    }

    /** Standard normal via Marsaglia polar method. */
    double gaussian();

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
    bool have_spare_ = false;
    double spare_ = 0.0;
};

}  // namespace edgepcc

#endif  // EDGEPCC_COMMON_RNG_H
