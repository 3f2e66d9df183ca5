#include "edgepcc/common/retry.h"

#include <algorithm>

#include "edgepcc/common/rng.h"

namespace edgepcc {

double
RetryPolicy::jitterFor(int attempt) const
{
    return jitterFactor(jitter, seed, 0xbac0ffull,
                        static_cast<std::uint64_t>(attempt));
}

double
RetryPolicy::backoffFor(int attempt) const
{
    attempt = std::max(attempt, 1);
    // Iterative doubling keeps the values bit-identical to the
    // historical `initial * (1 << (attempt - 1))` NACK formula for
    // multiplier == 2 (no pow() rounding differences).
    double backoff = initial_backoff_s;
    for (int i = 1; i < attempt && backoff < max_backoff_s; ++i)
        backoff *= multiplier;
    backoff = std::min(backoff, max_backoff_s);
    return backoff * jitterFor(attempt);
}

double
RetryPolicy::totalBackoff(int attempts) const
{
    double total = 0.0;
    for (int attempt = 1; attempt <= attempts; ++attempt)
        total += backoffFor(attempt);
    return total;
}

}  // namespace edgepcc
