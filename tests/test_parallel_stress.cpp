/**
 * @file
 * Concurrency stress tests for the thread pool and the parallel
 * primitives. These are race detectors' food: run them under the
 * tsan preset. Every test constructs its own multi-worker pool so
 * the stress is real even on single-core hosts, where the global
 * pool has zero workers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "edgepcc/common/rng.h"
#include "edgepcc/parallel/parallel_for.h"
#include "edgepcc/parallel/radix_sort.h"
#include "edgepcc/parallel/thread_pool.h"

namespace edgepcc {
namespace {

TEST(ParallelStress, ConcurrentParallelForOnSharedPool)
{
    ThreadPool pool(4);
    constexpr std::size_t kCallers = 4;
    constexpr std::size_t kN = 20000;
    std::vector<std::vector<std::atomic<int>>> hits(kCallers);
    for (auto &caller_hits : hits)
        caller_hits = std::vector<std::atomic<int>>(kN);

    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (std::size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&pool, &hits, c] {
            for (int round = 0; round < 8; ++round)
                parallelFor(
                    0, hits[c].size(),
                    [&hits, c](std::size_t i) {
                        hits[c][i].fetch_add(
                            1, std::memory_order_relaxed);
                    },
                    pool, 512);
        });
    }
    for (auto &caller : callers)
        caller.join();

    for (std::size_t c = 0; c < kCallers; ++c)
        for (std::size_t i = 0; i < kN; ++i)
            ASSERT_EQ(hits[c][i].load(), 8) << c << ":" << i;
}

TEST(ParallelStress, NestedParallelForDoesNotDeadlock)
{
    ThreadPool pool(3);
    constexpr std::size_t kOuter = 64;
    constexpr std::size_t kInner = 256;
    std::vector<std::atomic<int>> hits(kOuter * kInner);

    parallelFor(
        0, kOuter,
        [&pool, &hits](std::size_t outer) {
            parallelFor(
                0, kInner,
                [&hits, outer](std::size_t inner) {
                    hits[outer * kInner + inner].fetch_add(
                        1, std::memory_order_relaxed);
                },
                pool, 32);
        },
        pool, 1);

    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelStress, SubmitAndWaitFromManyThreads)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 4; ++p) {
        producers.emplace_back([&pool, &counter] {
            TaskGroup group(pool);
            for (int i = 0; i < 200; ++i)
                group.run([&counter] {
                    counter.fetch_add(1,
                                      std::memory_order_relaxed);
                });
            group.wait();
        });
    }
    for (auto &producer : producers)
        producer.join();
    EXPECT_EQ(counter.load(), 800);
}

TEST(ParallelStress, PoolChurnWithPendingTasks)
{
    // Construct/destroy pools while tasks are still queued; the
    // destructor must run or discard them without racing the
    // workers. The counter outlives every pool.
    auto counter = std::make_shared<std::atomic<int>>(0);
    for (int round = 0; round < 20; ++round) {
        ThreadPool pool(3);
        for (int i = 0; i < 64; ++i)
            pool.submit([counter] {
                counter->fetch_add(1,
                                   std::memory_order_relaxed);
            });
        // No wait(): destruction races against execution on
        // purpose. Tasks hold shared ownership of the counter.
    }
    EXPECT_GE(counter->load(), 0);
}

TEST(ParallelStress, RadixSortFromManyThreads)
{
    std::vector<std::thread> sorters;
    std::atomic<bool> all_sorted{true};
    for (unsigned t = 0; t < 4; ++t) {
        sorters.emplace_back([t, &all_sorted] {
            Rng rng(900 + t);
            std::vector<KeyIndex> pairs(50000);
            for (std::uint32_t i = 0; i < pairs.size(); ++i)
                pairs[i] = {rng(), i};
            radixSortPairs(pairs, 64);
            for (std::size_t i = 1; i < pairs.size(); ++i)
                if (pairs[i - 1].key > pairs[i].key)
                    all_sorted.store(false);
        });
    }
    for (auto &sorter : sorters)
        sorter.join();
    EXPECT_TRUE(all_sorted.load());
}

TEST(ParallelStress, ParallelForChunksConcurrent)
{
    ThreadPool pool(4);
    constexpr std::size_t kN = 30000;
    std::vector<std::thread> callers;
    std::array<std::atomic<std::uint64_t>, 3> sums{};
    for (std::size_t c = 0; c < sums.size(); ++c) {
        callers.emplace_back([&pool, &sums, c] {
            parallelForChunks(
                0, kN,
                [&sums, c](std::size_t lo, std::size_t hi) {
                    std::uint64_t local = 0;
                    for (std::size_t i = lo; i < hi; ++i)
                        local += i;
                    sums[c].fetch_add(
                        local, std::memory_order_relaxed);
                },
                pool, 256);
        });
    }
    for (auto &caller : callers)
        caller.join();
    const std::uint64_t expected =
        std::uint64_t{kN} * (kN - 1) / 2;
    for (const auto &sum : sums)
        EXPECT_EQ(sum.load(), expected);
}

}  // namespace
}  // namespace edgepcc
