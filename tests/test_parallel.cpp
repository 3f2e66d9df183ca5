/**
 * @file
 * Tests for the thread pool, TaskGroup, the parallel primitives
 * (including exceptions thrown across the pool) and the radix sort.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "edgepcc/common/rng.h"
#include "edgepcc/parallel/parallel_for.h"
#include "edgepcc/parallel/radix_sort.h"
#include "edgepcc/parallel/thread_pool.h"

namespace edgepcc {
namespace {

TEST(ThreadPool, InlineExecutionWithZeroWorkers)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.numThreads(), 0u);
    int value = 0;
    TaskGroup group(pool);
    group.run([&value] { value = 7; });
    EXPECT_EQ(value, 7);  // ran inside run()
    group.wait();
    EXPECT_EQ(value, 7);
}

TEST(ThreadPool, RunsAllTasks)
{
    ThreadPool pool(3);
    std::atomic<int> counter{0};
    TaskGroup group(pool);
    for (int i = 0; i < 100; ++i)
        group.run([&counter] { ++counter; });
    group.wait();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIsReentrant)
{
    ThreadPool pool(2);
    TaskGroup group(pool);
    group.wait();  // no tasks
    std::atomic<int> counter{0};
    group.run([&counter] { ++counter; });
    group.wait();
    group.wait();
    EXPECT_EQ(counter.load(), 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(5000);
    parallelFor(0, hits.size(),
                [&](std::size_t i) { ++hits[i]; });
    for (const auto &hit : hits)
        EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelFor, EmptyRange)
{
    bool touched = false;
    parallelFor(5, 5, [&](std::size_t) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(ParallelFor, NonZeroBeginCoversExactRange)
{
    // Regression: chunking must respect `begin`, not restart at 0.
    ThreadPool pool(2);
    constexpr std::size_t kBegin = 1000;
    constexpr std::size_t kEnd = 9000;
    std::vector<std::atomic<int>> hits(kEnd + 100);
    parallelFor(
        kBegin, kEnd, [&](std::size_t i) { ++hits[i]; }, pool,
        64);
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(),
                  (i >= kBegin && i < kEnd) ? 1 : 0)
            << i;
}

TEST(ParallelFor, GrainLargerThanRangeRunsInline)
{
    // Regression: grain > n must degenerate to one inline chunk,
    // not produce zero or empty chunks.
    ThreadPool pool(2);
    std::vector<std::atomic<int>> hits(10);
    parallelFor(
        3, 7, [&](std::size_t i) { ++hits[i]; }, pool, 1024);
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), (i >= 3 && i < 7) ? 1 : 0);
}

TEST(ParallelForChunks, NonZeroBeginAndLargeGrain)
{
    ThreadPool pool(2);
    std::atomic<std::uint64_t> sum{0};
    parallelForChunks(
        100, 200,
        [&](std::size_t lo, std::size_t hi) {
            std::uint64_t local = 0;
            for (std::size_t i = lo; i < hi; ++i)
                local += i;
            sum.fetch_add(local);
        },
        pool, 5000);
    std::uint64_t expected = 0;
    for (std::size_t i = 100; i < 200; ++i)
        expected += i;
    EXPECT_EQ(sum.load(), expected);
}

TEST(ParallelForChunks, ChunksPartitionTheRange)
{
    std::vector<int> data(10000, 0);
    parallelForChunks(0, data.size(),
                      [&](std::size_t lo, std::size_t hi) {
                          for (std::size_t i = lo; i < hi; ++i)
                              data[i] += 1;
                      });
    EXPECT_TRUE(std::all_of(data.begin(), data.end(),
                            [](int v) { return v == 1; }));
}

// -----------------------------------------------------------------
// Exceptions across the pool: TaskGroup's contract
// -----------------------------------------------------------------

/** What a body threw, or "" when the call returned normally. */
template <typename Call>
std::string
thrownMessage(const Call &call)
{
    try {
        call();
    } catch (const std::runtime_error &error) {
        return error.what();
    }
    return "";
}

TEST(ParallelExceptions, ThrowAtAnyIndexReachesCaller)
{
    // Every chunk, whether a worker or the helping caller runs it,
    // must hand its exception back to the caller — only after every
    // other chunk has finished — and leave the pool fully usable.
    ThreadPool pool(3);
    constexpr std::size_t kN = 4096;
    constexpr std::size_t kChunk = kN / 4;  // 3 workers + the caller
    for (std::size_t bad = 0; bad < kN; bad += 97) {
        for (int repeat = 0; repeat < 4; ++repeat) {
            std::atomic<std::size_t> visited{0};
            const std::string message = thrownMessage([&] {
                parallelFor(
                    0, kN,
                    [&](std::size_t i) {
                        visited.fetch_add(1,
                                          std::memory_order_relaxed);
                        if (i == bad)
                            throw std::runtime_error(
                                std::to_string(i));
                    },
                    pool, 64);
            });
            ASSERT_EQ(message, std::to_string(bad));
            // The throwing chunk stops at `bad`; the rest all ran.
            EXPECT_EQ(visited.load(), kN - kChunk + bad % kChunk + 1)
                << "bad=" << bad;
        }
    }
    std::vector<std::atomic<int>> hits(kN);
    parallelFor(
        0, kN, [&](std::size_t i) { ++hits[i]; }, pool, 64);
    for (const auto &hit : hits)
        ASSERT_EQ(hit.load(), 1);
}

TEST(ParallelExceptions, ChunksThrowToCaller)
{
    ThreadPool pool(3);
    for (std::size_t bad_chunk = 0; bad_chunk < 4; ++bad_chunk) {
        const std::string message = thrownMessage([&] {
            parallelForChunks(
                0, 4000,
                [&](std::size_t lo, std::size_t) {
                    if (lo / 1000 == bad_chunk)
                        throw std::runtime_error(
                            "chunk " + std::to_string(lo / 1000));
                },
                pool, 1000);
        });
        EXPECT_EQ(message, "chunk " + std::to_string(bad_chunk));
    }
}

TEST(ParallelExceptions, GroupRethrowsOnlyAfterEveryTaskRan)
{
    ThreadPool pool(3);
    TaskGroup group(pool);
    std::atomic<int> finished{0};
    group.run([] { throw std::runtime_error("first"); });
    for (int i = 0; i < 24; ++i) {
        group.run([&finished] {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            finished.fetch_add(1);
        });
    }
    group.run([] { throw std::runtime_error("second"); });
    const std::string message = thrownMessage([&] { group.wait(); });
    // Exactly one of the two errors, and only once every task of
    // the group has finished.
    EXPECT_TRUE(message == "first" || message == "second") << message;
    EXPECT_EQ(finished.load(), 24);
    // The error was handed over: the group is clean again.
    EXPECT_EQ(thrownMessage([&] { group.wait(); }), "");
}

TEST(ParallelExceptions, NestedParallelForInsideThrowingChunk)
{
    ThreadPool pool(3);
    constexpr std::size_t kOuter = 16;
    constexpr std::size_t kInner = 256;
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    const std::string message = thrownMessage([&] {
        parallelFor(
            0, kOuter,
            [&](std::size_t outer) {
                parallelFor(
                    0, kInner,
                    [&](std::size_t inner) {
                        if (outer == 5 && inner == 100)
                            throw std::runtime_error("inner");
                        ++hits[outer * kInner + inner];
                    },
                    pool, 16);
            },
            pool, 1);
    });
    EXPECT_EQ(message, "inner");
    // Outer chunks are [0,4) [4,8) [8,12) [12,16): outer 6 and 7
    // never start once 5 throws; every other row ran completely.
    for (std::size_t outer = 0; outer < kOuter; ++outer) {
        if (outer >= 5 && outer < 8)
            continue;
        for (std::size_t inner = 0; inner < kInner; ++inner)
            ASSERT_EQ(hits[outer * kInner + inner].load(), 1)
                << outer << ":" << inner;
    }
}

TEST(ParallelExceptions, ZeroWorkersRunInlineAndStillDefer)
{
    ThreadPool pool(0);
    EXPECT_EQ(thrownMessage([&] {
                  parallelFor(
                      0, 100,
                      [](std::size_t i) {
                          if (i == 42)
                              throw std::runtime_error("42");
                      },
                      pool, 1);
              }),
              "42");

    // An inline task's exception is still kept for wait(), so the
    // tasks after it run as they would on a pool with workers.
    TaskGroup group(pool);
    int ran = 0;
    group.run([] { throw std::runtime_error("inline"); });
    group.run([&ran] { ++ran; });
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(thrownMessage([&] { group.wait(); }), "inline");
}

TEST(ExclusiveScan, KnownSequence)
{
    std::vector<std::uint32_t> values{3, 1, 4, 1, 5};
    const std::uint32_t total = exclusiveScan(values);
    EXPECT_EQ(total, 14u);
    EXPECT_EQ(values,
              (std::vector<std::uint32_t>{0, 3, 4, 8, 9}));
}

TEST(RadixSort, EmptyAndSingle)
{
    std::vector<KeyIndex> empty;
    radixSortPairs(empty);
    EXPECT_TRUE(empty.empty());

    std::vector<KeyIndex> one{{42, 0}};
    radixSortPairs(one);
    EXPECT_EQ(one[0].key, 42u);
}

TEST(RadixSort, MatchesStdSort)
{
    Rng rng(6);
    std::vector<KeyIndex> pairs(30000);
    for (std::uint32_t i = 0; i < pairs.size(); ++i)
        pairs[i] = {rng(), i};
    std::vector<std::uint64_t> expected;
    expected.reserve(pairs.size());
    for (const auto &pair : pairs)
        expected.push_back(pair.key);
    std::sort(expected.begin(), expected.end());

    radixSortPairs(pairs);
    for (std::size_t i = 0; i < pairs.size(); ++i)
        EXPECT_EQ(pairs[i].key, expected[i]);
}

TEST(RadixSort, IsStable)
{
    // Equal keys must preserve their input index order.
    std::vector<KeyIndex> pairs;
    for (std::uint32_t i = 0; i < 1000; ++i)
        pairs.push_back({i % 7, i});
    radixSortPairs(pairs, 8);
    for (std::size_t i = 1; i < pairs.size(); ++i) {
        if (pairs[i - 1].key == pairs[i].key) {
            EXPECT_LT(pairs[i - 1].index, pairs[i].index);
        }
    }
}

TEST(RadixSort, RespectsKeyBitsLimit)
{
    // Keys above key_bits are ignored by construction: with 8-bit
    // sorting, only the low byte decides the order.
    std::vector<KeyIndex> pairs{{0x0102, 0}, {0x0201, 1}};
    radixSortPairs(pairs, 8);
    EXPECT_EQ(pairs[0].key, 0x0201u);  // low byte 0x01 first
    EXPECT_EQ(pairs[1].key, 0x0102u);
}

TEST(RadixSort, KeysOnlyVariant)
{
    Rng rng(8);
    std::vector<std::uint64_t> keys(10000);
    for (auto &key : keys)
        key = rng();
    std::vector<std::uint64_t> expected = keys;
    std::sort(expected.begin(), expected.end());
    radixSortKeys(keys);
    EXPECT_EQ(keys, expected);
}

/** Parameterized sweep over sizes and key widths. */
class RadixSortSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(RadixSortSweep, SortedAscending)
{
    const auto [size, bits] = GetParam();
    Rng rng(static_cast<std::uint64_t>(size) * 131 +
            static_cast<std::uint64_t>(bits));
    std::vector<KeyIndex> pairs(static_cast<std::size_t>(size));
    const std::uint64_t mask =
        bits == 64 ? ~std::uint64_t{0}
                   : ((std::uint64_t{1} << bits) - 1);
    for (std::uint32_t i = 0; i < pairs.size(); ++i)
        pairs[i] = {rng() & mask, i};
    radixSortPairs(pairs, bits);
    for (std::size_t i = 1; i < pairs.size(); ++i)
        EXPECT_LE(pairs[i - 1].key, pairs[i].key);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndWidths, RadixSortSweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 100, 4096),
                       ::testing::Values(1, 8, 30, 33, 64)));

}  // namespace
}  // namespace edgepcc
