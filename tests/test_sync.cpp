/**
 * @file
 * Runtime semantics of the annotated sync primitives
 * (include/edgepcc/common/sync.h). The *static* guarantees — that
 * clang rejects unguarded access to EDGEPCC_GUARDED_BY fields — are
 * exercised by the configure-time compile-fail harness in
 * tests/compile_fail/; this suite pins down the runtime behaviour
 * the annotations wrap: mutual exclusion, tryLock, condition-variable
 * wakeups, and that the annotated types compose with the components
 * migrated onto them (Tracer, StageStatsAggregator, ThreadPool).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "edgepcc/common/sync.h"
#include "edgepcc/common/trace.h"
#include "edgepcc/parallel/thread_pool.h"

namespace edgepcc {
namespace {

TEST(Sync, MutexLockUnlockRoundTrip)
{
    Mutex mutex;
    mutex.lock();
    mutex.unlock();
    {
        MutexLock lock(mutex);
    }
    // Re-lockable after scoped release.
    MutexLock lock(mutex);
}

TEST(Sync, TryLockReflectsOwnership)
{
    Mutex mutex;
    ASSERT_TRUE(mutex.tryLock());

    std::atomic<bool> other_got{true};
    std::thread other([&] { other_got = mutex.tryLock(); });
    other.join();
    EXPECT_FALSE(other_got.load());

    mutex.unlock();
    std::thread retry([&] {
        other_got = mutex.tryLock();
        if (other_got)
            mutex.unlock();
    });
    retry.join();
    EXPECT_TRUE(other_got.load());
}

TEST(Sync, MutexProvidesMutualExclusion)
{
    Mutex mutex;
    long counter = 0;
    constexpr int kThreads = 8;
    constexpr int kIncrements = 20000;

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kIncrements; ++i) {
                MutexLock lock(mutex);
                ++counter;
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(counter, static_cast<long>(kThreads) * kIncrements);
}

TEST(Sync, CondVarProducerConsumer)
{
    Mutex mutex;
    CondVar ready;
    std::vector<int> queue;
    bool done = false;
    constexpr int kItems = 1000;

    std::thread consumer([&] {
        long sum = 0;
        int received = 0;
        while (received < kItems) {
            MutexLock lock(mutex);
            while (queue.empty() && !done)
                ready.wait(mutex);
            for (int v : queue) {
                sum += v;
                ++received;
            }
            queue.clear();
        }
        EXPECT_EQ(sum, static_cast<long>(kItems) * (kItems - 1) / 2);
    });

    for (int i = 0; i < kItems; ++i) {
        {
            MutexLock lock(mutex);
            queue.push_back(i);
        }
        ready.notifyOne();
    }
    {
        MutexLock lock(mutex);
        done = true;
    }
    ready.notifyAll();
    consumer.join();
}

TEST(Sync, CondVarNotifyAllWakesEveryWaiter)
{
    Mutex mutex;
    CondVar gate;
    bool open = false;
    std::atomic<int> awake{0};
    constexpr int kWaiters = 6;

    std::vector<std::thread> waiters;
    waiters.reserve(kWaiters);
    for (int t = 0; t < kWaiters; ++t) {
        waiters.emplace_back([&] {
            MutexLock lock(mutex);
            while (!open)
                gate.wait(mutex);
            ++awake;
        });
    }
    {
        MutexLock lock(mutex);
        open = true;
    }
    gate.notifyAll();
    for (auto &thread : waiters)
        thread.join();
    EXPECT_EQ(awake.load(), kWaiters);
}

// The migrated components must stay thread-safe through the
// annotated primitives: concurrent feeders, consistent totals.

TEST(Sync, TracerConcurrentRecording)
{
    Tracer &tracer = Tracer::global();
    tracer.clear();
    tracer.setEnabled(true);
    constexpr int kThreads = 4;
    constexpr int kSpans = 500;

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kSpans; ++i)
                tracer.record("sync.test", 0.0, 1e-6);
        });
    }
    for (auto &thread : threads)
        thread.join();
    tracer.setEnabled(false);
    EXPECT_EQ(tracer.eventCount(),
              static_cast<std::size_t>(kThreads) * kSpans);
    tracer.clear();
}

TEST(Sync, StageStatsAggregatorConcurrentFeeding)
{
    StageStatsAggregator agg;
    constexpr int kThreads = 4;
    constexpr int kSamples = 250;

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kSamples; ++i)
                agg.addStage("stage", 0.001, -1.0, 1, 1);
        });
    }
    for (auto &thread : threads)
        thread.join();

    const auto summaries = agg.summaries();
    ASSERT_EQ(summaries.size(), 1u);
    EXPECT_EQ(summaries[0].frames,
              static_cast<std::size_t>(kThreads) * kSamples);
}

TEST(Sync, StageStatsAggregatorMovePreservesState)
{
    StageStatsAggregator agg;
    agg.addStage("stage", 0.002, -1.0, 3, 7);
    StageStatsAggregator moved(std::move(agg));
    const auto summaries = moved.summaries();
    ASSERT_EQ(summaries.size(), 1u);
    EXPECT_EQ(summaries[0].frames, 1u);
    EXPECT_EQ(summaries[0].total_ops, 3u);
    EXPECT_EQ(summaries[0].total_bytes, 7u);
}

TEST(Sync, ThreadPoolDrainsUnderAnnotatedLocking)
{
    ThreadPool pool(4);
    std::atomic<int> done{0};
    constexpr int kTasks = 200;
    TaskGroup group(pool);
    for (int i = 0; i < kTasks; ++i)
        group.run([&] { ++done; });
    group.wait();
    EXPECT_EQ(done.load(), kTasks);
}

}  // namespace
}  // namespace edgepcc
