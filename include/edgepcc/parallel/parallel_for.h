/**
 * @file
 * Data-parallel primitives (`parallelFor`, `parallelForChunks`) over
 * the thread pool. These mirror the CUDA kernels of the paper's GPU
 * implementation.
 *
 * Both are thin wrappers over one chunking core that runs its
 * chunks as one TaskGroup (thread_pool.h), so (a) concurrent callers
 * never wait on each other's work, (b) nesting a primitive inside a
 * pool task cannot deadlock: the waiter helps drain the queue, and
 * (c) an exception thrown by the body reaches the caller once every
 * chunk has finished.
 */

#ifndef EDGEPCC_PARALLEL_PARALLEL_FOR_H
#define EDGEPCC_PARALLEL_PARALLEL_FOR_H

#include <algorithm>
#include <cstddef>

#include "edgepcc/parallel/thread_pool.h"

namespace edgepcc {

namespace detail {

/**
 * The one chunking core: calls `run_chunk(lo, hi)` once per chunk
 * of [begin, end), each chunk at least `grain` items and at most
 * one chunk per (worker + caller). A single chunk, or a pool with
 * no workers, runs inline — one pool task would pay queue overhead
 * for zero parallelism. Otherwise the chunks are one TaskGroup the
 * caller helps drain, and the first exception a chunk throws is
 * rethrown here after all of them have finished.
 */
template <typename RunChunk>
void
forEachChunk(std::size_t begin, std::size_t end,
             const RunChunk &run_chunk, ThreadPool &pool,
             std::size_t grain)
{
    if (begin >= end)
        return;
    const std::size_t n = end - begin;
    const std::size_t parts = pool.numThreads() + 1;  // + caller
    const std::size_t chunk = std::max<std::size_t>(
        std::max<std::size_t>(grain, 1), (n + parts - 1) / parts);
    if (pool.numThreads() == 0 || chunk >= n) {
        run_chunk(begin, end);
        return;
    }
    TaskGroup group(pool);
    for (std::size_t lo = begin; lo < end; lo += chunk) {
        const std::size_t hi = std::min(end, lo + chunk);
        group.run([lo, hi, &run_chunk] { run_chunk(lo, hi); });
    }
    group.wait();
}

}  // namespace detail

/**
 * Applies `body(i)` for i in [begin, end) using the pool.
 *
 * The iteration space is split into contiguous chunks of at least
 * `grain` elements so per-task overhead stays negligible. `body` must
 * be safe to invoke concurrently for distinct indices. Safe to call
 * from inside another parallel primitive's body.
 */
template <typename Body>
void
parallelFor(std::size_t begin, std::size_t end, const Body &body,
            ThreadPool &pool = ThreadPool::global(),
            std::size_t grain = 1024)
{
    detail::forEachChunk(
        begin, end,
        [&body](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                body(i);
        },
        pool, grain);
}

/**
 * Chunked variant: `body(lo, hi)` is called once per chunk, which lets
 * kernels keep per-chunk accumulators without false sharing.
 */
template <typename Body>
void
parallelForChunks(std::size_t begin, std::size_t end, const Body &body,
                  ThreadPool &pool = ThreadPool::global(),
                  std::size_t grain = 1024)
{
    detail::forEachChunk(begin, end, body, pool, grain);
}

}  // namespace edgepcc

#endif  // EDGEPCC_PARALLEL_PARALLEL_FOR_H
