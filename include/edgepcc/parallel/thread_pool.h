/**
 * @file
 * Fixed-size worker pool used as the "GPU substitute" runtime.
 *
 * The paper offloads data-parallel kernels (Morton generation, octree
 * construction, segment residuals, block matching) to a 512-core Volta
 * GPU. This repository executes the same kernels with a thread pool;
 * the device model (src/platform) charges them to the modelled GPU
 * based on their recorded work, independent of how many host threads
 * actually ran.
 *
 * `TaskGroup` is the one way to wait on pool tasks; the
 * data-parallel primitives (parallel_for.h) and the serve layer's
 * batched encodes both wait through it.
 */

#ifndef EDGEPCC_PARALLEL_THREAD_POOL_H
#define EDGEPCC_PARALLEL_THREAD_POOL_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "edgepcc/common/sync.h"

namespace edgepcc {

/**
 * Scheduling class for submitted tasks. High-priority tasks are
 * dispatched before any queued normal task; within a class, order is
 * FIFO. The serve layer submits interactive-tenant encodes as kHigh
 * so bulk tenants cannot head-of-line block them on a busy pool.
 */
enum class TaskPriority : std::uint8_t {
    kNormal = 0,
    kHigh = 1,
};

/**
 * A simple task-queue thread pool.
 *
 * Tasks are std::function<void()>; submission is thread-safe. The
 * pool with zero workers degenerates to inline execution, which keeps
 * single-core hosts (and deterministic tests) fast. A task submitted
 * directly must not throw; run it through a TaskGroup to carry its
 * exception back to the waiting caller.
 */
class ThreadPool
{
  public:
    /** @param num_threads worker count; 0 means "execute inline".
     *  If a worker cannot start, joins the started ones and throws. */
    explicit ThreadPool(std::size_t num_threads);
    ~ThreadPool() { shutDown(); }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    std::size_t numThreads() const { return workers_.size(); }

    /** Enqueues a task in the given scheduling class; runs it
     *  inline when the pool has no workers. */
    void submit(std::function<void()> task,
                TaskPriority priority = TaskPriority::kNormal);

    /**
     * Pops and runs one queued task on the calling thread.
     * @return false when the queue was empty.
     *
     * This is the work-stealing hook TaskGroup::wait uses to wait
     * without blocking a worker.
     */
    bool tryRunOne();

    /**
     * Process-wide default pool, sized to the host's hardware
     * concurrency minus one (0 workers on a single-core host).
     */
    static ThreadPool &global();

    /**
     * Redirects global() to `pool` (nullptr restores the default).
     * For tests and benches that need a fixed worker count (e.g. the
     * 1-vs-N-thread determinism suite); swap only while no codec is
     * running — concurrent global() users would race the redirect.
     */
    static void setGlobalOverride(ThreadPool *pool);

  private:
    void workerLoop();

    /** Stops the workers once the queue is drained and joins them. */
    void shutDown();

    /** Pops the next task; returns false when the queue is empty. */
    bool popTaskLocked(std::function<void()> &task)
        EDGEPCC_REQUIRES(mutex_);

    /** Fixed once the constructor returns (no guard needed). */
    std::vector<std::thread> workers_;

    Mutex mutex_;
    CondVar task_available_;
    std::deque<std::function<void()>> queue_
        EDGEPCC_GUARDED_BY(mutex_);
    std::deque<std::function<void()>> high_queue_
        EDGEPCC_GUARDED_BY(mutex_);
    bool shutting_down_ EDGEPCC_GUARDED_BY(mutex_) = false;
};

/**
 * A set of pool tasks the caller waits on as one. Each group counts
 * only its own tasks, so concurrent callers never wait on each
 * other's work, and a task may run a nested group: the waiter helps
 * drain the queue.
 *
 * A task's exception never escapes on the thread that ran it: the
 * group keeps the first one, and wait() rethrows it once *every*
 * task has finished. The destructor drains the same way, so
 * unwinding never leaves a queued task pointing at a dead stack
 * frame; it does not rethrow, because it only runs before wait()
 * when the caller is already propagating another exception.
 */
class TaskGroup
{
  public:
    explicit TaskGroup(ThreadPool &pool) : pool_(pool) {}
    ~TaskGroup() { drain(); }

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /** Counts `task` in and submits it (inline on a pool with no
     *  workers). If submission throws, the count is taken back. */
    void run(std::function<void()> task,
             TaskPriority priority = TaskPriority::kNormal);

    /** Helps run queued tasks until every task of the group has
     *  finished, then rethrows the first exception one threw. */
    void
    wait()
    {
        if (std::exception_ptr error = drain())
            std::rethrow_exception(error);
    }

  private:
    /** Helps until the group's count reaches zero; hands over the
     *  first exception a task threw (null if none). */
    std::exception_ptr drain();
    /** Counts one task out, keeping the first error. */
    void finishOne(std::exception_ptr error);

    ThreadPool &pool_;
    Mutex mutex_;
    CondVar done_;
    std::size_t pending_ EDGEPCC_GUARDED_BY(mutex_) = 0;
    std::exception_ptr error_ EDGEPCC_GUARDED_BY(mutex_);
};

/** RAII global-pool redirect: builds a pool of `num_threads` workers
 *  and makes it the global() pool for the enclosing scope. */
class ScopedGlobalPool
{
  public:
    explicit ScopedGlobalPool(std::size_t num_threads)
        : pool_(num_threads)
    {
        ThreadPool::setGlobalOverride(&pool_);
    }
    ~ScopedGlobalPool() { ThreadPool::setGlobalOverride(nullptr); }

    ScopedGlobalPool(const ScopedGlobalPool &) = delete;
    ScopedGlobalPool &operator=(const ScopedGlobalPool &) = delete;

    ThreadPool &pool() { return pool_; }

  private:
    ThreadPool pool_;
};

}  // namespace edgepcc

#endif  // EDGEPCC_PARALLEL_THREAD_POOL_H
