#include "edgepcc/parallel/thread_pool.h"

#include <atomic>
#include <utility>

namespace edgepcc {

ThreadPool::ThreadPool(std::size_t num_threads)
{
    try {
        workers_.reserve(num_threads);
        for (std::size_t i = 0; i < num_threads; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    } catch (...) {
        // The workers already started wait on task_available_ and
        // are joinable: destroying either would hang or terminate.
        shutDown();
        throw;
    }
}

void
ThreadPool::shutDown()
{
    {
        MutexLock lock(mutex_);
        shutting_down_ = true;
    }
    task_available_.notifyAll();
    for (auto &worker : workers_)
        worker.join();
}

bool
ThreadPool::popTaskLocked(std::function<void()> &task)
{
    if (!high_queue_.empty()) {
        task = std::move(high_queue_.front());
        high_queue_.pop_front();
        return true;
    }
    if (queue_.empty())
        return false;
    task = std::move(queue_.front());
    queue_.pop_front();
    return true;
}

void
ThreadPool::submit(std::function<void()> task, TaskPriority priority)
{
    if (workers_.empty()) {
        task();
        return;
    }
    {
        MutexLock lock(mutex_);
        if (priority == TaskPriority::kHigh)
            high_queue_.push_back(std::move(task));
        else
            queue_.push_back(std::move(task));
    }
    task_available_.notifyOne();
}

bool
ThreadPool::tryRunOne()
{
    std::function<void()> task;
    {
        MutexLock lock(mutex_);
        if (!popTaskLocked(task))
            return false;
    }
    task();
    return true;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            MutexLock lock(mutex_);
            while (!shutting_down_ && queue_.empty() &&
                   high_queue_.empty())
                task_available_.wait(mutex_);
            if (!popTaskLocked(task)) {
                // Queue drained during shutdown: exit.
                return;
            }
        }
        task();
    }
}

namespace {
std::atomic<ThreadPool *> global_override{nullptr};
}  // namespace

ThreadPool &
ThreadPool::global()
{
    if (ThreadPool *override_pool =
            global_override.load(std::memory_order_acquire))
        return *override_pool;
    static ThreadPool pool([] {
        const unsigned hw = std::thread::hardware_concurrency();
        return hw > 1 ? static_cast<std::size_t>(hw - 1) : 0u;
    }());
    return pool;
}

void
ThreadPool::setGlobalOverride(ThreadPool *pool)
{
    global_override.store(pool, std::memory_order_release);
}

// -----------------------------------------------------------------
// TaskGroup
// -----------------------------------------------------------------

void
TaskGroup::run(std::function<void()> task, TaskPriority priority)
{
    {
        MutexLock lock(mutex_);
        ++pending_;
    }
    try {
        pool_.submit(
            [this, task = std::move(task)]() mutable {
                std::exception_ptr error;
                try {
                    task();
                } catch (...) {
                    error = std::current_exception();
                }
                task = nullptr;  // drop captures before counting out
                finishOne(std::move(error));
            },
            priority);
    } catch (...) {
        finishOne(nullptr);  // never queued: nothing will count it out
        throw;
    }
}

void
TaskGroup::finishOne(std::exception_ptr error)
{
    // Notify under the lock: the waiter may destroy the group as
    // soon as it can observe a zero count.
    MutexLock lock(mutex_);
    if (error && !error_)
        error_ = std::move(error);
    if (--pending_ == 0)
        done_.notifyAll();
}

std::exception_ptr
TaskGroup::drain()
{
    for (;;) {
        {
            MutexLock lock(mutex_);
            if (pending_ == 0)
                return std::exchange(error_, nullptr);
        }
        if (!pool_.tryRunOne())
            break;
    }
    // Queue empty: the group's open tasks are all running on
    // workers; sleep until the last one counts out.
    MutexLock lock(mutex_);
    while (pending_ > 0)
        done_.wait(mutex_);
    return std::exchange(error_, nullptr);
}

}  // namespace edgepcc
