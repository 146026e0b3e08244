#include "driver/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "support/error.hpp"

namespace rsel {

ThreadPool::ThreadPool(std::size_t workers)
{
    RSEL_ASSERT(workers >= 1, "thread pool needs at least one worker");
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        stop_ = true;
    }
    workReady_.notifyAll();
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        MutexLock lock(mutex_);
        RSEL_ASSERT(!stop_, "submit on a stopping thread pool");
        queue_.push_back(std::move(task));
    }
    workReady_.notifyOne();
}

void
ThreadPool::wait()
{
    MutexLock lock(mutex_);
    while (!idleLocked())
        idle_.wait(mutex_);
    if (firstError_) {
        // Hand the captured failure to the submitting thread and
        // reset, so the pool can be reused for another batch.
        std::exception_ptr err = std::move(firstError_);
        firstError_ = nullptr;
        std::rethrow_exception(err);
    }
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            MutexLock lock(mutex_);
            while (!wakeWorkerLocked())
                workReady_.wait(mutex_);
            if (queue_.empty()) {
                // stop_ is set and no work is left; drain-and-join
                // semantics: stop only takes effect on an empty
                // queue.
                return;
            }
            task = std::move(queue_.front());
            queue_.pop_front();
            ++running_;
        }
        std::exception_ptr error;
        try {
            task();
        } catch (...) {
            error = std::current_exception();
        }
        {
            MutexLock lock(mutex_);
            if (error) {
                // Keep only the first failure and cancel everything
                // still pending — later tasks of the batch likely
                // depend on state the failed one did not produce.
                if (!firstError_)
                    firstError_ = std::move(error);
                queue_.clear();
            }
            --running_;
            if (idleLocked())
                idle_.notifyAll();
        }
    }
}

std::size_t
ThreadPool::hardwareWorkers()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<std::size_t>(n);
}

void
forEachIndex(ThreadPool *pool, std::size_t n,
             const std::function<void(std::size_t)> &body)
{
    if (pool == nullptr) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    // role: counter (relaxed) — it only hands out indices; wait()
    // orders every body's writes before the caller's reads.
    std::atomic<std::size_t> next{0};
    const std::size_t tasks = std::min(pool->workerCount(), n);
    for (std::size_t t = 0; t < tasks; ++t)
        pool->submit([&next, &body, n] {
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                try {
                    body(i);
                } catch (...) {
                    // Stop the other tasks claiming; the pool keeps
                    // the first exception for wait() to rethrow.
                    next.store(n, std::memory_order_relaxed);
                    throw;
                }
            }
        });
    pool->wait();
}

} // namespace rsel
