/**
 * @file
 * Fixed-size thread pool for the sweep driver.
 *
 * A deliberately small pool: a fixed set of workers created up
 * front, a FIFO task queue, and a wait() barrier. Simulation cells
 * are coarse (milliseconds to seconds each), so queue contention is
 * negligible and no work-stealing is needed. A throwing task does
 * not take the process down: the first exception is captured, the
 * pending queue is cancelled, and wait() rethrows it on the
 * submitting thread.
 *
 * Concurrency contract (checked by the `analyze` preset, see
 * docs/ANALYSIS.md): `mutex_` is the single capability; it guards
 * the queue, the running-task count, the captured exception and the
 * stop flag. Both condition variables wait under it, and their wait
 * predicates are stated as `RSEL_REQUIRES(mutex_)` methods so a
 * predicate evaluated without the lock is a compile error, not a
 * latent lost-wakeup.
 */

#ifndef RSEL_DRIVER_THREAD_POOL_HPP
#define RSEL_DRIVER_THREAD_POOL_HPP

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "support/sync.hpp"

namespace rsel {

/** Fixed set of worker threads draining a FIFO task queue. */
class ThreadPool
{
  public:
    /**
     * Spawn `workers` threads. @pre workers >= 1. A pool of one
     * worker is legal but rarely useful: callers wanting serial
     * execution should simply not use a pool.
     */
    explicit ThreadPool(std::size_t workers);

    /**
     * Drains the queue, then joins all workers. An exception
     * captured but never collected by wait() is discarded —
     * destructors must not throw.
     */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue a task. May be called from worker threads. If a task
     * throws, the first exception is captured, every task still
     * queued is cancelled (dropped unexecuted), and the exception is
     * rethrown from the next wait(). Tasks already running on other
     * workers complete normally.
     */
    void submit(std::function<void()> task) RSEL_EXCLUDES(mutex_);

    /**
     * Block until every task submitted so far has finished or been
     * cancelled (queue empty and no task running). Tasks submitted
     * by other threads while waiting extend the wait. If any task
     * threw since the last wait(), rethrows the first captured
     * exception (and clears it, so the pool is reusable).
     */
    void wait() RSEL_EXCLUDES(mutex_);

    /** Number of worker threads. */
    std::size_t workerCount() const { return threads_.size(); }

    /**
     * The default worker count: std::thread::hardware_concurrency,
     * clamped to at least 1 (the standard allows it to report 0).
     */
    static std::size_t hardwareWorkers();

  private:
    friend struct TsaTestProbe; // negative-compile battery only

    void workerLoop() RSEL_EXCLUDES(mutex_);

    /** workReady_ wait predicate: a task to run, or shutting down. */
    bool
    wakeWorkerLocked() const RSEL_REQUIRES(mutex_)
    {
        return stop_ || !queue_.empty();
    }

    /** idle_ wait predicate: nothing queued and nothing running. */
    bool
    idleLocked() const RSEL_REQUIRES(mutex_)
    {
        return queue_.empty() && running_ == 0;
    }

    std::vector<std::thread> threads_;
    Mutex mutex_;
    std::deque<std::function<void()>> queue_ RSEL_GUARDED_BY(mutex_);
    /** Signalled when a task is queued or the pool shuts down. */
    CondVar workReady_;
    /** Signalled when the pool may have become idle. */
    CondVar idle_;
    /** Tasks currently executing in a worker. */
    std::size_t running_ RSEL_GUARDED_BY(mutex_) = 0;
    /** First exception thrown by a task since the last wait(). */
    std::exception_ptr firstError_ RSEL_GUARDED_BY(mutex_);
    bool stop_ RSEL_GUARDED_BY(mutex_) = false;
};

/**
 * Run `body(i)` for every i in [0, n) and return once all have
 * finished. With a pool, min(n, workers) tasks claim indices from a
 * shared counter; with `pool == nullptr` the indices run inline, in
 * order. Each call of `body` may write only state owned by its own
 * index, so no lock is needed; the pool's wait() publishes those
 * writes to the caller. A throwing `body` stops further indices from
 * being claimed, and the first exception is rethrown here.
 * @pre the pool runs no other work meanwhile.
 */
void forEachIndex(ThreadPool *pool, std::size_t n,
                  const std::function<void(std::size_t)> &body);

} // namespace rsel

#endif // RSEL_DRIVER_THREAD_POOL_HPP
