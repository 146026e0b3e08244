/**
 * @file
 * The compile-time concurrency contract: annotated synchronization
 * primitives for Clang Thread Safety Analysis (TSA).
 *
 * Every mutex, condition variable and lock scope in first-party
 * concurrent code goes through these wrappers so that the *locking
 * discipline itself* is part of the type system: which capability
 * guards which field (`RSEL_GUARDED_BY`), which capability a
 * function needs (`RSEL_REQUIRES`), and in which order capabilities
 * may be acquired (`RSEL_ACQUIRED_AFTER`). The `analyze` CMake
 * preset compiles the whole tree with `-Wthread-safety
 * -Wthread-safety-beta -Werror=thread-safety-analysis`, turning a
 * forgotten lock or a lock-order inversion into a build break —
 * TSan can only bless the interleavings a stress run happens to
 * produce; this layer rejects the bug on every interleaving,
 * including the ones that never ran. The negative-compile battery
 * (`tests/negative_compile/`, driven by `rselect-tsa-gate`) proves
 * the gate actually rejects each violation class.
 *
 * On non-Clang compilers every annotation expands to nothing and
 * the wrappers are zero-cost veneers over `std::mutex` /
 * `std::condition_variable`, so GCC builds are unaffected.
 *
 * # Atomics discipline (comment-enforced, reviewed by the `analyze`
 * # gate's human half)
 *
 * TSA cannot model lock-free publication, so every `std::atomic`
 * carries a role tag in its declaration comment, and the tag
 * dictates the strongest memory order it may use. One role is in
 * use:
 *
 *  - `role: counter (relaxed)` — a monotonic count (the arena's
 *    contention, a pool's next work index). Nothing is ordered
 *    against it; every access must be `memory_order_relaxed`.
 *
 * State that one thread publishes to another takes a mutex instead,
 * so `RSEL_GUARDED_BY` checks it. `memory_order_seq_cst` (the
 * default) is banned in first-party code: if an access needs it,
 * the design is wrong — say why in a comment or take a mutex.
 */

#ifndef RSEL_SUPPORT_SYNC_HPP
#define RSEL_SUPPORT_SYNC_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "support/error.hpp"

// ---------------------------------------------------------------------------
// Annotation macros. Clang-only: GCC and MSVC see empty expansions.
// Names follow the Clang TSA documentation (and abseil's
// thread_annotations.h) so the meaning is greppable upstream.
// ---------------------------------------------------------------------------

#if defined(__clang__) && !defined(SWIG)
#define RSEL_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define RSEL_THREAD_ANNOTATION(x) // compiles away off-Clang
#endif

/** Marks a class as a capability (a lockable thing). */
#define RSEL_CAPABILITY(x) RSEL_THREAD_ANNOTATION(capability(x))

/** Marks an RAII class whose lifetime equals a critical section. */
#define RSEL_SCOPED_CAPABILITY RSEL_THREAD_ANNOTATION(scoped_lockable)

/** Field may only be touched while holding `x`. */
#define RSEL_GUARDED_BY(x) RSEL_THREAD_ANNOTATION(guarded_by(x))

/** Pointee may only be touched while holding `x`. */
#define RSEL_PT_GUARDED_BY(x) RSEL_THREAD_ANNOTATION(pt_guarded_by(x))

/** Declares lock order: this capability before the named ones. */
#define RSEL_ACQUIRED_BEFORE(...) \
    RSEL_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))

/** Declares lock order: this capability after the named ones. */
#define RSEL_ACQUIRED_AFTER(...) \
    RSEL_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/** Caller must hold the capabilities (exclusively). */
#define RSEL_REQUIRES(...) \
    RSEL_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function acquires the capabilities and returns holding them. */
#define RSEL_ACQUIRE(...) \
    RSEL_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function releases the capabilities. */
#define RSEL_RELEASE(...) \
    RSEL_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function acquires iff it returns `value`. */
#define RSEL_TRY_ACQUIRE(...) \
    RSEL_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/** Caller must NOT hold the capabilities (deadlock guard). */
#define RSEL_EXCLUDES(...) \
    RSEL_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Function returns a reference to the named capability. */
#define RSEL_RETURN_CAPABILITY(x) RSEL_THREAD_ANNOTATION(lock_returned(x))

/** Escape hatch; every use must cite the protocol that makes the
 *  unchecked access sound (e.g. acquire/release publication). */
#define RSEL_NO_THREAD_SAFETY_ANALYSIS \
    RSEL_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace rsel {

/**
 * An annotated mutex. Exactly `std::mutex` at runtime; the
 * annotations are the point. Prefer the scoped lockers below over
 * calling lock()/unlock() directly.
 */
class RSEL_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() RSEL_ACQUIRE() { mu_.lock(); }
    void unlock() RSEL_RELEASE() { mu_.unlock(); }
    bool tryLock() RSEL_TRY_ACQUIRE(true) { return mu_.try_lock(); }

    /**
     * The wrapped std::mutex, for interop with std wait machinery
     * (CondVar adopts it around a wait). Locking through this
     * reference bypasses the analysis — CondVar is the only
     * sanctioned user.
     */
    std::mutex &native() { return mu_; }

  private:
    std::mutex mu_;
};

/**
 * RAII critical section over a Mutex. The second constructor is the
 * contended-acquisition probe the arena uses: a failed try-lock
 * bumps `contended` (relaxed counter) before blocking, so arena
 * contention stays observable without a second locking idiom.
 */
class RSEL_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) RSEL_ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }

    MutexLock(Mutex &mu, std::atomic<std::uint64_t> &contended)
        RSEL_ACQUIRE(mu)
        : mu_(mu)
    {
        if (!mu_.tryLock()) {
            // Someone else holds the capability right now; count it,
            // then wait like everyone else.
            contended.fetch_add(1, std::memory_order_relaxed);
            mu_.lock();
        }
    }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

    ~MutexLock() RSEL_RELEASE() { mu_.unlock(); }

  private:
    Mutex &mu_;
};

/**
 * RAII acquisition that treats contention as a *caller bug*: the
 * capability models a single-owner contract (e.g. "one thread
 * drives a TenantConductor at a time"), so a blocked acquisition
 * means two owners and the only safe move is to panic before state
 * corrupts.
 */
class RSEL_SCOPED_CAPABILITY MutexSoleLock
{
  public:
    explicit MutexSoleLock(Mutex &mu) RSEL_ACQUIRE(mu) : mu_(mu)
    {
        if (!mu_.tryLock())
            contendedSoleOwner();
    }

    MutexSoleLock(const MutexSoleLock &) = delete;
    MutexSoleLock &operator=(const MutexSoleLock &) = delete;

    ~MutexSoleLock() RSEL_RELEASE() { mu_.unlock(); }

  private:
    [[noreturn]] static void
    contendedSoleOwner()
    {
        panic("single-owner capability contended: two threads "
              "entered a context the contract serializes");
    }

    Mutex &mu_;
};

/**
 * Scoped try-lock. Check `owns()` (or the bool conversion)
 * immediately after construction; TSA support for branching on
 * scoped try-locks is limited, so prefer `Mutex::tryLock()` in
 * annotated code and keep this for opportunistic, unannotated
 * fast paths.
 */
class RSEL_SCOPED_CAPABILITY MutexTryLock
{
  public:
    explicit MutexTryLock(Mutex &mu) RSEL_TRY_ACQUIRE(true, mu)
        : mu_(mu), owns_(mu.tryLock())
    {}

    MutexTryLock(const MutexTryLock &) = delete;
    MutexTryLock &operator=(const MutexTryLock &) = delete;

    ~MutexTryLock() RSEL_RELEASE()
    {
        if (owns_)
            mu_.unlock();
    }

    bool owns() const { return owns_; }
    explicit operator bool() const { return owns_; }

  private:
    Mutex &mu_;
    bool owns_;
};

/**
 * An annotated condition variable. wait() demands the capability in
 * its signature, which is what makes a condvar wait predicate a
 * *stated* capability: the predicate loop
 *
 *     MutexLock lock(mu_);
 *     while (!readyLocked())   // readyLocked() RSEL_REQUIRES(mu_)
 *         cv_.wait(mu_);
 *
 * cannot compile with the lock missing, and the predicate method's
 * own annotation pins which mutex the predicate is a function of.
 * Spurious wakeups are the caller's loop to absorb — there is
 * deliberately no predicate-lambda overload, because TSA cannot see
 * through a lambda into the capability context of its caller.
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    /** Atomically release `mu`, sleep, reacquire. @pre `mu` held. */
    void
    wait(Mutex &mu) RSEL_REQUIRES(mu)
    {
        // Adopt the already-held native mutex for the duration of
        // the wait, then hand ownership back to the annotated
        // wrapper: TSA sees the capability held across the call.
        std::unique_lock<std::mutex> native(mu.native(),
                                            std::adopt_lock);
        cv_.wait(native);
        native.release();
    }

    void notifyOne() { cv_.notify_one(); }
    void notifyAll() { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

} // namespace rsel

#endif // RSEL_SUPPORT_SYNC_HPP
