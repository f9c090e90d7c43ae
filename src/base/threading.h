/**
 * @file
 * Thread utilities: annotated synchronization primitives (Mutex,
 * MutexLock, CondVar), named joining threads, and a small countdown
 * latch used to synchronize fan-out completion (the "count down and
 * merge" step of the µSuite mid-tier response path).
 *
 * Mutex/MutexLock/CondVar are thin wrappers over the std types that
 * carry Clang thread-safety annotations (see thread_annotations.h) and,
 * in MUSUITE_DEBUG_SYNC builds, feed the runtime lock-rank checker
 * (see sync_debug.h). In release builds on GCC they compile down to
 * exactly the raw std types plus two dead pointer-sized members.
 *
 * CondVar deliberately has no predicate-taking wait overloads: a lambda
 * cannot carry a REQUIRES annotation, so predicate waits would hide
 * guarded-member accesses from the analysis. Callers write the explicit
 * loop — `while (!cond) cv.wait(lock);` — inside the annotated
 * function body instead.
 */

#ifndef MUSUITE_BASE_THREADING_H
#define MUSUITE_BASE_THREADING_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/sync_debug.h"
#include "base/thread_annotations.h"

namespace musuite {

/**
 * Annotated mutex. Construct with a LockRank (and optionally a name)
 * to opt into the rank order check; default construction leaves it
 * unranked (cycle detection still applies in debug-sync builds).
 */
class CAPABILITY("mutex") Mutex
{
  public:
    // constexpr like std::mutex's, so namespace-scope instances are
    // constant-initialized and safe to use during static init.
    constexpr Mutex() noexcept = default;
    constexpr explicit Mutex(LockRank rank,
                             const char *name = nullptr) noexcept
        : debugRank(rank), debugName(name)
    {}

    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void
    lock() ACQUIRE()
    {
        syncdbg::checkAcquire(this, debugRank, debugName);
        inner.lock();
        syncdbg::recordAcquired(this, debugRank, debugName);
    }

    bool
    try_lock() TRY_ACQUIRE(true)
    {
        // No rank check: try_lock cannot deadlock, and callers use it
        // exactly where the canonical order must be bypassed.
        if (!inner.try_lock())
            return false;
        syncdbg::recordAcquired(this, debugRank, debugName);
        return true;
    }

    void
    unlock() RELEASE()
    {
        syncdbg::recordReleased(this);
        inner.unlock();
    }

    LockRank rank() const { return debugRank; }

  private:
    friend class CondVar;

    std::mutex inner;
    LockRank debugRank = LockRank::unranked;
    const char *debugName = nullptr;
};

/**
 * RAII guard for Mutex. Relockable: unlock() early to call out without
 * the lock, lock() to reacquire; the destructor releases only if held.
 */
class SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mutex) ACQUIRE(mutex) : target(mutex)
    {
        target.lock();
        held = true;
    }

    ~MutexLock() RELEASE()
    {
        if (held)
            target.unlock();
    }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

    void
    unlock() RELEASE()
    {
        target.unlock();
        held = false;
    }

    void
    lock() ACQUIRE()
    {
        target.lock();
        held = true;
    }

    bool ownsLock() const { return held; }

  private:
    friend class CondVar;

    Mutex &target;
    bool held = false;
};

/**
 * Scoped inversion of MutexLock: releases the lock on construction and
 * reacquires it when the scope ends. Replaces manual
 * `lock.unlock(); ...; lock.lock();` windows (which leak the lock in
 * the released state if the middle throws or returns early) around
 * callbacks and syscalls that must run unlocked.
 *
 *     MutexLock lock(mutex);
 *     ...
 *     {
 *         MutexUnlock relock(lock);
 *         callback(); // Runs without the lock; reacquired at `}`.
 *     }
 *
 * The reacquisition goes through MutexLock::lock(), so the debug-sync
 * held-lock stack and rank checks stay accurate across the window.
 */
class SCOPED_CAPABILITY MutexUnlock
{
  public:
    explicit MutexUnlock(MutexLock &lock) RELEASE(lock) : target(lock)
    {
        target.unlock();
    }

    ~MutexUnlock() ACQUIRE() { target.lock(); }

    MutexUnlock(const MutexUnlock &) = delete;
    MutexUnlock &operator=(const MutexUnlock &) = delete;

  private:
    MutexLock &target;
};

/**
 * Condition variable paired with Mutex/MutexLock: a plain
 * std::condition_variable over the Mutex's own std::mutex, so it
 * allocates nothing and a notify takes no lock of its own. A wait
 * takes the mutex off the debug-sync held-lock stack, vets its
 * reacquisition against the locks still held (the stack cannot change
 * while the thread blocks), and pushes it back once the wait returns,
 * so the stack is exact on both sides of the block.
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    /** Atomically release `lock`, block, reacquire. Spurious wakeups
     *  happen; always wait in a `while (!condition)` loop. */
    void
    wait(MutexLock &lock)
    {
        std::unique_lock<std::mutex> held = release(lock);
        inner.wait(held);
        reacquired(lock, held);
    }

    /** wait() with a relative timeout. Returns false on timeout. */
    bool
    waitFor(MutexLock &lock, int64_t timeoutNs)
    {
        std::unique_lock<std::mutex> held = release(lock);
        const bool woken =
            inner.wait_for(held, std::chrono::nanoseconds(timeoutNs)) ==
            std::cv_status::no_timeout;
        reacquired(lock, held);
        return woken;
    }

    void notifyOne() { inner.notify_one(); }
    void notifyAll() { inner.notify_all(); }

  private:
    /** Lend `lock`'s std::mutex to a unique_lock for the wait. */
    static std::unique_lock<std::mutex>
    release(MutexLock &lock)
    {
        Mutex &mutex = lock.target;
        syncdbg::recordReleased(&mutex);
        syncdbg::checkAcquire(&mutex, mutex.debugRank, mutex.debugName);
        return std::unique_lock<std::mutex>(mutex.inner, std::adopt_lock);
    }

    /** Take the mutex back from the wait's unique_lock. */
    static void
    reacquired(MutexLock &lock, std::unique_lock<std::mutex> &held)
    {
        held.release();
        Mutex &mutex = lock.target;
        syncdbg::recordAcquired(&mutex, mutex.debugRank, mutex.debugName);
    }

    std::condition_variable inner;
};

/** Name the calling thread (visible in /proc and debuggers). */
void setCurrentThreadName(const std::string &name);

/**
 * A joining thread with a name. Mirrors std::jthread join-on-destroy
 * semantics without the stop-token machinery we do not need.
 */
class ScopedThread
{
  public:
    ScopedThread() = default;
    ScopedThread(std::string name, std::function<void()> body);
    ~ScopedThread() { join(); }

    ScopedThread(ScopedThread &&) = default;
    ScopedThread &operator=(ScopedThread &&other);

    ScopedThread(const ScopedThread &) = delete;
    ScopedThread &operator=(const ScopedThread &) = delete;

    void join();
    bool joinable() const { return thread.joinable(); }

  private:
    std::thread thread;
};

/**
 * Countdown latch: constructed with the fan-out width, counted down by
 * leaf response handlers, waited on by whoever merges. The last
 * countDown() wakes waiters, still holding the lock: a waiter that sees
 * the count reach zero may return and destroy the latch, so the
 * notify must finish before the lock lets it see that.
 */
class CountdownLatch
{
  public:
    explicit CountdownLatch(uint32_t count) : remaining(count) {}

    /** Decrement; returns true iff this call released the latch. */
    bool
    countDown()
    {
        MutexLock lock(mutex);
        if (remaining == 0)
            return false;
        if (--remaining != 0)
            return false;
        released.notifyAll();
        return true;
    }

    /** Block until the count reaches zero. */
    void
    wait()
    {
        MutexLock lock(mutex);
        while (remaining != 0)
            released.wait(lock);
    }

    uint32_t
    pending() const
    {
        MutexLock lock(mutex);
        return remaining;
    }

  private:
    mutable Mutex mutex{LockRank::latch, "latch"};
    CondVar released;
    uint32_t remaining GUARDED_BY(mutex);
};

} // namespace musuite

#endif // MUSUITE_BASE_THREADING_H
