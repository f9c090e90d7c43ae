/**
 * @file
 * RealClock (wall time + shared timer thread) and the ambient-clock
 * registry. This file is the real binding of the Clock seam: the only
 * place on the RPC side of the tree that may read the raw monotonic
 * clock directly.
 */

#include "base/clock.h"

#include <atomic>
#include <utility>

#include "base/time_util.h"

namespace musuite {

RealClock::RealClock() = default;

RealClock::~RealClock()
{
    {
        MutexLock guard(mutex);
        stopping = true;
    }
    wakeup.notifyAll();
    if (thread.joinable())
        thread.join();
}

int64_t
RealClock::nowNanos()
{
    return musuite::nowNanos();
}

Clock::TimerId
RealClock::schedule(int64_t delay_ns, std::function<void()> fn)
{
    const int64_t deadline =
        musuite::nowNanos() + (delay_ns > 0 ? delay_ns : 0);
    TimerId id;
    {
        MutexLock guard(mutex);
        if (stopping) {
            // The timer thread has been told to exit (or never will
            // start again): an entry armed now would sit in the heap
            // forever and its callback would silently never run. Fire
            // it inline instead — the caller is mid-teardown, where
            // "immediately on this thread" beats "never".
            MutexUnlock relock(guard);
            fn();
            return 0;
        }
        id = timers.arm(deadline, std::move(fn));
        if (!started) {
            started = true;
            thread = std::thread([this] { timerMain(); });
        }
    }
    wakeup.notifyOne();
    return id;
}

bool
RealClock::cancel(TimerId id)
{
    MutexLock guard(mutex);
    return timers.cancel(id);
}

void
RealClock::sleepUntil(int64_t deadline_ns)
{
    musuite::sleepUntilNanos(deadline_ns);
}

size_t
RealClock::pendingTimers() const
{
    MutexLock guard(mutex);
    return timers.live();
}

size_t
RealClock::timerHeapSize() const
{
    MutexLock guard(mutex);
    return timers.heapSize();
}

void
RealClock::timerMain()
{
    setCurrentThreadName("clk-timer");
    setCurrentThreadRole(ThreadRole::timer);
    MutexLock lock(mutex);
    while (!stopping) {
        if (timers.empty()) {
            wakeup.wait(lock);
            continue;
        }
        const int64_t deadline = timers.nextDeadline();
        const int64_t now = musuite::nowNanos();
        if (now < deadline) {
            wakeup.waitFor(lock, deadline - now);
            continue;
        }
        std::function<void()> fn = timers.popNext().fn;
        {
            MutexUnlock relock(lock);
            fn(); // May re-arm timers; runs without the lock.
        }
    }
}

Clock &
realClock()
{
    static RealClock instance;
    return instance;
}

namespace {
std::atomic<Clock *> ambientClock{nullptr};
} // namespace

Clock &
currentClock()
{
    Clock *clock = ambientClock.load(std::memory_order_acquire);
    return clock ? *clock : realClock();
}

void
setCurrentClock(Clock *clock)
{
    ambientClock.store(clock, std::memory_order_release);
}

ScopedClock::ScopedClock(Clock &clock)
    : previous(ambientClock.exchange(&clock, std::memory_order_acq_rel))
{
}

ScopedClock::~ScopedClock()
{
    ambientClock.store(previous, std::memory_order_release);
}

} // namespace musuite
