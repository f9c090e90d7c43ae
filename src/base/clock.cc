/**
 * @file
 * RealClock (wall time + shared timer thread) and the ambient-clock
 * registry. This file is the real binding of the Clock seam: the only
 * place on the RPC side of the tree that may read the raw monotonic
 * clock directly.
 */

#include "base/clock.h"

#include <atomic>

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
        id = nextId++;
        armed.emplace(id, Armed{deadline, std::move(fn)});
        heap.emplace(deadline, id);
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
    // Lazy cancellation: the heap entry stays and is skipped when it
    // surfaces, so cancel never has to search the heap — but a
    // cancel-heavy workload (fast successes under deadlines) must not
    // accumulate dead entries, so compact once they are the majority.
    MutexLock guard(mutex);
    const bool live = armed.erase(id) > 0;
    if (live && heap.size() >= 64 && heap.size() > 2 * armed.size())
        compactHeap();
    return live;
}

void
RealClock::compactHeap()
{
    std::vector<std::pair<int64_t, TimerId>> entries;
    entries.reserve(armed.size());
    for (const auto &[id, timer] : armed)
        entries.emplace_back(timer.deadlineNs, id);
    heap = std::priority_queue<std::pair<int64_t, TimerId>,
                               std::vector<std::pair<int64_t, TimerId>>,
                               std::greater<>>(std::greater<>(),
                                               std::move(entries));
    // No wakeup needed: compaction never makes the earliest *live*
    // deadline earlier, so the timer thread's current wait is valid.
}

size_t
RealClock::pendingTimers() const
{
    MutexLock guard(mutex);
    return armed.size();
}

size_t
RealClock::timerHeapSize() const
{
    MutexLock guard(mutex);
    return heap.size();
}

void
RealClock::timerMain()
{
    setCurrentThreadName("clk-timer");
    setCurrentThreadRole(ThreadRole::timer);
    MutexLock lock(mutex);
    while (!stopping) {
        // Drop cancelled heads so the wait below targets a live timer.
        while (!heap.empty() && armed.find(heap.top().second) ==
                                    armed.end()) {
            heap.pop();
        }
        if (heap.empty()) {
            wakeup.wait(lock);
            continue;
        }
        const int64_t deadline = heap.top().first;
        const int64_t now = musuite::nowNanos();
        if (now < deadline) {
            wakeup.waitFor(lock, deadline - now);
            continue;
        }
        const TimerId id = heap.top().second;
        heap.pop();
        auto it = armed.find(id);
        if (it == armed.end())
            continue; // Cancelled while due.
        std::function<void()> fn = std::move(it->second.fn);
        armed.erase(it);
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
