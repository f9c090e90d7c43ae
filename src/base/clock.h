/**
 * @file
 * The Clock seam: one interface through which the RPC resilience layer
 * (and anything else that schedules future work) reads time and arms
 * one-shot timers, so the same protocol code runs against the real
 * monotonic clock *or* a deterministic simulated clock.
 *
 * Three bindings exist:
 *
 *  - RealClock (here): wall time via the monotonic clock plus one
 *    lazily started timer thread parked on a condvar over a
 *    deadline-ordered heap. This is the default and the only binding
 *    production code ever sees.
 *  - SimClock (simkernel/simclock.h): virtual time advanced by an
 *    event loop; schedule() enqueues an event, nothing waits on wall
 *    time, and a seeded scenario replays byte-identically.
 *  - In-process: LocalChannel plus an unstarted Server under either
 *    clock — the transport is a function call, the clock still decides
 *    deadlines and retries.
 *
 * DETERMINISM CONTRACT: code on the seam must obtain *all* time from
 * its bound Clock — absolute deadlines pinned with nowNanos() and
 * future work armed with schedule() — and must never compare an
 * absolute timestamp from one Clock against one from another. Relative
 * durations (wire budgets, retry-after hints, backoff delays) are
 * clock-free and may cross bindings. tools/check.sh enforces the
 * narrow waist by rejecting direct ::nowNanos() calls inside src/rpc/
 * and src/services/.
 */

#ifndef MUSUITE_BASE_CLOCK_H
#define MUSUITE_BASE_CLOCK_H

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "base/threading.h"

namespace musuite {

/**
 * Time source + one-shot timer service. Implementations must make
 * nowNanos() monotonic and must run each scheduled callback at most
 * once; cancel() prevents a not-yet-fired callback from ever running.
 */
class Clock
{
  public:
    using TimerId = uint64_t;

    virtual ~Clock() = default;

    /** Nanoseconds on this clock's monotonic timeline. */
    virtual int64_t nowNanos() = 0;

    /**
     * Run `fn` once `delay_ns` has elapsed on this clock (immediately
     * — but still from the clock's dispatch context — for delays
     * <= 0). Callbacks should be short or hand off elsewhere: they
     * share one dispatch context with every other armed timer.
     */
    virtual TimerId schedule(int64_t delay_ns,
                             std::function<void()> fn) = 0;

    /**
     * Cancel an armed timer. Returns true iff the callback had not
     * fired (and now never will). Safe to call with stale or zero ids.
     */
    virtual bool cancel(TimerId id) = 0;

    /** Timers currently armed (tests / leak checks). */
    virtual size_t pendingTimers() const = 0;

    /** True for virtual-time bindings (diagnostics, test guards). */
    virtual bool isSimulated() const { return false; }
};

/**
 * The wall-clock binding: monotonic time plus a shared timer thread.
 * One lazily started thread parks on a condvar over a deadline-ordered
 * heap; arming and cancelling are O(log n) under a single mutex, which
 * is ample for the per-RPC rates the mid-tiers see.
 *
 * Cancellation is lazy — the heap entry stays until it surfaces — but
 * bounded: when dead heap entries outnumber live timers the heap is
 * compacted in place, so a deadline-heavy client that cancels on
 * fast success cannot grow the heap without bound.
 */
class RealClock final : public Clock
{
  public:
    RealClock();
    ~RealClock() override;

    RealClock(const RealClock &) = delete;
    RealClock &operator=(const RealClock &) = delete;

    int64_t nowNanos() override;

    /**
     * See Clock::schedule. If the clock is already stopping (its
     * destructor has begun — static teardown), the callback runs
     * inline on the calling thread and 0 is returned: a callback
     * armed after the timer thread has been told to exit would
     * otherwise never fire, silently leaking whatever completion it
     * carried.
     */
    TimerId schedule(int64_t delay_ns, std::function<void()> fn) override;

    bool cancel(TimerId id) override;
    size_t pendingTimers() const override;

    /** Heap slots including dead (cancelled) ones — compaction tests. */
    size_t timerHeapSize() const;

  private:
    struct Armed
    {
        int64_t deadlineNs;
        std::function<void()> fn;
    };

    void timerMain();
    /** Rebuild the heap from the live timers. Call with mutex held. */
    void compactHeap();

    mutable Mutex mutex{LockRank::timer, "base.clock"};
    CondVar wakeup;
    /** Armed timers by id; the heap holds (deadline, id) references. */
    std::map<TimerId, Armed> armed GUARDED_BY(mutex);
    std::priority_queue<std::pair<int64_t, TimerId>,
                        std::vector<std::pair<int64_t, TimerId>>,
                        std::greater<>>
        heap GUARDED_BY(mutex);
    TimerId nextId GUARDED_BY(mutex) = 1;
    bool started GUARDED_BY(mutex) = false;
    bool stopping GUARDED_BY(mutex) = false;
    std::thread thread;
};

/**
 * Process-wide RealClock shared by every channel. The backing thread
 * starts on first use and stops at static destruction; callbacks must
 * not assume they run before program exit.
 */
Clock &realClock();

/**
 * The ambient clock new channels/servers/trackers bind at
 * construction: realClock() unless overridden. The override exists so
 * a test or sim scenario can build an entire object graph on a
 * SimClock without threading a clock parameter through every
 * constructor; it is process-global and meant to be flipped only from
 * single-threaded setup code (use ScopedClock).
 */
Clock &currentClock();

/** Override the ambient clock; null restores realClock(). */
void setCurrentClock(Clock *clock);

/** RAII ambient-clock override for sim scenarios and tests. */
class ScopedClock
{
  public:
    explicit ScopedClock(Clock &clock);
    ~ScopedClock();

    ScopedClock(const ScopedClock &) = delete;
    ScopedClock &operator=(const ScopedClock &) = delete;

  private:
    Clock *previous;
};

} // namespace musuite

#endif // MUSUITE_BASE_CLOCK_H
