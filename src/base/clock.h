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
 *    TimerHeap. This is the default and the only binding production
 *    code ever sees.
 *  - SimClock (simkernel/simclock.h): virtual time advanced by an
 *    event loop over its own TimerHeap; schedule() enqueues an event,
 *    nothing waits on wall time, and a seeded scenario replays
 *    byte-identically.
 *  - In-process: LocalChannel plus an unstarted Server under either
 *    clock — the transport is a function call, the clock still decides
 *    deadlines and retries.
 *
 * A top-level caller waits on its clock with sleepUntil(): RealClock
 * sleeps, SimClock fires the events due before the instant. That is
 * how one open-loop replayer (loadgen/loadgen.h) lays out arrivals on
 * either binding.
 *
 * Both clocks keep their timers in one structure, TimerHeap
 * (base/timer_heap.h): equal deadlines fire in arming order, a TimerId
 * packs a recycled slot with the arm sequence number so stale ids
 * cancel nothing, and cancellation is lazy with bounded compaction.
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
#include <thread>

#include "base/threading.h"
#include "base/timer_heap.h"

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

    /**
     * Return once this clock reads `deadline_ns`. RealClock sleeps, or
     * returns at once for a deadline already past. SimClock fires, in
     * heap order, every event due strictly before `deadline_ns` and
     * then sets now to it: an event due exactly then stays pending, so
     * work the caller does on return runs before it, as if the caller
     * had been a timer armed ahead of it. SimClock requires
     * `deadline_ns >= now` and aborts otherwise, so a caller that
     * advances a SimClock itself between waits (an open-loop issue()
     * that runs the loop) must not wait for an instant it has passed.
     * For top-level callers only, never from a callback.
     */
    virtual void sleepUntil(int64_t deadline_ns) = 0;

    /** Timers currently armed (tests / leak checks). */
    virtual size_t pendingTimers() const = 0;

    /** True for virtual-time bindings (diagnostics, test guards). */
    virtual bool isSimulated() const { return false; }
};

/**
 * The wall-clock binding: monotonic time plus a shared timer thread.
 * One lazily started thread parks on a condvar over a TimerHeap;
 * arming is O(log n) and cancelling O(1) amortized under a single
 * mutex, which is ample for the per-RPC rates the mid-tiers see. The
 * heap's bounded lazy cancellation keeps a deadline-heavy client that
 * cancels on fast success from growing it without bound.
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
    void sleepUntil(int64_t deadline_ns) override;
    size_t pendingTimers() const override;

    /** Heap slots including dead (cancelled) ones — compaction tests. */
    size_t timerHeapSize() const;

  private:
    void timerMain();

    mutable Mutex mutex{LockRank::timer, "base.clock"};
    CondVar wakeup;
    TimerHeap timers GUARDED_BY(mutex);
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
