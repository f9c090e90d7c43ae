/**
 * @file
 * SimClock: the simulated binding of the base/clock.h seam.
 *
 * Virtual time plus a deterministic event loop. schedule() enqueues an
 * event at (now + delay); nothing ever waits on wall time. Events live
 * in the same TimerHeap (base/timer_heap.h) RealClock uses: events at
 * equal virtual instants fire in arming order (a strictly increasing
 * sequence breaks ties), so a seeded scenario replays byte-identically
 * run after run — the property the sim-mode regression tests and the
 * check.sh seed sweep assert. Arming, firing and cancelling allocate
 * nothing beyond the callback itself once the heap has warmed up, and
 * the callback allocates nothing either when its captures are at most
 * two pointers (libstdc++'s std::function stores a trivially copyable
 * callable that small in place).
 *
 * SINGLE-THREADED BY CONTRACT: a SimClock and every object bound to it
 * (channels, unstarted servers, health trackers) must be driven from
 * one thread. That is what makes determinism cheap — no mutex, no
 * ordering ambiguity. Real threads (started servers, RpcClient pollers) must
 * never share a SimClock; Channel::setPeerHealth and the sim
 * transport check clock domains to keep that from happening silently.
 *
 * Driving the loop:
 *  - runOne() fires the single earliest event (advancing now to it);
 *  - sleepUntil(t) fires everything due before t, then pins now = t;
 *  - runFor(d) fires everything due within d, then pins now = start+d;
 *  - runUntilIdle() drains the queue (with a runaway-event cap);
 *  - runUntil(pred) drains until the predicate holds.
 *
 * The trace facility records one line per arm/fire/cancel plus
 * caller-injected marks; two runs of the same seeded scenario must
 * produce byte-identical traces. A timer line's `id=` is the event's
 * arm sequence number (1, 2, 3, ... per clock), not its TimerId.
 */

#ifndef MUSUITE_SIMKERNEL_SIMCLOCK_H
#define MUSUITE_SIMKERNEL_SIMCLOCK_H

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>

#include "base/clock.h"
#include "base/timer_heap.h"

namespace musuite {
namespace sim {

class SimClock final : public Clock
{
  public:
    explicit SimClock(int64_t start_ns = 0) : virtualNow(start_ns) {}

    SimClock(const SimClock &) = delete;
    SimClock &operator=(const SimClock &) = delete;

    int64_t nowNanos() override { return virtualNow; }

    /** Negative delays clamp to zero (fire next, still in order). */
    TimerId schedule(int64_t delay_ns, std::function<void()> fn) override;

    bool cancel(TimerId id) override;

    /**
     * Fire every event due strictly before `deadline_ns`, then set now
     * to it. Refuses a deadline in the past and a call from inside a
     * firing callback.
     */
    void sleepUntil(int64_t deadline_ns) override;

    size_t pendingTimers() const override { return timers.live(); }

    /** Heap entries including dead (cancelled) ones — compaction tests. */
    size_t timerHeapSize() const { return timers.heapSize(); }

    bool isSimulated() const override { return true; }

    // --- driving the event loop -------------------------------------

    /**
     * Fire the earliest pending event, advancing virtual time to its
     * deadline. Returns false (and moves no time) if the queue is
     * empty.
     */
    bool runOne();

    /**
     * Fire every event due in the next `duration_ns`, then set now to
     * exactly start + duration_ns (even if the queue emptied early).
     * Returns the number of events fired.
     */
    size_t runFor(int64_t duration_ns);

    /**
     * Drain the queue. Fires at most `max_events` (a runaway-loop
     * backstop — e.g. a retry loop rescheduling itself forever);
     * hitting the cap aborts loudly rather than spinning silently.
     * Returns the number of events fired.
     */
    size_t runUntilIdle(uint64_t max_events = 10'000'000);

    /**
     * Fire events until `done()` returns true. Returns true if the
     * predicate was met, false if the queue went idle first.
     */
    bool runUntil(const std::function<bool()> &done,
                  uint64_t max_events = 10'000'000);

    // --- deterministic trace ----------------------------------------

    /** Start recording; clears any previous trace. */
    void enableTrace();

    /** True once enableTrace() ran: a caller builds a label for
     *  traceEvent only then, so an untraced run pays nothing. */
    bool isTracing() const { return tracing; }

    /** Append "t=<now> <label>" to the trace (no-op if not tracing). */
    void traceEvent(std::string_view label);

    const std::string &trace() const { return traceLog; }
    std::string takeTrace() { return std::move(traceLog); }

  private:
    void traceLine(std::string_view what, uint64_t seq, int64_t at_ns);

    int64_t virtualNow;
    TimerHeap timers; //!< Pop order IS execution order.
    bool firing = false; //!< Inside an event callback.
    bool tracing = false;
    std::string traceLog;
};

} // namespace sim
} // namespace musuite

#endif // MUSUITE_SIMKERNEL_SIMCLOCK_H
