/**
 * @file
 * Implementation of the simulated clock.
 */

#include "simkernel/simclock.h"

#include <algorithm>

#include "base/logging.h"

namespace musuite {
namespace sim {

Clock::TimerId
SimClock::schedule(int64_t delay_ns, std::function<void()> fn)
{
    const int64_t deadline =
        virtualNow + std::max<int64_t>(0, delay_ns);
    const TimerId id = timers.arm(deadline, std::move(fn));
    traceLine("arm", TimerHeap::seqOf(id), deadline);
    return id;
}

bool
SimClock::cancel(TimerId id)
{
    if (!timers.cancel(id))
        return false;
    traceLine("cancel", TimerHeap::seqOf(id), virtualNow);
    return true;
}

bool
SimClock::runOne()
{
    if (timers.empty())
        return false;
    // Popped before running: the callback may schedule or cancel.
    TimerHeap::Expired event = timers.popNext();
    MUSUITE_CHECK(event.deadlineNs >= virtualNow)
        << "sim time ran backwards";
    virtualNow = event.deadlineNs;
    traceLine("fire", event.seq, event.deadlineNs);
    const bool outer = firing;
    firing = true;
    event.fn();
    firing = outer;
    return true;
}

void
SimClock::sleepUntil(int64_t deadline_ns)
{
    MUSUITE_CHECK(!firing) << "sleepUntil from inside a sim callback";
    MUSUITE_CHECK(deadline_ns >= virtualNow)
        << "sleepUntil into the past";
    while (!timers.empty() && timers.nextDeadline() < deadline_ns)
        runOne();
    virtualNow = deadline_ns;
}

size_t
SimClock::runFor(int64_t duration_ns)
{
    MUSUITE_CHECK(duration_ns >= 0) << "negative sim advance";
    const int64_t target = virtualNow + duration_ns;
    size_t fired = 0;
    while (!timers.empty() && timers.nextDeadline() <= target) {
        runOne();
        ++fired;
    }
    virtualNow = target;
    return fired;
}

size_t
SimClock::runUntilIdle(uint64_t max_events)
{
    size_t fired = 0;
    while (runOne()) {
        ++fired;
        MUSUITE_CHECK(fired < max_events)
            << "sim event cap hit: runaway self-rescheduling loop?";
    }
    return fired;
}

bool
SimClock::runUntil(const std::function<bool()> &done,
                   uint64_t max_events)
{
    size_t fired = 0;
    while (!done()) {
        if (!runOne())
            return false;
        ++fired;
        MUSUITE_CHECK(fired < max_events)
            << "sim event cap hit: runaway self-rescheduling loop?";
    }
    return true;
}

void
SimClock::enableTrace()
{
    tracing = true;
    traceLog.clear();
}

void
SimClock::traceEvent(std::string_view label)
{
    if (!tracing)
        return;
    traceLog += "t=";
    traceLog += std::to_string(virtualNow);
    traceLog += ' ';
    traceLog.append(label.data(), label.size());
    traceLog += '\n';
}

void
SimClock::traceLine(std::string_view what, uint64_t seq, int64_t at_ns)
{
    if (!tracing)
        return;
    traceLog += "t=";
    traceLog += std::to_string(virtualNow);
    traceLog += ' ';
    traceLog.append(what.data(), what.size());
    traceLog += " id=";
    traceLog += std::to_string(seq);
    traceLog += " at=";
    traceLog += std::to_string(at_ns);
    traceLog += '\n';
}

} // namespace sim
} // namespace musuite
