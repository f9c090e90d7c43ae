/**
 * @file
 * Implementation of the gradient admission controller.
 */

#include "rpc/overload.h"

#include <algorithm>

namespace musuite {
namespace rpc {

// ---------------------------------------------------------------------
// GradientAdmission
// ---------------------------------------------------------------------

GradientAdmission::GradientAdmission(Options options_in)
    : options(options_in), limit(options_in.initialLimit)
{
}

bool
GradientAdmission::admit()
{
    MutexLock guard(mutex);
    if (double(inflightCount) >= limit)
        return false;
    inflightCount++;
    return true;
}

void
GradientAdmission::onAdmittedComplete(int64_t latency_ns)
{
    if (latency_ns < 0)
        latency_ns = 0;
    MutexLock guard(mutex);
    if (inflightCount > 0)
        inflightCount--;

    // Windowed minimum RTT: commit the smallest sample of each window
    // as the new estimate, so the floor can rise again after a
    // transient that produced an unrealistically small minimum.
    if (windowSamples == 0 || latency_ns < windowMin)
        windowMin = latency_ns;
    if (minRtt == 0 || latency_ns < minRtt)
        minRtt = latency_ns;
    if (++windowSamples >= options.rttWindow) {
        minRtt = windowMin;
        windowSamples = 0;
    }

    // AIMD on residence vs. the no-queueing floor: decrease
    // multiplicatively while samples show queueing, creep up
    // additively (1/limit per sample) while they do not.
    if (minRtt > 0 &&
        double(latency_ns) > options.tolerance * double(minRtt)) {
        limit = std::max(options.minLimit, limit * options.decrease);
    } else {
        limit = std::min(options.maxLimit,
                         limit + options.increase / std::max(1.0, limit));
    }
}

void
GradientAdmission::onAdmittedDropped()
{
    MutexLock guard(mutex);
    if (inflightCount > 0)
        inflightCount--;
}

int64_t
GradientAdmission::retryAfterHintNs() const
{
    MutexLock guard(mutex);
    // One service time per admitted request ahead of the caller: the
    // earliest instant a retry could plausibly find a free slot.
    return minRtt > 0 ? minRtt * int64_t(inflightCount + 1) : 0;
}

double
GradientAdmission::currentLimit() const
{
    MutexLock guard(mutex);
    return limit;
}

int64_t
GradientAdmission::minRttNs() const
{
    MutexLock guard(mutex);
    return minRtt;
}

size_t
GradientAdmission::inflight() const
{
    MutexLock guard(mutex);
    return inflightCount;
}

} // namespace rpc
} // namespace musuite
