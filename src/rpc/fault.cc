/**
 * @file
 * Implementation of the fault injector.
 */

#include "rpc/fault.h"

#include "stats/counters.h"

namespace musuite {
namespace rpc {

namespace {

/** True when `ordinal` falls in a healthy flap window (windows of
 *  flapPeriod calls alternate faulty, healthy, faulty, ...). */
bool
inHealthyFlapWindow(uint64_t flap_period, uint64_t ordinal)
{
    return flap_period != 0 && ((ordinal - 1) / flap_period) % 2 == 1;
}

} // namespace

namespace {

Counter &
injectedCounter()
{
    static Counter &injected = globalCounters().counter("rpc.fault.injected");
    return injected;
}

} // namespace

FaultDecision
FaultInjector::onRequest()
{
    const uint64_t ordinal =
        requestCount.fetch_add(1, std::memory_order_relaxed) + 1;
    FaultDecision decision = decideRequest(ordinal);
    if (decision.kind != FaultDecision::Kind::None) {
        faultCount.fetch_add(1, std::memory_order_relaxed);
        injectedCounter().add();
    }
    return decision;
}

FaultDecision
FaultInjector::decideRequest(uint64_t ordinal)
{
    FaultDecision decision;
    if (inHealthyFlapWindow(spec.flapPeriod, ordinal))
        return decision;
    if (spec.errorFirstN && ordinal <= spec.errorFirstN) {
        decision.kind = FaultDecision::Kind::Error;
        decision.status = Status(spec.errorCode, "injected fault");
        return decision;
    }
    if (spec.delayFirstN && ordinal <= spec.delayFirstN) {
        decision.kind = FaultDecision::Kind::Delay;
        decision.delayNs = spec.delayNs;
        return decision;
    }
    if (spec.dropEveryNth && ordinal % spec.dropEveryNth == 0) {
        decision.kind = FaultDecision::Kind::Drop;
        return decision;
    }
    if (spec.delayEveryNth && ordinal % spec.delayEveryNth == 0) {
        decision.kind = FaultDecision::Kind::Delay;
        // Slow ramp: the delay grows with the request ordinal, so the
        // peer stays successful while its latency drifts away from
        // the pool — the gray shape outlier ejection exists for.
        decision.delayNs =
            spec.delayNs +
            spec.delayRampPerCallNs * int64_t(ordinal - 1);
        return decision;
    }

    MutexLock guard(mutex);
    if (spec.errorProb > 0 && rng.nextBool(spec.errorProb)) {
        decision.kind = FaultDecision::Kind::Error;
        decision.status = Status(spec.errorCode, "injected fault");
    } else if (spec.dropRequestProb > 0 &&
               rng.nextBool(spec.dropRequestProb)) {
        decision.kind = FaultDecision::Kind::Drop;
    } else if (spec.delayRequestProb > 0 &&
               rng.nextBool(spec.delayRequestProb)) {
        decision.kind = FaultDecision::Kind::Delay;
        decision.delayNs = spec.delayNs;
    }
    return decision;
}

FaultDecision
FaultInjector::onResponse()
{
    const uint64_t ordinal =
        responseCount.fetch_add(1, std::memory_order_relaxed) + 1;
    FaultDecision decision = decideResponse(ordinal);
    if (decision.kind != FaultDecision::Kind::None) {
        faultCount.fetch_add(1, std::memory_order_relaxed);
        injectedCounter().add();
    }
    return decision;
}

FaultDecision
FaultInjector::decideResponse(uint64_t ordinal)
{
    FaultDecision decision;
    if (inHealthyFlapWindow(spec.flapPeriod, ordinal))
        return decision;
    // Response-side delays have their own duration knob so the two
    // directions shape independently (asymmetric partition); 0 keeps
    // the shared delayNs for existing specs.
    const int64_t delay_ns =
        spec.responseDelayNs != 0 ? spec.responseDelayNs : spec.delayNs;
    if (spec.dropResponseEveryNth &&
        ordinal % spec.dropResponseEveryNth == 0) {
        decision.kind = FaultDecision::Kind::Drop;
        return decision;
    }
    if (spec.delayResponseEveryNth &&
        ordinal % spec.delayResponseEveryNth == 0) {
        decision.kind = FaultDecision::Kind::Delay;
        decision.delayNs = delay_ns;
    }
    return decision;
}

} // namespace rpc
} // namespace musuite
