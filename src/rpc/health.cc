/**
 * @file
 * Implementation of the per-peer health tracker and the outlier
 * ejection policy (see health.h for the state machine).
 */

#include "rpc/health.h"

#include <algorithm>
#include <cmath>

#include "base/clock.h"
#include "base/logging.h"
#include "rpc/channel.h"
#include "stats/counters.h"

namespace musuite {
namespace rpc {

namespace {

/** Failure taxonomy: transport-level evidence only. */
bool
isTransportFailure(const Status &status)
{
    return status.code() == StatusCode::Unavailable ||
           status.code() == StatusCode::DeadlineExceeded;
}

} // namespace

// --- PeerHealth ------------------------------------------------------

PeerHealth::PeerHealth(PeerHealthOptions options_in, Clock *clock_in)
    : options(options_in),
      boundClock(clock_in != nullptr ? clock_in : &currentClock()),
      windowRing(std::max<uint32_t>(1, options_in.window), false)
{
    MUSUITE_CHECK(options.ewmaAlpha > 0.0 && options.ewmaAlpha <= 1.0)
        << "ewmaAlpha must be in (0, 1]";
}

void
PeerHealth::recordOutcome(const Status &status, int64_t latency_ns)
{
    const bool failure = isTransportFailure(status);
    totalOutcomes.fetch_add(1, std::memory_order_relaxed);
    if (failure)
        totalFailures.fetch_add(1, std::memory_order_relaxed);
    else
        totalSuccesses.fetch_add(1, std::memory_order_relaxed);

    MutexLock guard(mutex);
    if (latency_ns >= 0) {
        if (!ewmaSeeded) {
            ewmaNs = double(latency_ns);
            ewmaSeeded = true;
        } else {
            ewmaNs = options.ewmaAlpha * double(latency_ns) +
                     (1.0 - options.ewmaAlpha) * ewmaNs;
        }
    }
    // Sliding window: overwrite the oldest slot, keeping the failure
    // count incremental.
    if (windowFills == windowRing.size() && windowRing[windowPos])
        windowFailures--;
    windowRing[windowPos] = failure;
    if (failure)
        windowFailures++;
    windowPos = (windowPos + 1) % uint32_t(windowRing.size());
    if (windowFills < windowRing.size())
        windowFills++;
    streak = failure ? streak + 1 : 0;
}

double
PeerHealth::ewmaLatencyNs() const
{
    MutexLock guard(mutex);
    return ewmaSeeded ? ewmaNs : 0.0;
}

double
PeerHealth::windowFailureRate() const
{
    MutexLock guard(mutex);
    return windowFills > 0
               ? double(windowFailures) / double(windowFills)
               : 0.0;
}

uint32_t
PeerHealth::consecutiveFailures() const
{
    MutexLock guard(mutex);
    return streak;
}

// --- EjectionPolicy --------------------------------------------------

EjectionPolicy::EjectionPolicy(Options options_in, Clock *clock_in)
    : options(options_in),
      boundClock(clock_in != nullptr ? clock_in : &currentClock())
{
    MUSUITE_CHECK(options.maxEjectedFraction >= 0.0 &&
                  options.maxEjectedFraction <= 1.0)
        << "maxEjectedFraction must be in [0, 1]";
}

std::shared_ptr<PeerHealth>
EjectionPolicy::watch(Channel &channel)
{
    {
        MutexLock guard(mutex);
        if (Peer *existing = find(&channel))
            return existing->health;
    }
    auto health =
        std::make_shared<PeerHealth>(options.health, boundClock);
    channel.setPeerHealth(health);
    MutexLock guard(mutex);
    Peer peer;
    peer.channel = &channel;
    peer.health = health;
    peers.push_back(std::move(peer));
    return health;
}

EjectionPolicy::Peer *
EjectionPolicy::find(const Channel *channel)
{
    for (Peer &peer : peers) {
        if (peer.channel == channel)
            return &peer;
    }
    return nullptr;
}

const EjectionPolicy::Peer *
EjectionPolicy::find(const Channel *channel) const
{
    return const_cast<EjectionPolicy *>(this)->find(channel);
}

size_t
EjectionPolicy::ejectionCap() const
{
    return size_t(options.maxEjectedFraction * double(peers.size()));
}

double
EjectionPolicy::poolMedianEwmaNs()
{
    // Latency outliers are judged against peers with enough evidence;
    // fewer than 3 voters and "outlier vs the pool" is meaningless
    // (with 1-2 peers a slow peer IS the median neighborhood).
    medianScratch.clear();
    for (const Peer &peer : peers) {
        if (peer.health->outcomes() >= options.minOutcomes)
            medianScratch.push_back(peer.health->ewmaLatencyNs());
    }
    if (medianScratch.size() < 3)
        return 0.0;
    const auto middle = medianScratch.begin() + medianScratch.size() / 2;
    std::nth_element(medianScratch.begin(), middle, medianScratch.end());
    return *middle;
}

bool
EjectionPolicy::isOutlier(const Peer &peer)
{
    const PeerHealth &health = *peer.health;
    if (health.outcomes() < options.minOutcomes)
        return false;
    if (options.failureStreakThreshold > 0 &&
        health.consecutiveFailures() >= options.failureStreakThreshold)
        return true;
    if (options.failureRateThreshold > 0.0 &&
        health.windowFailureRate() >= options.failureRateThreshold)
        return true;
    if (options.latencyFactor <= 0.0)
        return false;
    // The pool median is computed only here, where it is first needed.
    const double pool_median_ns = poolMedianEwmaNs();
    return pool_median_ns > 0.0 &&
           health.ewmaLatencyNs() > options.latencyFactor * pool_median_ns;
}

bool
EjectionPolicy::tryEject(Peer &peer)
{
    if (ejected + 1 > ejectionCap())
        return false; // Cap reached: stay in rotation, quorum first.
    peer.state = PeerState::Ejected;
    peer.consultsWhileEjected = 0;
    peer.successesAtEject = peer.health->successes();
    ejected++;
    if (firstEjectAt < 0)
        firstEjectAt = boundClock->nowNanos();
    ejectCount.fetch_add(1, std::memory_order_relaxed);
    static Counter &ejected_counter =
        globalCounters().counter("health.ejected");
    ejected_counter.add();
    return true;
}

EjectionPolicy::LegDecision
EjectionPolicy::admitLeg(Channel *channel)
{
    MutexLock guard(mutex);
    Peer *peer = find(channel);
    if (peer == nullptr)
        return LegDecision::Admit; // Unwatched: never ejected.

    switch (peer->state) {
      case PeerState::Healthy:
        if (isOutlier(*peer) && tryEject(*peer))
            return LegDecision::Skip;
        return LegDecision::Admit;

      case PeerState::Ejected:
        // Reinstate once enough probes have come back OK since the
        // ejection (probe outcomes land in the tracker through the
        // normal channel path).
        if (peer->health->successes() - peer->successesAtEject >=
            options.reinstateProbes) {
            peer->state = PeerState::SlowStart;
            peer->failuresAtReinstate = peer->health->failures();
            ejected--;
            reinstateCount.fetch_add(1, std::memory_order_relaxed);
            static Counter &reinstated =
                globalCounters().counter("health.reinstated");
            reinstated.add();
            // This consult is the first slow-start leg: admit it.
            peer->slowStartConsults = 1;
            return LegDecision::Admit;
        }
        peer->consultsWhileEjected++;
        if (options.probeEveryNth > 0 &&
            peer->consultsWhileEjected % options.probeEveryNth == 0) {
            probeCount.fetch_add(1, std::memory_order_relaxed);
            static Counter &probe_sent =
                globalCounters().counter("health.probe_sent");
            probe_sent.add();
            return LegDecision::Probe; // Out-of-band, never merged.
        }
        return LegDecision::Skip;

      case PeerState::SlowStart:
        // Any new transport failure while ramping re-ejects (the peer
        // was given a chance and blew it); if the cap is taken by
        // someone else meanwhile, fall back to full rotation.
        if (peer->health->failures() > peer->failuresAtReinstate) {
            if (tryEject(*peer))
                return LegDecision::Skip;
            peer->state = PeerState::Healthy;
            return LegDecision::Admit;
        }
        peer->slowStartConsults++;
        if (peer->slowStartConsults > options.slowStartLegs) {
            peer->state = PeerState::Healthy;
            return LegDecision::Admit;
        }
        // Half duty cycle: every other consult still skips.
        return peer->slowStartConsults % 2 == 1
                   ? LegDecision::Admit
                   : LegDecision::Skip;
    }
    return LegDecision::Admit;
}

EjectionPolicy::PeerState
EjectionPolicy::peerState(const Channel *channel) const
{
    MutexLock guard(mutex);
    const Peer *peer = find(channel);
    return peer != nullptr ? peer->state : PeerState::Healthy;
}

int64_t
EjectionPolicy::firstEjectAtNs() const
{
    MutexLock guard(mutex);
    return firstEjectAt;
}

size_t
EjectionPolicy::ejectedCount() const
{
    MutexLock guard(mutex);
    return ejected;
}

} // namespace rpc
} // namespace musuite
