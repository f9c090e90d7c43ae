/**
 * @file
 * Per-peer health tracking and statistical outlier ejection for
 * fan-outs — the gray-failure layer.
 *
 * Deadlines and retries (rpc/channel.h) only answer hard transport
 * failures one call at a time: a leaf that answers slowly-but-
 * successfully, or swallows every request, keeps receiving legs and
 * silently drags the whole fan-out's p99 forever. This file adds the
 * machinery that fast-fails a bad peer across calls:
 *
 *  - PeerHealth: a per-channel tracker fed every attempt outcome —
 *    EWMA latency, error/timeout rate over a sliding window, and the
 *    consecutive-failure streak. Pure bookkeeping, no decisions.
 *  - EjectionPolicy: owns one PeerHealth per watched channel and
 *    decides, per fan-out leg, whether a peer is a statistical
 *    outlier against its pool (EWMA above a multiple of the pool
 *    median, window failure rate over a threshold, or a failure
 *    streak). Ejected peers are skipped by fanoutCall, still receive
 *    deterministic low-rate probe traffic, and are reintroduced
 *    through a half-duty slow-start once probes succeed.
 *
 * Ejection COMPOSES with the deadline/retry stack rather than replacing
 * it: an ejected leg is skipped before the channel is touched at all,
 * so the health tracker never records the skip — one failure is never
 * counted twice.
 * Quorum math stays sound because ejections are bounded by
 * maxEjectedFraction (see DESIGN.md "Gray failures & outlier
 * ejection" for the proof sketch: pick maxEjectedFraction <=
 * 1 - quorumFraction and the surviving pool can always reach quorum).
 *
 * CLOCK SEAM: every instant (last outcome, eject/reinstate times)
 * comes from the bound Clock, and every probe/slow-start decision is
 * counter-based rather than randomized, so the whole state machine
 * replays byte-identically under SimClock.
 */

#ifndef MUSUITE_RPC_HEALTH_H
#define MUSUITE_RPC_HEALTH_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/status.h"
#include "base/threading.h"

namespace musuite {

class Clock;

namespace rpc {

class Channel;

struct PeerHealthOptions
{
    /** Weight of the newest latency sample in the EWMA. */
    double ewmaAlpha = 0.3;
    /** Sliding outcome window for the failure rate. */
    uint32_t window = 16;
};

/**
 * Health ledger of one peer. Fed by Channel::recordAttemptOutcome on
 * every attempt; read by EjectionPolicy when resolving a fan-out.
 * Failure means "transport-level evidence the peer is absent or
 * drowning" — UNAVAILABLE or DEADLINE_EXCEEDED. RESOURCE_EXHAUSTED is
 * a healthy peer shedding on purpose and counts as a non-failure, so
 * controlled shedding never causes ejection.
 */
class PeerHealth
{
  public:
    // Two constructors rather than one defaulted `= {}` argument:
    // gcc rejects brace default arguments for nested aggregates with
    // member initializers (PR 88165).
    PeerHealth() : PeerHealth(PeerHealthOptions()) {}
    /** Null clock binds the ambient clock (base/clock.h). */
    explicit PeerHealth(PeerHealthOptions options, Clock *clock = nullptr);

    /** The clock outcome instants are pinned to. */
    Clock &clock() const { return *boundClock; }

    /**
     * Record one attempt outcome. latency_ns < 0 means "unknown"
     * (e.g. an attempt settled locally without a measured round
     * trip): the outcome still counts toward rates and streaks but
     * leaves the latency EWMA untouched.
     */
    void recordOutcome(const Status &status, int64_t latency_ns);

    /** EWMA of observed attempt latencies; 0 until the first sample. */
    double ewmaLatencyNs() const;
    /** Failure fraction of the last `window` outcomes. */
    double windowFailureRate() const;
    uint32_t consecutiveFailures() const;

    uint64_t outcomes() const { return totalOutcomes.load(); }
    uint64_t successes() const { return totalSuccesses.load(); }
    uint64_t failures() const { return totalFailures.load(); }

  private:
    const PeerHealthOptions options;
    Clock *boundClock; //!< Never null; see clock().
    mutable Mutex mutex{LockRank::peerHealth, "rpc.health"};
    double ewmaNs GUARDED_BY(mutex) = 0.0;
    bool ewmaSeeded GUARDED_BY(mutex) = false;
    /** Ring buffer of the last `window` outcomes (true = failure). */
    std::vector<bool> windowRing GUARDED_BY(mutex);
    uint32_t windowFills GUARDED_BY(mutex) = 0;
    uint32_t windowFailures GUARDED_BY(mutex) = 0;
    uint32_t windowPos GUARDED_BY(mutex) = 0;
    uint32_t streak GUARDED_BY(mutex) = 0;
    std::atomic<uint64_t> totalOutcomes{0};
    std::atomic<uint64_t> totalSuccesses{0};
    std::atomic<uint64_t> totalFailures{0};
};

/**
 * Outlier-ejection policy over one fan-out's peer pool. One instance
 * per fan-out parent; watch() every downstream channel once at wiring
 * time, then hand the policy to FanoutOptions::ejection so fanoutCall
 * consults admitLeg() before issuing each leg.
 *
 * Per-peer state machine (all transitions counted and clocked):
 *
 *   Healthy --outlier && under the ejection cap--> Ejected
 *     (`health.ejected`; the leg is skipped, completing instantly as
 *      an UNAVAILABLE failure so quorum accounting still fires)
 *   Ejected: every probeEveryNth-th consult fires one *out-of-band*
 *     probe at the peer (`health.probe_sent`) — fire-and-forget, so a
 *     zombie probe burning its full deadline never drags the fan-out
 *     that triggered it; after reinstateProbes probe successes
 *     --> SlowStart (`health.reinstated`)
 *   SlowStart: half duty cycle for slowStartLegs consults (every
 *     other leg is still skipped), then Healthy. A fresh failure
 *     during slow start re-ejects immediately.
 *
 * Ejections are capped at floor(maxEjectedFraction * pool size); when
 * the cap is reached further outliers stay in rotation, so a policy
 * configured with maxEjectedFraction <= 1 - quorumFraction can never
 * starve its fan-out's quorum.
 */
class EjectionPolicy
{
  public:
    enum class PeerState { Healthy, Ejected, SlowStart };

    struct Options
    {
        /** EWMA above this multiple of the pool median is an outlier
         *  (needs >= 3 peers with enough outcomes to vote). */
        double latencyFactor = 3.0;
        /** Window failure rate at or above this is an outlier. */
        double failureRateThreshold = 0.5;
        /** Consecutive failures that make an outlier outright. */
        uint32_t failureStreakThreshold = 5;
        /** Cap: at most floor(fraction * pool) peers out at once. */
        double maxEjectedFraction = 1.0 / 3.0;
        /** Outcomes a peer needs before it can be judged at all. */
        uint32_t minOutcomes = 8;
        /** While ejected, every Nth consult sends a probe leg. */
        uint32_t probeEveryNth = 4;
        /** Probe successes required to leave Ejected. */
        uint32_t reinstateProbes = 2;
        /** Consults spent at half duty cycle after reinstatement. */
        uint32_t slowStartLegs = 8;
        PeerHealthOptions health;
    };

    EjectionPolicy() : EjectionPolicy(Options()) {} // See PeerHealth.
    /** Null clock binds the ambient clock (base/clock.h). */
    explicit EjectionPolicy(Options options, Clock *clock = nullptr);

    /** The clock ejection/reinstatement instants are pinned to. */
    Clock &clock() const { return *boundClock; }

    /**
     * Register `channel` as a pool member and install a PeerHealth on
     * it (Channel::setPeerHealth), so every attempt outcome feeds the
     * tracker this policy judges by. The channel must share the
     * policy's clock and outlive it. Watching twice is a no-op.
     */
    std::shared_ptr<PeerHealth> watch(Channel &channel);

    /** What fanoutCall should do with one leg (see admitLeg). */
    enum class LegDecision {
        Admit, //!< Issue the leg in-band; its result joins the merge.
        /** Skip: the leg completes instantly as a failure and the
         *  channel is never touched. */
        Skip,
        /** Skip for the merge, but also fire one out-of-band probe
         *  call at the peer. The probe's outcome feeds the health
         *  tracker through the normal channel path; its payload is
         *  discarded and it never gates the fan-out that sent it. */
        Probe,
    };

    /**
     * Per-leg admission gate, called by fanoutCall for every leg of
     * every fan-out. Unwatched channels are always admitted. Drives
     * the whole state machine: ejection, probing, reinstatement, and
     * slow-start all advance here.
     */
    LegDecision admitLeg(Channel *channel);

    PeerState peerState(const Channel *channel) const;
    uint64_t ejections() const { return ejectCount.load(); }
    uint64_t reinstatements() const { return reinstateCount.load(); }
    uint64_t probesSent() const { return probeCount.load(); }
    /** First ejection instant on the policy clock; -1 = never. The
     *  time-to-detect anchor: later ejections (reintroduction churn
     *  while a peer's EWMA memory drains) do not move it. */
    int64_t firstEjectAtNs() const;
    size_t ejectedCount() const;

  private:
    struct Peer
    {
        Channel *channel = nullptr;
        std::shared_ptr<PeerHealth> health;
        PeerState state = PeerState::Healthy;
        uint64_t consultsWhileEjected = 0;
        uint64_t successesAtEject = 0;
        uint64_t failuresAtReinstate = 0;
        uint32_t slowStartConsults = 0;
    };

    Peer *find(const Channel *channel) REQUIRES(mutex);
    const Peer *find(const Channel *channel) const REQUIRES(mutex);
    /** floor(maxEjectedFraction * pool size). */
    size_t ejectionCap() const REQUIRES(mutex);
    /** Median EWMA over peers with >= minOutcomes; 0 if < 3 vote. */
    double poolMedianEwmaNs() REQUIRES(mutex);
    bool isOutlier(const Peer &peer) REQUIRES(mutex);
    /** Eject if the cap allows; returns true when ejected. */
    bool tryEject(Peer &peer) REQUIRES(mutex);

    const Options options;
    Clock *boundClock; //!< Never null; see clock().
    mutable Mutex mutex{LockRank::ejection, "rpc.ejection"};
    std::vector<Peer> peers GUARDED_BY(mutex);
    /** poolMedianEwmaNs's working set, reused so a consult never
     *  allocates once it has grown to the pool size. */
    std::vector<double> medianScratch GUARDED_BY(mutex);
    size_t ejected GUARDED_BY(mutex) = 0;
    int64_t firstEjectAt GUARDED_BY(mutex) = -1;
    std::atomic<uint64_t> ejectCount{0};
    std::atomic<uint64_t> reinstateCount{0};
    std::atomic<uint64_t> probeCount{0};
};

} // namespace rpc
} // namespace musuite

#endif // MUSUITE_RPC_HEALTH_H
