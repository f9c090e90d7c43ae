/**
 * @file
 * Asynchronous fan-out/merge helper shared by every µSuite mid-tier.
 *
 * The mid-tier request path launches one RPC per leaf shard and
 * returns; leaf responses arrive on the client's completion threads,
 * which "count down and merge" (paper §IV): every response thread
 * stashes its payload and counts down, and only the completing one
 * does real work — running the merge functor and completing the
 * parent RPC. fanoutCall() is that count-down; serveFanout() wraps it
 * into the whole mid-tier response path, so a handler only shapes its
 * per-leaf requests and supplies a fold that merges the decoded legs.
 *
 * Resilience (the fan-out is where a single slow or dead leaf defines
 * the parent's tail):
 *
 *  - Per-leg call options (FanoutOptions::leg) give every leg a
 *    deadline and retry budget, so a dead leaf turns into a fast
 *    per-leg error instead of a parent hang.
 *  - A quorum threshold completes the parent early with partial
 *    results once (a) that many legs have answered OK and (b) at
 *    least one leg has terminally failed — an observed failure is the
 *    signal that waiting for the rest is likely wasted. Stragglers
 *    are abandoned: their slots are reported as DEADLINE_EXCEEDED and
 *    the outcome is flagged degraded. While every leg is healthy the
 *    parent waits for all of them, so healthy traffic is never marked
 *    degraded. Late straggler responses are counted (fanout.late_leg)
 *    and dropped.
 *  - serveFanout() owns the multi-hop propagation contract (DESIGN.md
 *    "Multi-hop propagation contract"): fail fast on an expired
 *    budget, clamp legs to the budget left at issue time, OR degraded
 *    flags through, and report the dominant failure when no leg
 *    answered.
 *
 * THREADING CONTRACT: on_complete is invoked exactly once, on the
 * thread of whichever leg completes the fan-out — a completion
 * thread, the bound clock's timer-dispatch context, or *synchronously
 * on the caller's own thread* when every leg fails inline (e.g.
 * connect failure on every channel). Merge code must not hold locks
 * across fanoutCall() that on_complete also takes, and must not
 * assume completion-thread context.
 *
 * CLOCK SEAM: the fan-out itself never reads a clock — each leg's
 * deadline and retry timers run on that leg's channel clock, and
 * the inbound budget it clamps legs by is a relative duration, so a
 * fan-out runs unmodified under the simulated clock (every leg
 * channel must share one clock domain with the parent call).
 */

#ifndef MUSUITE_SERVICES_COMMON_FANOUT_H
#define MUSUITE_SERVICES_COMMON_FANOUT_H

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/logging.h"
#include "base/threading.h"
#include "rpc/channel.h"
#include "rpc/health.h"
#include "rpc/server.h"
#include "serde/wire.h"
#include "stats/counters.h"

namespace musuite {

/** Outcome of one leaf RPC within a fan-out. */
struct LeafResult
{
    Status status;
    std::string payload;
    uint32_t tag = 0; //!< The leg's FanoutRequest::tag.
};

/** One leg of a fan-out: which channel to call and with what body. */
struct FanoutRequest
{
    rpc::Channel *channel = nullptr;
    std::string body;
    /** Caller-meaningful tag (e.g. leaf index), carried to the merge
     *  as LeafResult::tag. */
    uint32_t tag = 0;
};

/** Resilience knobs for one fan-out. Defaults reproduce the classic
 *  behaviour: plain calls, wait for every leg. */
struct FanoutOptions
{
    rpc::CallOptions leg; //!< Applied to every leg.
    /**
     * 0 = wait for all legs. Otherwise, once any leg has failed,
     * complete the parent as soon as this many legs have answered OK,
     * abandoning the rest.
     */
    uint32_t quorum = 0;
    /**
     * Optional outlier-ejection gate (rpc/health.h), consulted per
     * leg before the call is issued. A refused leg is skipped: it
     * completes instantly as an UNAVAILABLE failure without touching
     * its channel (so the health tracker never sees the skip), and
     * counts under fanout.outlier_skipped. Not owned; the policy must
     * outlive the fan-out.
     */
    rpc::EjectionPolicy *ejection = nullptr;
};

/** What the merge receives. */
struct FanoutOutcome
{
    /**
     * One entry per request, in request order. Abandoned stragglers
     * carry DEADLINE_EXCEEDED.
     */
    std::vector<LeafResult> results;
    uint32_t okLegs = 0;
    /** True iff the parent completed without every leg OK — merged
     *  from partial results. */
    bool degraded = false;
};

/**
 * Mid-tier-level fan-out policy, resolved against the actual leg
 * count per request (services don't know their fan-out width until
 * the request path has run).
 */
struct FanoutPolicy
{
    rpc::CallOptions leg;
    /**
     * Fraction of legs whose OK answers complete the parent early
     * once any leg has failed (>= 1.0 means wait for all). At least
     * one leg is always required.
     */
    double quorumFraction = 1.0;
    /**
     * Optional shared outlier-ejection policy for this fan-out's peer
     * pool; copied into every resolved FanoutOptions. Configure its
     * maxEjectedFraction <= 1 - quorumFraction so ejection can never
     * starve the quorum (DESIGN.md "Gray failures & outlier
     * ejection").
     */
    std::shared_ptr<rpc::EjectionPolicy> ejection;

    /** Clamp a call's deadlines to an inbound budget: a downstream
     *  attempt is never promised longer than the end-to-end caller
     *  will wait. 0 budget = no inbound deadline, no clamping. */
    static void
    clampToBudget(rpc::CallOptions &options, int64_t inbound_budget_ns)
    {
        if (inbound_budget_ns <= 0)
            return;
        auto clamp = [inbound_budget_ns](int64_t &deadline_ns) {
            if (deadline_ns == 0 || deadline_ns > inbound_budget_ns)
                deadline_ns = inbound_budget_ns;
        };
        clamp(options.deadlineNs);
        clamp(options.totalDeadlineNs);
    }

    /**
     * Options for one fan-out of `legs` legs, with every leg's
     * deadlines clamped to the budget the mid-tier's own caller has
     * left (ServerCall::remainingBudgetNs; 0 = no inbound deadline, no
     * clamping). A leaf is never given longer than the end-to-end
     * caller will wait, so work the client has abandoned is not
     * re-queued downstream, and legs with no deadline of their own
     * inherit the inbound one.
     *
     * The budget must be read at issue time, not captured at
     * admission: the remaining budget shrinks by local queueing +
     * service time, and each hop of a deep DAG must forward only what
     * is actually left (the depth-3 re-promise bug). serveFanout()
     * does exactly that.
     */
    FanoutOptions
    resolve(size_t legs, int64_t inbound_budget_ns) const
    {
        FanoutOptions options;
        options.leg = leg;
        options.ejection = ejection.get();
        if (quorumFraction < 1.0 && legs > 0) {
            options.quorum = std::max<uint32_t>(
                1, uint32_t(std::ceil(quorumFraction * double(legs))));
        }
        clampToBudget(options.leg, inbound_budget_ns);
        return options;
    }

    /**
     * Budget-clamped options for a *single* downstream call outside a
     * fanoutCall (e.g. the router's sequential failover walk). Same
     * clamp as resolve(legs, budget); mulint's deadline-taint rule
     * accepts either as evidence that a services call site propagates
     * its inbound deadline.
     */
    rpc::CallOptions
    legOptions(int64_t inbound_budget_ns) const
    {
        rpc::CallOptions options = leg;
        clampToBudget(options, inbound_budget_ns);
        return options;
    }
};

/**
 * Fail a call immediately when its inbound budget has already run out,
 * before any downstream RPC is issued. Returns true (and responds
 * DEADLINE_EXCEEDED) if the call was completed here. Every mid-tier
 * handler calls this first: forwarding an expired budget's 1ns
 * sentinel downstream just burns a full round of leaf work to produce
 * an answer the root stopped waiting for (the depth-3 in-queue-expiry
 * symptom).
 */
inline bool
failFastIfExpired(const rpc::ServerCallPtr &call)
{
    if (!call->budgetSpent())
        return false;
    globalCounters().counter("fanout.expired_before_fanout").add();
    call->respond(StatusCode::DeadlineExceeded, "");
    return true;
}

/**
 * The status a mid-tier should report upstream when a fan-out (or
 * failover walk) produced no usable result. Shed responses dominate:
 * if any leg was RESOURCE_EXHAUSTED, return RESOURCE_EXHAUSTED
 * carrying the *maximum* retry-after hint seen, so the root's backoff
 * is paced by the most-loaded downstream instead of hammering it
 * (retry amplification). Otherwise deadline expiry dominates plain
 * unavailability.
 */
inline Status
dominantFailure(const std::vector<LeafResult> &results,
                const std::string &message)
{
    bool saw_exhausted = false;
    bool saw_deadline = false;
    int64_t max_retry_after = 0;
    for (const LeafResult &result : results) {
        if (result.status.isOk())
            continue;
        switch (result.status.code()) {
        case StatusCode::ResourceExhausted:
            saw_exhausted = true;
            max_retry_after = std::max(max_retry_after,
                                       result.status.retryAfterNs());
            break;
        case StatusCode::DeadlineExceeded:
            saw_deadline = true;
            break;
        default:
            break;
        }
    }
    if (saw_exhausted) {
        Status status(StatusCode::ResourceExhausted, message);
        status.setRetryAfterNs(max_retry_after);
        return status;
    }
    if (saw_deadline)
        return Status(StatusCode::DeadlineExceeded, message);
    return Status(StatusCode::Unavailable, message);
}

/** Complete a ServerCall with a failure Status, forwarding its
 *  retry-after hint into the response header's budget slot. */
inline void
respondFailure(const rpc::ServerCallPtr &call, const Status &status)
{
    call->respond(status.code(), "", status.retryAfterNs());
}

/**
 * Issue all requests asynchronously; invoke on_complete exactly once
 * (see the threading contract above) with one result per request in
 * request order.
 *
 * @param method Method id used for every leg.
 */
inline void
fanoutCall(uint32_t method, std::vector<FanoutRequest> requests,
           FanoutOptions options,
           std::function<void(FanoutOutcome)> on_complete)
{
    MUSUITE_CHECK(!requests.empty()) << "empty fan-out";

    struct SharedState
    {
        Mutex mutex{LockRank::fanout, "fanout"};
        std::vector<LeafResult> results GUARDED_BY(mutex);
        std::vector<bool> arrived GUARDED_BY(mutex);
        uint32_t completedLegs GUARDED_BY(mutex) = 0;
        uint32_t okLegs GUARDED_BY(mutex) = 0;
        bool done GUARDED_BY(mutex) = false;
        uint32_t legs;
        uint32_t quorum;
        std::function<void(FanoutOutcome)> merge;

        SharedState(const std::vector<FanoutRequest> &requests,
                    uint32_t quorum)
            : results(requests.size()), arrived(requests.size(), false),
              legs(uint32_t(requests.size())), quorum(quorum)
        {
            for (size_t i = 0; i < requests.size(); ++i)
                results[i].tag = requests[i].tag;
        }
    };
    const uint32_t quorum =
        options.quorum == 0
            ? 0
            : std::min<uint32_t>(options.quorum,
                                 uint32_t(requests.size()));
    auto state = std::make_shared<SharedState>(requests, quorum);
    state->merge = std::move(on_complete);
    globalCounters().counter("fanout.calls").add();

    // Outlier ejection: consult the policy per leg before anything is
    // issued. A refused leg never touches its channel in-band — no
    // transport traffic, no health recording (skips
    // are not evidence about the peer, and counting them would
    // double-book the original failures that caused the ejection).
    // The leg is pre-marked as an instant UNAVAILABLE completion so
    // the quorum arithmetic below sees a terminal failure
    // immediately: with a quorum set, the parent completes as soon as
    // the healthy legs answer instead of waiting out the ejected
    // peer's deadline. Probe legs are pre-marked the same way for the
    // merge, then fired out-of-band below: their outcomes feed the
    // peer's health tracker through the normal channel path, but a
    // zombie probe burning its deadline never drags this fan-out.
    std::vector<bool> skip;
    std::vector<size_t> probes;
    uint32_t skipped = 0;
    if (options.ejection != nullptr) {
        skip.assign(requests.size(), false);
        for (size_t i = 0; i < requests.size(); ++i) {
            switch (options.ejection->admitLeg(requests[i].channel)) {
            case rpc::EjectionPolicy::LegDecision::Admit:
                break;
            case rpc::EjectionPolicy::LegDecision::Probe:
                probes.push_back(i);
                [[fallthrough]];
            case rpc::EjectionPolicy::LegDecision::Skip:
                skip[i] = true;
                skipped++;
                break;
            }
        }
        if (skipped > 0) {
            globalCounters()
                .counter("fanout.outlier_skipped")
                .add(skipped);
            MutexLock guard(state->mutex);
            for (size_t i = 0; i < requests.size(); ++i) {
                if (!skip[i])
                    continue;
                state->results[i].status = Status(
                    StatusCode::Unavailable, "peer ejected as outlier");
                state->arrived[i] = true;
                state->completedLegs++;
            }
        }
        for (size_t i : probes) {
            // mulint: allow(deadline-taint): probes reuse the caller-resolved leg options; the budget was applied in serveFanout's resolve() call
            requests[i].channel->call(
                method, std::move(requests[i].body), options.leg,
                [](const Status &, std::string_view) {
                    // Fire-and-forget: the channel already recorded
                    // the outcome into the peer's health tracker.
                });
        }
        if (skipped == requests.size()) {
            // Degenerate: every leg ejected (only reachable with
            // maxEjectedFraction == 1). Nothing will ever call back,
            // so complete the all-failed outcome here.
            FanoutOutcome outcome;
            {
                MutexLock guard(state->mutex);
                state->done = true;
                outcome.results = std::move(state->results);
            }
            outcome.okLegs = 0;
            outcome.degraded = true;
            globalCounters().counter("fanout.degraded").add();
            state->merge(std::move(outcome));
            return;
        }
    }

    // Cork every distinct channel for the duration of the issue loop:
    // all legs sharing a transport connection leave in one
    // scatter-gather syscall when the batch closes. Safe even when a
    // leg completes inline — the merge runs after uncork at the
    // latest, and responses cannot precede the flushed requests.
    rpc::ScopedWriteBatch batch;
    for (const FanoutRequest &request : requests)
        batch.add(request.channel);

    for (size_t i = 0; i < requests.size(); ++i) {
        FanoutRequest &request = requests[i];
        if (!skip.empty() && skip[i])
            continue; // Ejected: pre-completed above, channel untouched.
        // mulint: allow(deadline-taint): legs carry the caller-resolved FanoutOptions; the budget was applied in serveFanout's resolve() call
        request.channel->call(
            method, std::move(request.body), options.leg,
            [state, i](const Status &status, std::string_view payload) {
                FanoutOutcome outcome;
                bool fire = false;
                {
                    MutexLock guard(state->mutex);
                    if (state->done) {
                        // Straggler beyond the quorum: the parent has
                        // already answered. Never touch results here —
                        // they have been moved out.
                        globalCounters()
                            .counter("fanout.late_leg")
                            .add();
                        return;
                    }
                    state->results[i].status = status;
                    state->results[i].payload.assign(payload.data(),
                                                     payload.size());
                    state->arrived[i] = true;
                    state->completedLegs++;
                    if (status.isOk())
                        state->okLegs++;

                    // Early completion needs both quorum OKs and an
                    // observed terminal failure (completed > ok);
                    // all-healthy fan-outs wait for every leg.
                    fire = state->completedLegs == state->legs ||
                           (state->quorum != 0 &&
                            state->okLegs >= state->quorum &&
                            state->completedLegs > state->okLegs);
                    if (fire) {
                        state->done = true;
                        outcome.results = std::move(state->results);
                        outcome.okLegs = state->okLegs;
                        for (size_t leg = 0; leg < outcome.results.size();
                             ++leg) {
                            if (state->arrived[leg])
                                continue;
                            outcome.results[leg].status = Status(
                                StatusCode::DeadlineExceeded,
                                "straggler abandoned at quorum");
                            globalCounters()
                                .counter("fanout.abandoned_leg")
                                .add();
                        }
                        outcome.degraded =
                            outcome.okLegs < outcome.results.size();
                    }
                }
                if (fire) {
                    if (outcome.degraded) {
                        globalCounters()
                            .counter("fanout.degraded")
                            .add();
                    }
                    state->merge(std::move(outcome));
                }
            });
    }
}

/**
 * The mid-tier response path, one implementation for every service:
 * fail fast on an expired inbound budget, clamp the legs to the budget
 * left *now* and issue them, then merge on the completing leg's thread
 * (fanoutCall threading contract: possibly this very thread).
 *
 * A leg counts as answered only when it is OK, its payload decodes as
 * a LegReply, and `fold.add(tag, reply)` accepts it (e.g. a replica
 * that really stored a set). `fold.finish()` then builds the response
 * message, whose `degraded` flag is set here: the OR of this hop's
 * partial merge (a failed, abandoned, garbled or refused leg) and
 * every answered reply's own flag. When no leg answered, the dominant
 * failure — with the largest shed retry-after — goes upstream instead.
 *
 * @param degraded The service's degraded-response counter; must
 *                 outlive the call, like the service itself.
 */
template <typename LegReply, typename Fold>
void
serveFanout(const rpc::ServerCallPtr &call, uint32_t method,
            std::vector<FanoutRequest> legs, const FanoutPolicy &policy,
            std::atomic<uint64_t> &degraded, Fold fold)
{
    if (failFastIfExpired(call))
        return;
    const FanoutOptions options =
        policy.resolve(legs.size(), call->remainingBudgetNs());
    fanoutCall(
        method, std::move(legs), options,
        [call, &degraded,
         fold = std::move(fold)](FanoutOutcome outcome) mutable {
            uint32_t answered = 0;
            bool downstream_degraded = false;
            for (const LeafResult &result : outcome.results) {
                LegReply reply;
                if (result.status.isOk() &&
                    decodeMessage(result.payload, reply) &&
                    fold.add(result.tag, reply)) {
                    ++answered;
                    downstream_degraded |= reply.degraded;
                }
            }
            if (answered == 0) {
                respondFailure(call,
                               dominantFailure(outcome.results,
                                               "no downstream leg answered"));
                return;
            }
            auto response = fold.finish();
            response.degraded = outcome.degraded || downstream_degraded ||
                                answered < outcome.okLegs;
            if (response.degraded)
                degraded.fetch_add(1, std::memory_order_relaxed);
            call->respondOk(encodeMessage(response));
        });
}

} // namespace musuite

#endif // MUSUITE_SERVICES_COMMON_FANOUT_H
