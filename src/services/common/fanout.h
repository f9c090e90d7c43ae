/**
 * @file
 * Asynchronous fan-out/merge helper shared by every µSuite mid-tier.
 *
 * The mid-tier request path launches one RPC per leaf shard and
 * returns; leaf responses arrive on the client's completion threads,
 * which "count down and merge" (paper §IV): every response thread
 * stashes its payload and counts down, and only the completing one
 * does real work — running the merge functor and completing the
 * parent RPC. fanoutCall() is that count-down. A mid-tier never calls
 * it, or any channel, itself: it owns one Downstream pool, whose
 * serve() wraps the count-down into the whole response path (the
 * handler only shapes per-leaf legs and supplies a fold that merges
 * the decoded replies) and whose failover() is Router's sequential
 * replica walk.
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
 *  - Downstream owns the multi-hop propagation contract (DESIGN.md
 *    "Multi-hop propagation contract"): fail fast on an expired
 *    budget, clamp legs to the budget left at issue time, OR degraded
 *    flags through, and report the dominant failure when no leg
 *    answered. FanoutPolicy::resolve reads the budget from the
 *    inbound call itself, so no caller can pass a stale one.
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
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
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

    /**
     * Options for one fan-out of `legs` legs, with every leg's
     * deadlines clamped to the budget the inbound call has left
     * (ServerCall::remainingBudgetNs; 0 = no inbound deadline, no
     * clamping). A leaf is never given longer than the end-to-end
     * caller will wait, so work the client has abandoned is not
     * re-queued downstream, and legs with no deadline of their own
     * inherit the inbound one.
     *
     * The budget is read here, at issue time, not captured at
     * admission: the remaining budget shrinks by local queueing +
     * service time, and each hop of a deep DAG must forward only what
     * is actually left (the depth-3 re-promise bug).
     */
    FanoutOptions
    resolve(size_t legs, const rpc::ServerCall &inbound) const
    {
        FanoutOptions options;
        options.leg = leg;
        options.ejection = ejection.get();
        if (quorumFraction < 1.0 && legs > 0) {
            options.quorum = std::max<uint32_t>(
                1, uint32_t(std::ceil(quorumFraction * double(legs))));
        }
        clampToBudget(options.leg, inbound.remainingBudgetNs());
        return options;
    }

  private:
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
    static Counter &expired_before_fanout =
        globalCounters().counter("fanout.expired_before_fanout");
    expired_before_fanout.add();
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

namespace detail {

/**
 * The count-down behind fanoutCall and Downstream::serve: issue every
 * leg of `legs` (each with a `.body` the call consumes) at
 * `channel_of(leg)`, tag its result with `tag_of(leg)`, and run
 * `merge(FanoutOutcome)` exactly once (see the threading contract
 * above). The merge functor, the results and the count-down share one
 * allocation; a leg adds only its own channel call.
 */
template <typename LegT, typename ChannelOf, typename TagOf, typename Merge>
void
fanout(uint32_t method, std::vector<LegT> &legs, ChannelOf channel_of,
       TagOf tag_of, const FanoutOptions &options, Merge merge)
{
    MUSUITE_CHECK(!legs.empty()) << "empty fan-out";
    const uint32_t leg_count = uint32_t(legs.size());

    struct SharedState
    {
        Mutex mutex{LockRank::fanout, "fanout"};
        /** One result per leg. A leg starts out as an abandoned
         *  straggler; its answer, or its ejection, overwrites that. */
        FanoutOutcome outcome GUARDED_BY(mutex);
        uint32_t completedLegs GUARDED_BY(mutex) = 0;
        bool done GUARDED_BY(mutex) = false;
        uint32_t legs;
        uint32_t quorum;
        Merge merge;

        SharedState(uint32_t legs_in, uint32_t quorum_in, Merge merge_in)
            : legs(legs_in), quorum(quorum_in), merge(std::move(merge_in))
        {}

        /** Leg `leg` answered. */
        void
        arrive(uint32_t leg, const Status &status, std::string_view payload)
        {
            FanoutOutcome ready;
            {
                MutexLock guard(mutex);
                if (done) {
                    // Straggler beyond the quorum: the parent has
                    // already answered. Never touch the results here —
                    // they have been moved out.
                    static Counter &late_leg =
                        globalCounters().counter("fanout.late_leg");
                    late_leg.add();
                    return;
                }
                LeafResult &result = outcome.results[leg];
                result.status = status;
                result.payload.assign(payload.data(), payload.size());
                completedLegs++;
                if (status.isOk())
                    outcome.okLegs++;

                // Early completion needs both quorum OKs and an
                // observed terminal failure (completed > ok);
                // all-healthy fan-outs wait for every leg.
                const bool fire =
                    completedLegs == legs ||
                    (quorum != 0 && outcome.okLegs >= quorum &&
                     completedLegs > outcome.okLegs);
                if (!fire)
                    return;
                done = true;
                if (completedLegs < legs) {
                    static Counter &abandoned_leg =
                        globalCounters().counter("fanout.abandoned_leg");
                    abandoned_leg.add(legs - completedLegs);
                }
                outcome.degraded = outcome.okLegs < legs;
                ready = std::move(outcome);
            }
            finish(std::move(ready));
        }

        void
        finish(FanoutOutcome ready)
        {
            if (ready.degraded) {
                static Counter &degraded =
                    globalCounters().counter("fanout.degraded");
                degraded.add();
            }
            merge(std::move(ready));
        }
    };

    const uint32_t quorum =
        options.quorum == 0 ? 0 : std::min(options.quorum, leg_count);
    auto state =
        std::make_shared<SharedState>(leg_count, quorum, std::move(merge));
    {
        MutexLock guard(state->mutex);
        state->outcome.results.resize(leg_count);
        const Status abandoned(StatusCode::DeadlineExceeded, "abandoned");
        for (uint32_t i = 0; i < leg_count; ++i) {
            state->outcome.results[i].status = abandoned;
            state->outcome.results[i].tag = tag_of(legs[i]);
        }
    }
    static Counter &calls = globalCounters().counter("fanout.calls");
    calls.add();

    // Outlier ejection: consult the policy per leg before anything is
    // issued. A refused leg never touches its channel in-band — no
    // transport traffic, no health recording (skips
    // are not evidence about the peer, and counting them would
    // double-book the original failures that caused the ejection).
    // The leg is pre-marked as an instant UNAVAILABLE completion so
    // the quorum arithmetic sees a terminal failure immediately: with
    // a quorum set, the parent completes as soon as the healthy legs
    // answer instead of waiting out the ejected peer's deadline. Probe
    // legs are pre-marked the same way for the merge, then fired
    // out-of-band below: their outcomes feed the peer's health tracker
    // through the normal channel path, but a zombie probe burning its
    // deadline never drags this fan-out. The decisions live on the
    // stack up to 64 legs.
    using Decision = rpc::EjectionPolicy::LegDecision;
    Decision inline_decisions[64];
    std::vector<Decision> spilled_decisions;
    Decision *decisions = nullptr;
    if (options.ejection != nullptr) {
        if (leg_count > std::size(inline_decisions)) {
            spilled_decisions.resize(leg_count);
            decisions = spilled_decisions.data();
        } else {
            decisions = inline_decisions;
        }
        uint32_t skipped = 0;
        for (uint32_t i = 0; i < leg_count; ++i) {
            decisions[i] = options.ejection->admitLeg(channel_of(legs[i]));
            if (decisions[i] != Decision::Admit)
                skipped++;
        }
        if (skipped > 0) {
            static Counter &outlier_skipped =
                globalCounters().counter("fanout.outlier_skipped");
            outlier_skipped.add(skipped);
            MutexLock guard(state->mutex);
            for (uint32_t i = 0; i < leg_count; ++i) {
                if (decisions[i] == Decision::Admit)
                    continue;
                state->outcome.results[i].status = Status(
                    StatusCode::Unavailable, "peer ejected as outlier");
                state->completedLegs++;
            }
        }
        for (uint32_t i = 0; i < leg_count; ++i) {
            if (decisions[i] != Decision::Probe)
                continue;
            channel_of(legs[i])->call(
                method, std::move(legs[i].body), options.leg,
                [](const Status &, std::string_view) {
                    // Fire-and-forget: the channel already recorded
                    // the outcome into the peer's health tracker.
                });
        }
        if (skipped == leg_count) {
            // Degenerate: every leg ejected (only reachable with
            // maxEjectedFraction == 1). Nothing will ever call back,
            // so complete the all-failed outcome here.
            FanoutOutcome outcome;
            {
                MutexLock guard(state->mutex);
                state->done = true;
                outcome = std::move(state->outcome);
            }
            outcome.okLegs = 0;
            outcome.degraded = true;
            state->finish(std::move(outcome));
            return;
        }
    }

    // Cork every distinct channel for the duration of the issue loop:
    // all legs sharing a transport connection leave in one
    // scatter-gather syscall when the batch closes. Safe even when a
    // leg completes inline — the merge runs after uncork at the
    // latest, and responses cannot precede the flushed requests.
    rpc::ScopedWriteBatch batch;
    for (const LegT &leg : legs)
        batch.add(channel_of(leg));

    for (uint32_t i = 0; i < leg_count; ++i) {
        if (decisions != nullptr && decisions[i] != Decision::Admit)
            continue; // Ejected: pre-completed above, channel untouched.
        channel_of(legs[i])->call(
            method, std::move(legs[i].body), options.leg,
            [state, i](const Status &status, std::string_view payload) {
                state->arrive(i, status, payload);
            });
    }
}

} // namespace detail

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
    detail::fanout(
        method, requests,
        [](const FanoutRequest &request) { return request.channel; },
        [](const FanoutRequest &request) { return request.tag; }, options,
        std::move(on_complete));
}

/** One leg a mid-tier hands its Downstream pool: which leaf, with
 *  what body. The leaf index is also the leg's tag in the merge. */
struct Leg
{
    uint32_t leaf = 0;
    std::string body;
};

/**
 * A mid-tier's downstream pool: its leaf channels, its FanoutPolicy
 * and its degraded-response counter. It is the only code in a service
 * that issues leaf RPCs, through one of two skeletons — serve(), the
 * fan-out/merge, and failover(), the sequential replica walk — and
 * both own the multi-hop propagation contract (DESIGN.md "Multi-hop
 * propagation contract"): fail fast on an expired inbound budget,
 * clamp every leg or attempt to the budget left when it is issued,
 * and report the dominant failure upstream when nothing answered. A
 * service never builds call options of its own, so the contract holds
 * by construction.
 *
 * With an ejection policy configured, the constructor watches every
 * channel once, in pool order, so each peer gets a health tracker fed
 * from its attempt outcomes and the policy can eject it.
 */
class Downstream
{
  public:
    /**
     * @param channels One channel per leaf, indexed by leaf id. Slots
     *        may be null on a pool that never issues a leg (a
     *        routing-only mid-tier), provided the policy has no
     *        ejection.
     */
    explicit Downstream(std::vector<std::shared_ptr<rpc::Channel>> channels,
                        FanoutPolicy policy = {})
        : channels(std::move(channels)), policy(std::move(policy))
    {
        if (this->policy.ejection) {
            for (const auto &channel : this->channels)
                this->policy.ejection->watch(*channel);
        }
    }

    // In-flight legs hold `this`.
    Downstream(const Downstream &) = delete;
    Downstream &operator=(const Downstream &) = delete;

    size_t size() const { return channels.size(); }
    bool empty() const { return channels.empty(); }
    /** Responses merged from partial results. */
    uint64_t degradedResponses() const { return degraded; }
    /** failover() attempts past the first one. */
    uint64_t failovers() const { return failoverCount; }

    /**
     * The mid-tier fan-out/merge response path: fail fast on an expired
     * inbound budget, clamp the legs to the budget left *now* and issue
     * them, then merge on the completing leg's thread (fanoutCall
     * threading contract: possibly this very thread).
     *
     * A leg counts as answered only when it is OK, its payload decodes
     * as a LegReply, and `fold.add(leaf, reply)` accepts it (e.g. a
     * replica that really stored a set). `fold.finish()` then builds
     * the response message, whose `degraded` flag is set here: the OR
     * of this hop's partial merge (a failed, abandoned, garbled or
     * refused leg) and every answered reply's own flag. When no leg
     * answered, the dominant failure — with the largest shed
     * retry-after — goes upstream instead.
     */
    template <typename LegReply, typename Fold>
    void
    serve(const rpc::ServerCallPtr &call, uint32_t method,
          std::vector<Leg> legs, Fold fold)
    {
        if (failFastIfExpired(call))
            return;
        const FanoutOptions options = policy.resolve(legs.size(), *call);
        detail::fanout(
            method, legs,
            [this](const Leg &leg) { return channels[leg.leaf].get(); },
            [](const Leg &leg) { return leg.leaf; }, options,
            [this, call,
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
                    respondFailure(
                        call, dominantFailure(outcome.results,
                                              "no downstream leg answered"));
                    return;
                }
                auto response = fold.finish();
                response.degraded = outcome.degraded ||
                                    downstream_degraded ||
                                    answered < outcome.okLegs;
                if (response.degraded)
                    degraded.fetch_add(1, std::memory_order_relaxed);
                call->respondOk(encodeMessage(response));
            });
    }

    /**
     * The sequential replica walk (Router gets, paper §III-B): send
     * `body` to leaf order[0], and on any failure fail over to the next
     * leaf in `order`. Before every attempt an expired inbound budget
     * fails the call fast, and each attempt is clamped to the budget
     * left at that moment — earlier attempts have already spent part
     * of it. The first OK payload is relayed verbatim, so a downstream
     * mid-tier's degraded flag survives. When the walk runs out of
     * replicas, the dominant failure goes upstream (a shedding
     * replica's retry-after is not flattened to UNAVAILABLE).
     */
    void
    failover(rpc::ServerCallPtr call, uint32_t method, std::string body,
             std::vector<uint32_t> order)
    {
        attempt(std::move(call), method, std::move(body), std::move(order),
                0, {});
    }

  private:
    /** failover() from order[index] on; `failures` holds every
     *  earlier attempt's failure status. */
    void
    attempt(rpc::ServerCallPtr call, uint32_t method, std::string body,
            std::vector<uint32_t> order, size_t index,
            std::vector<LeafResult> failures)
    {
        if (index >= order.size()) {
            respondFailure(call, dominantFailure(
                                     failures, "all replicas unreachable"));
            return;
        }
        if (failFastIfExpired(call))
            return;
        if (index > 0)
            failoverCount.fetch_add(1, std::memory_order_relaxed);

        rpc::Channel *channel = channels[order[index]].get();
        const rpc::CallOptions options = policy.resolve(1, *call).leg;
        std::string body_copy = body;
        channel->call(
            method, std::move(body_copy), options,
            [this, call, method, body = std::move(body),
             order = std::move(order), index,
             failures = std::move(failures)](
                const Status &status, std::string_view payload) mutable {
                if (status.isOk()) {
                    call->respondOk(payload);
                    return;
                }
                failures.push_back(LeafResult{status, {}, order[index]});
                attempt(call, method, std::move(body), std::move(order),
                        index + 1, std::move(failures));
            });
    }

    std::vector<std::shared_ptr<rpc::Channel>> channels;
    FanoutPolicy policy;
    std::atomic<uint64_t> degraded{0};
    std::atomic<uint64_t> failoverCount{0};
};

} // namespace musuite

#endif // MUSUITE_SERVICES_COMMON_FANOUT_H
