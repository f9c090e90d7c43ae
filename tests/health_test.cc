/**
 * @file
 * Tests for the gray-failure layer (rpc/health.h): PeerHealth EWMA /
 * window / streak arithmetic, the EjectionPolicy state machine pinned
 * step by step (eject -> probe -> slow-start -> reinstate, re-eject
 * on a slow-start failure), the max-ejection-fraction quorum bound,
 * the no-double-count contract for skipped legs, and an end-to-end
 * scripted-fault cycle over sim channels in virtual time.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "base/clock.h"
#include "rpc/channel.h"
#include "rpc/fault.h"
#include "rpc/health.h"
#include "rpc/server.h"
#include "services/common/fanout.h"
#include "simkernel/sim_transport.h"
#include "simkernel/simclock.h"
#include "stats/counters.h"

namespace musuite {
namespace {

using rpc::Channel;
using rpc::EjectionPolicy;
using rpc::FaultInjector;
using rpc::FaultSpec;
using rpc::PeerHealth;
using rpc::PeerHealthOptions;
using sim::SimChannel;
using sim::SimClock;
using sim::SimLink;

using LegDecision = EjectionPolicy::LegDecision;
using PeerState = EjectionPolicy::PeerState;

constexpr uint32_t kEcho = 1;

const Status kOk = Status::ok();
const Status kDown(StatusCode::Unavailable, "down");
const Status kShed(StatusCode::ResourceExhausted, "shedding");

/** Channel that answers ok inline; health is fed directly via
 *  recordAttemptOutcome in the state-machine tests. */
class StubChannel : public Channel
{
  protected:
    void
    transportCall(uint32_t, std::string body, int64_t,
                  Callback callback) override
    {
        callback(Status::ok(), body);
    }
};

/** Feed `n` identical outcomes into a channel's health tracker. */
void
feed(Channel &channel, int n, const Status &status, int64_t latency_ns)
{
    for (int i = 0; i < n; ++i)
        channel.recordAttemptOutcome(status, latency_ns);
}

// --------------------------------------------------------------------
// PeerHealth arithmetic.
// --------------------------------------------------------------------

TEST(PeerHealthTest, EwmaSeedsThenBlends)
{
    SimClock clock;
    ScopedClock ambient(clock);
    PeerHealth health;

    EXPECT_EQ(health.ewmaLatencyNs(), 0.0); // No sample yet.
    health.recordOutcome(kOk, 1'000'000);
    EXPECT_DOUBLE_EQ(health.ewmaLatencyNs(), 1'000'000.0);
    health.recordOutcome(kOk, 2'000'000);
    // alpha = 0.3: newest sample weighted 0.3 against the running 0.7.
    EXPECT_DOUBLE_EQ(health.ewmaLatencyNs(),
                     0.3 * 2'000'000.0 + (1.0 - 0.3) * 1'000'000.0);

    // Unknown latency: counted toward rates, EWMA untouched.
    const double before = health.ewmaLatencyNs();
    health.recordOutcome(kDown, -1);
    EXPECT_DOUBLE_EQ(health.ewmaLatencyNs(), before);
    EXPECT_EQ(health.outcomes(), 3u);
    EXPECT_EQ(health.failures(), 1u);
}

TEST(PeerHealthTest, WindowRateSlidesAndStreakResets)
{
    SimClock clock;
    ScopedClock ambient(clock);
    PeerHealthOptions options;
    options.window = 4;
    PeerHealth health(options);

    health.recordOutcome(kDown, 0);
    health.recordOutcome(kDown, 0);
    health.recordOutcome(kOk, 0);
    health.recordOutcome(kDown, 0);
    EXPECT_DOUBLE_EQ(health.windowFailureRate(), 3.0 / 4.0);
    EXPECT_EQ(health.consecutiveFailures(), 1u);

    // Fifth outcome evicts the oldest (a failure): 2 of 4 remain.
    health.recordOutcome(kOk, 0);
    EXPECT_DOUBLE_EQ(health.windowFailureRate(), 2.0 / 4.0);
    EXPECT_EQ(health.consecutiveFailures(), 0u);
}

TEST(PeerHealthTest, ResourceExhaustedIsNotAFailure)
{
    // Controlled shedding is a healthy peer protecting itself. Only
    // UNAVAILABLE and DEADLINE_EXCEEDED are transport evidence.
    SimClock clock;
    ScopedClock ambient(clock);
    PeerHealth health;
    health.recordOutcome(kShed, 0);
    health.recordOutcome(kShed, 0);
    EXPECT_EQ(health.failures(), 0u);
    EXPECT_EQ(health.successes(), 2u);
    EXPECT_EQ(health.consecutiveFailures(), 0u);
    EXPECT_DOUBLE_EQ(health.windowFailureRate(), 0.0);
}

// --------------------------------------------------------------------
// EjectionPolicy state machine, driven directly: three stub peers,
// outcomes fed through the channels' own recordAttemptOutcome path.
// --------------------------------------------------------------------

struct PolicyRig
{
    SimClock clock;
    ScopedClock ambient{clock};
    StubChannel a, b, c;
    EjectionPolicy policy;

    PolicyRig()
    {
        policy.watch(a);
        policy.watch(b);
        policy.watch(c);
    }

    /** Give every peer enough clean history to be judged at all
     *  (minOutcomes) without skewing the latency pool. */
    void
    warm(int64_t latency_ns = 0)
    {
        feed(a, 8, kOk, latency_ns);
        feed(b, 8, kOk, latency_ns);
        feed(c, 8, kOk, latency_ns);
    }
};

TEST(EjectionPolicyTest, FailureStreakEjectsAndCapProtectsQuorum)
{
    PolicyRig rig;
    rig.warm();

    // Five consecutive transport failures: an outlier outright.
    feed(rig.a, 5, kDown, -1);
    EXPECT_EQ(rig.policy.admitLeg(&rig.a), LegDecision::Skip);
    EXPECT_EQ(rig.policy.peerState(&rig.a), PeerState::Ejected);
    EXPECT_EQ(rig.policy.ejections(), 1u);
    EXPECT_GE(rig.policy.firstEjectAtNs(), 0);

    // A second outlier hits the cap — floor(1/3 * 3) = 1 — and stays
    // in rotation: with quorumFraction <= 2/3 the surviving pool can
    // always still answer.
    feed(rig.b, 5, kDown, -1);
    EXPECT_EQ(rig.policy.admitLeg(&rig.b), LegDecision::Admit);
    EXPECT_EQ(rig.policy.peerState(&rig.b), PeerState::Healthy);
    EXPECT_EQ(rig.policy.ejectedCount(), 1u);
    EXPECT_EQ(rig.policy.admitLeg(&rig.c), LegDecision::Admit);
}

TEST(EjectionPolicyTest, LatencyOutlierAgainstPoolMedianEjects)
{
    PolicyRig rig;
    // The gray shape: channel a answers OK but 10x slower than its
    // pool (EWMA 10ms vs median 1ms, factor 3 threshold).
    feed(rig.a, 8, kOk, 10'000'000);
    feed(rig.b, 8, kOk, 1'000'000);
    feed(rig.c, 8, kOk, 1'000'000);

    EXPECT_EQ(rig.policy.admitLeg(&rig.b), LegDecision::Admit);
    EXPECT_EQ(rig.policy.admitLeg(&rig.a), LegDecision::Skip);
    EXPECT_EQ(rig.policy.peerState(&rig.a), PeerState::Ejected);
}

TEST(EjectionPolicyTest, EjectProbeReinstateSlowStartPinned)
{
    PolicyRig rig;
    rig.warm();
    feed(rig.a, 5, kDown, -1);
    ASSERT_EQ(rig.policy.admitLeg(&rig.a), LegDecision::Skip);
    ASSERT_EQ(rig.policy.peerState(&rig.a), PeerState::Ejected);

    // Ejected: every 4th consult is a probe (probeEveryNth = 4), the
    // rest are skips. Pinned consult by consult.
    EXPECT_EQ(rig.policy.admitLeg(&rig.a), LegDecision::Skip);
    EXPECT_EQ(rig.policy.admitLeg(&rig.a), LegDecision::Skip);
    EXPECT_EQ(rig.policy.admitLeg(&rig.a), LegDecision::Skip);
    EXPECT_EQ(rig.policy.admitLeg(&rig.a), LegDecision::Probe);
    EXPECT_EQ(rig.policy.probesSent(), 1u);

    // One probe success is not enough (reinstateProbes = 2).
    rig.a.recordAttemptOutcome(kOk, 0);
    EXPECT_EQ(rig.policy.admitLeg(&rig.a), LegDecision::Skip);
    EXPECT_EQ(rig.policy.peerState(&rig.a), PeerState::Ejected);

    // Second success reinstates into SlowStart; the reinstating
    // consult is itself the first half-duty leg.
    rig.a.recordAttemptOutcome(kOk, 0);
    EXPECT_EQ(rig.policy.admitLeg(&rig.a), LegDecision::Admit);
    EXPECT_EQ(rig.policy.peerState(&rig.a), PeerState::SlowStart);
    EXPECT_EQ(rig.policy.reinstatements(), 1u);

    // Half duty cycle for slowStartLegs = 8 consults, then Healthy.
    const LegDecision expected[] = {
        LegDecision::Skip,  LegDecision::Admit, LegDecision::Skip,
        LegDecision::Admit, LegDecision::Skip,  LegDecision::Admit,
        LegDecision::Skip,  LegDecision::Admit,
    };
    for (LegDecision want : expected)
        EXPECT_EQ(rig.policy.admitLeg(&rig.a), want);
    EXPECT_EQ(rig.policy.peerState(&rig.a), PeerState::Healthy);
}

TEST(EjectionPolicyTest, SlowStartFailureReEjectsImmediately)
{
    PolicyRig rig;
    rig.warm();
    feed(rig.a, 5, kDown, -1);
    ASSERT_EQ(rig.policy.admitLeg(&rig.a), LegDecision::Skip);
    feed(rig.a, 2, kOk, 0);
    ASSERT_EQ(rig.policy.admitLeg(&rig.a), LegDecision::Admit);
    ASSERT_EQ(rig.policy.peerState(&rig.a), PeerState::SlowStart);

    // The peer was given a chance and blew it: one fresh transport
    // failure during slow start re-ejects without a new streak.
    rig.a.recordAttemptOutcome(kDown, -1);
    EXPECT_EQ(rig.policy.admitLeg(&rig.a), LegDecision::Skip);
    EXPECT_EQ(rig.policy.peerState(&rig.a), PeerState::Ejected);
    EXPECT_EQ(rig.policy.ejections(), 2u);
}

// --------------------------------------------------------------------
// No-double-count contract.
// --------------------------------------------------------------------

TEST(EjectionPolicyTest, SkippedLegNeverTouchesTracker)
{
    PolicyRig rig;
    rig.warm();
    feed(rig.a, 5, kDown, -1);

    const uint64_t outcomes_before = 13; // 8 warm + 5 failures.
    ASSERT_EQ(rig.a.peerHealth()->outcomes(), outcomes_before);
    const CounterSnapshot before = globalCounters().snapshot();

    std::vector<FanoutRequest> requests;
    requests.push_back({&rig.a, "a", 0});
    requests.push_back({&rig.b, "b", 1});
    requests.push_back({&rig.c, "c", 2});
    FanoutOptions options;
    options.ejection = &rig.policy;

    FanoutOutcome got;
    fanoutCall(kEcho, std::move(requests), options,
               [&](FanoutOutcome outcome) { got = std::move(outcome); });

    // The ejected leg completed as a failure for the merge...
    ASSERT_EQ(got.results.size(), 3u);
    EXPECT_EQ(got.results[0].status.code(), StatusCode::Unavailable);
    EXPECT_EQ(got.okLegs, 2u);
    EXPECT_TRUE(got.degraded);
    // ...but its channel was never consulted: no outcome recorded,
    // and only the skip counter moved.
    EXPECT_EQ(rig.a.peerHealth()->outcomes(), outcomes_before);
    const CounterSnapshot delta =
        CounterSet::diff(before, globalCounters().snapshot());
    EXPECT_EQ(CounterSet::valueOf(delta, "fanout.outlier_skipped"), 1u);
}

// --------------------------------------------------------------------
// End to end: the full cycle against real sim channels, scripted by
// fault counter rules in virtual time.
// --------------------------------------------------------------------

TEST(EjectionPolicyTest, ScriptedFaultCycleOverSimChannels)
{
    SimClock clock;
    ScopedClock ambient(clock);
    auto server = std::make_unique<rpc::Server>(rpc::ServerOptions{});
    server->registerHandler(kEcho, [](rpc::ServerCallPtr call) {
        call->respondOk(call->body());
    });
    server->start();

    SimChannel a(clock, *server, SimLink{}, "leaf.a");
    SimChannel b(clock, *server, SimLink{}, "leaf.b");
    SimChannel c(clock, *server, SimLink{}, "leaf.c");
    EjectionPolicy policy;
    policy.watch(a);
    policy.watch(b);
    policy.watch(c);

    const CounterSnapshot before = globalCounters().snapshot();
    uint32_t merged_failures = 0;
    const auto fanoutOnce = [&] {
        std::vector<FanoutRequest> requests;
        requests.push_back({&a, "a", 0});
        requests.push_back({&b, "b", 1});
        requests.push_back({&c, "c", 2});
        FanoutOptions options;
        options.ejection = &policy;
        bool completed = false;
        fanoutCall(kEcho, std::move(requests), options,
                   [&](FanoutOutcome outcome) {
                       completed = true;
                       for (const LeafResult &leg : outcome.results)
                           if (!leg.status.isOk())
                               merged_failures++;
                   });
        clock.runUntilIdle();
        ASSERT_TRUE(completed);
    };

    // Warm: minOutcomes of clean history per peer.
    for (int i = 0; i < 8; ++i)
        fanoutOnce();

    // Script the fault: the next 5 attempts on `a` fail outright.
    FaultSpec faults;
    faults.errorFirstN = 5;
    a.setFaultInjector(std::make_shared<FaultInjector>(faults));

    // 5 failing fan-outs build the streak; the 6th consult ejects.
    for (int i = 0; i < 6; ++i)
        fanoutOnce();
    EXPECT_EQ(policy.peerState(&a), PeerState::Ejected);
    EXPECT_EQ(policy.ejections(), 1u);

    // Ejected: consults 1-3 skip, the 4th fires an out-of-band probe
    // that reaches the (now fault-exhausted) server and succeeds; the
    // 8th fires the second probe; the next consult reinstates. Then
    // 8 half-duty slow-start consults ramp back to Healthy.
    for (int i = 0; i < 18; ++i)
        fanoutOnce();
    EXPECT_EQ(policy.peerState(&a), PeerState::Healthy);
    EXPECT_EQ(policy.reinstatements(), 1u);
    EXPECT_EQ(policy.probesSent(), 2u);
    EXPECT_EQ(policy.ejections(), 1u) << "no churn after recovery";

    // Counter registry: every transition was counted exactly once,
    // and nothing stays armed in the virtual world.
    const CounterSnapshot delta =
        CounterSet::diff(before, globalCounters().snapshot());
    EXPECT_EQ(CounterSet::valueOf(delta, "health.ejected"), 1u);
    EXPECT_EQ(CounterSet::valueOf(delta, "health.reinstated"), 1u);
    EXPECT_EQ(CounterSet::valueOf(delta, "health.probe_sent"), 2u);
    EXPECT_GT(CounterSet::valueOf(delta, "fanout.outlier_skipped"), 0u);
    EXPECT_GT(merged_failures, 0u);
    clock.runUntilIdle();
    EXPECT_EQ(clock.pendingTimers(), 0u);
}

} // namespace
} // namespace musuite
