/**
 * @file
 * Deterministic-simulation tests for the clock seam: the real murpc
 * resilience stack (channels, retries, deadlines, peer-health
 * tracking, fault injection, fan-out) driven entirely by SimClock.
 *
 * Three families:
 *  - pinned regressions for timing bugs the sim flushed out of the
 *    wall-clock code (each names its bug and fails on the pre-fix
 *    code),
 *  - the determinism contract itself (same seed -> byte-identical
 *    event trace; exercised over many seeds by the sweep, which
 *    tools/check.sh also runs under 8 distinct MUSUITE_SIM_SEED
 *    values),
 *  - the shared timer heap's contract (base/timer_heap.h), run
 *    against both SimClock and RealClock, plus a pinned digest of a
 *    seeded chaos trace so an event reorder fails here,
 *  - RealClock unit coverage for the teardown-scheduling fix (the
 *    wall-clock tests here are time-bounded, not time-sensitive).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "base/clock.h"
#include "base/rng.h"
#include "base/timer_heap.h"
#include "loadgen/scenario.h"
#include "rpc/channel.h"
#include "rpc/fault.h"
#include "rpc/health.h"
#include "rpc/server.h"
#include "services/common/fanout.h"
#include "services/graph/proto.h"
#include "services/graph/scenario.h"
#include "simkernel/chaos.h"
#include "simkernel/sim_transport.h"
#include "simkernel/simclock.h"
#include "simkernel/topology.h"
#include "stats/counters.h"

namespace musuite {
namespace {

using rpc::CallOptions;
using rpc::FaultInjector;
using rpc::FaultSpec;
using rpc::PeerHealth;
using rpc::PeerHealthOptions;
using rpc::Server;
using rpc::ServerCallPtr;
using rpc::ServerOptions;
using sim::SimChannel;
using sim::SimClock;
using sim::SimLink;
using sim::simCallSync;

constexpr int64_t kMs = 1'000'000;

/** An unstarted server bound to the ambient (sim) clock. */
std::unique_ptr<Server>
makeSimServer(const char *name)
{
    ServerOptions options;
    options.name = name;
    return std::make_unique<Server>(options);
}

// ====================================================================
// SimClock basics.
// ====================================================================

TEST(SimClockTest, FiresInDeadlineThenArmOrderAndCancels)
{
    SimClock clock;
    std::string order;
    clock.schedule(20, [&] { order += 'c'; });
    clock.schedule(10, [&] { order += 'a'; });
    const Clock::TimerId dead = clock.schedule(10, [&] { order += 'X'; });
    clock.schedule(10, [&] { order += 'b'; });
    EXPECT_TRUE(clock.cancel(dead));
    EXPECT_FALSE(clock.cancel(dead));
    EXPECT_EQ(clock.pendingTimers(), 3u);

    EXPECT_EQ(clock.runFor(10), 2u);
    EXPECT_EQ(order, "ab");
    EXPECT_EQ(clock.nowNanos(), 10);

    EXPECT_EQ(clock.runUntilIdle(), 1u);
    EXPECT_EQ(order, "abc");
    EXPECT_EQ(clock.nowNanos(), 20);
    EXPECT_EQ(clock.pendingTimers(), 0u);
}

TEST(SimClockTest, RunForAdvancesTimeEvenWhenIdle)
{
    SimClock clock;
    EXPECT_EQ(clock.runFor(5 * kMs), 0u);
    EXPECT_EQ(clock.nowNanos(), 5 * kMs);
}

// ====================================================================
// Pinned regression: a blackholed attempt must still be recorded, once,
// by its deadline timer.
//
// Bug: an attempt that settles via its deadline timer (transport
// silent — blackholed request) was never recorded with the channel's
// outcome recorder, so a peer that swallows every request looked
// perfectly idle to the health tracker and could never be ejected.
// Fixed by recording the locally settled outcome
// (Channel::recordAttemptOutcome) from the deadline timer.
// ====================================================================

TEST(SimReplayTest, BlackholedAttemptIsRecordedOnceByItsDeadlineTimer)
{
    SimClock clock;
    ScopedClock ambient(clock);

    auto server = makeSimServer("leaf");
    server->registerHandler(1, [](ServerCallPtr call) {
        call->respondOk(call->body());
    });
    SimChannel channel(clock, *server, SimLink{}, "leaf");

    // Blackhole every request before it reaches the transport.
    auto injector = std::make_shared<FaultInjector>(
        FaultSpec{.dropEveryNth = 1});
    channel.setFaultInjector(injector);
    auto health = std::make_shared<PeerHealth>();
    channel.setPeerHealth(health);

    CallOptions options;
    options.deadlineNs = 50 * kMs;

    // The transport never answers, so the deadline timer is the only
    // path that can record these outcomes: one failure per call, with
    // the deadline as the latency observation.
    for (uint64_t calls = 1; calls <= 3; ++calls) {
        auto result = simCallSync(clock, channel, 1, "x", options);
        ASSERT_FALSE(result.isOk());
        EXPECT_EQ(result.status().code(), StatusCode::DeadlineExceeded);
        EXPECT_EQ(clock.nowNanos(), int64_t(calls) * 50 * kMs);
        EXPECT_EQ(injector->requestsSeen(), calls);
        EXPECT_EQ(health->outcomes(), calls);
        EXPECT_EQ(health->failures(), calls);
        EXPECT_EQ(health->consecutiveFailures(), calls);
        EXPECT_DOUBLE_EQ(health->ewmaLatencyNs(), double(50 * kMs));
        EXPECT_EQ(clock.pendingTimers(), 0u);
    }
}

// ====================================================================
// Retries stop at the attempt budget, and the call then completes
// with the last attempt's error instead of hanging.
//
// A retry is scheduled only after the previous attempt settles, so at
// most one attempt is in flight and the budget is never overrun. This
// pins that: every attempt fails fast, yet exactly maxAttempts reach
// the peer and nothing stays armed.
// ====================================================================

TEST(SimReplayTest, RetriesStopAtTheAttemptBudget)
{
    SimClock clock;
    ScopedClock ambient(clock);

    auto server = makeSimServer("leaf");
    server->registerHandler(1, [](ServerCallPtr call) {
        call->respondOk(call->body());
    });
    SimChannel channel(clock, *server, SimLink{}, "leaf");

    // Every attempt fails inline with UNAVAILABLE (retryable).
    auto injector = std::make_shared<FaultInjector>(
        FaultSpec{.errorFirstN = 10});
    channel.setFaultInjector(injector);

    CallOptions options;
    options.maxAttempts = 2;
    options.backoffBaseNs = 20 * kMs;
    options.backoffJitter = 0.0;

    // t=0: attempt 1 fails inline, retry armed for t=20ms.
    // t=20ms: the retry issues attempt 2 (the budget's last), which
    // fails too — the call completes with its error, no attempt 3.
    auto result = simCallSync(clock, channel, 1, "x", options);
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::Unavailable);
    EXPECT_EQ(clock.nowNanos(), 20 * kMs);
    EXPECT_EQ(injector->requestsSeen(), 2u);
    EXPECT_EQ(clock.pendingTimers(), 0u);
}

// ====================================================================
// Clock-domain mixing is a construction-time error, not a silent
// timing bug.
// ====================================================================

TEST(SimReplayDeathTest, PeerHealthOnForeignClockIsRejected)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    SimClock clock;
    ScopedClock ambient(clock);
    auto server = makeSimServer("leaf");
    SimChannel channel(clock, *server, SimLink{}, "leaf");
    // Bound to the real clock: its outcome instants would be compared
    // against sim time.
    auto health = std::make_shared<PeerHealth>(PeerHealthOptions{},
                                               &realClock());
    EXPECT_DEATH(channel.setPeerHealth(health), "different clock");
}

// ====================================================================
// The seeded fan-out + fault + overload scenario: a 3-deep tree
// (client -> root -> 2 mids -> 2 leaves each) of real servers and
// channels with per-leg deadlines, retries and seeded fault
// schedules — all in virtual time.
// ====================================================================

constexpr uint32_t kLeafMethod = 1;
constexpr uint32_t kMidMethod = 2;
constexpr uint32_t kRootMethod = 3;

struct ScenarioResult
{
    std::string trace;
    uint32_t okCalls = 0;
    uint32_t failedCalls = 0;
    uint64_t leafRequests = 0;
    size_t leakedTimers = 0;
};

ScenarioResult
runFanoutFaultScenario(uint64_t seed)
{
    SimClock clock;
    ScopedClock ambient(clock);
    clock.enableTrace();

    // --- leaves: deterministic seeded compute time per request ------
    std::vector<std::unique_ptr<Server>> leaves;
    for (int i = 0; i < 4; ++i) {
        auto leaf = makeSimServer("leaf");
        auto rng = std::make_shared<Rng>(seed * 100 + uint64_t(i));
        leaf->registerHandler(
            kLeafMethod, [&clock, rng](ServerCallPtr call) {
                const int64_t compute =
                    200'000 + int64_t(rng->nextBounded(3'000'000));
                clock.schedule(compute, [call] {
                    call->respondOk(call->body());
                });
            });
        leaves.push_back(std::move(leaf));
    }

    // --- mid tier: 2 servers, each fanning out to 2 leaves ----------
    std::vector<std::unique_ptr<Server>> mids;
    std::vector<std::shared_ptr<SimChannel>> leafChannels;
    std::vector<std::shared_ptr<FaultInjector>> injectors;
    for (int m = 0; m < 2; ++m) {
        auto mid = makeSimServer("mid");
        auto legs = std::make_shared<std::vector<rpc::Channel *>>();
        for (int l = 0; l < 2; ++l) {
            const int leaf_index = m * 2 + l;
            auto channel = std::make_shared<SimChannel>(
                clock, *leaves[size_t(leaf_index)],
                SimLink{/*requestLatencyNs=*/40'000,
                        /*responseLatencyNs=*/40'000},
                "m" + std::to_string(m) + ".leaf" +
                    std::to_string(leaf_index));
            FaultSpec faults;
            faults.errorProb = 0.10;
            faults.dropRequestProb = 0.08;
            faults.delayRequestProb = 0.15;
            faults.delayNs = 12 * kMs;
            faults.seed = seed * 31 + uint64_t(leaf_index);
            auto injector = std::make_shared<FaultInjector>(faults);
            channel->setFaultInjector(injector);
            injectors.push_back(injector);

            legs->push_back(channel.get());
            leafChannels.push_back(std::move(channel));
        }
        mid->registerHandler(
            kMidMethod, [legs, seed](ServerCallPtr call) {
                std::vector<FanoutRequest> requests;
                for (size_t l = 0; l < legs->size(); ++l) {
                    requests.push_back(FanoutRequest{
                        (*legs)[l], call->body(), uint32_t(l)});
                }
                FanoutPolicy policy;
                policy.leg.deadlineNs = 25 * kMs;
                policy.leg.maxAttempts = 2;
                policy.leg.backoffBaseNs = 5 * kMs;
                policy.leg.backoffJitter = 0.2;
                policy.leg.backoffJitterSeed = seed * 977 + 1;
                policy.quorumFraction = 0.5;
                fanoutCall(kLeafMethod, std::move(requests),
                           policy.resolve(legs->size(), *call),
                           [call](FanoutOutcome outcome) {
                               if (outcome.okLegs == 0) {
                                   call->respond(
                                       StatusCode::Unavailable, {});
                                   return;
                               }
                               call->respondOk(
                                   outcome.degraded ? "partial"
                                                    : "full");
                           });
            });
        mids.push_back(std::move(mid));
    }

    // --- root: fans out to both mids --------------------------------
    auto root = makeSimServer("root");
    std::vector<std::shared_ptr<SimChannel>> midChannels;
    auto mid_legs = std::make_shared<std::vector<rpc::Channel *>>();
    for (int m = 0; m < 2; ++m) {
        auto channel = std::make_shared<SimChannel>(
            clock, *mids[size_t(m)],
            SimLink{/*requestLatencyNs=*/60'000,
                    /*responseLatencyNs=*/60'000},
            "root.m" + std::to_string(m));
        mid_legs->push_back(channel.get());
        midChannels.push_back(std::move(channel));
    }
    root->registerHandler(
        kRootMethod, [mid_legs, seed](ServerCallPtr call) {
            std::vector<FanoutRequest> requests;
            for (size_t m = 0; m < mid_legs->size(); ++m) {
                requests.push_back(FanoutRequest{
                    (*mid_legs)[m], call->body(), uint32_t(m)});
            }
            FanoutPolicy policy;
            policy.leg.deadlineNs = 70 * kMs;
            policy.leg.maxAttempts = 2;
            policy.leg.backoffBaseNs = 8 * kMs;
            policy.leg.backoffJitter = 0.2;
            policy.leg.backoffJitterSeed = seed * 977 + 2;
            fanoutCall(kMidMethod, std::move(requests),
                       policy.resolve(mid_legs->size(), *call),
                       [call](FanoutOutcome outcome) {
                           if (outcome.okLegs == 0) {
                               call->respond(StatusCode::Unavailable,
                                             {});
                               return;
                           }
                           call->respondOk("root");
                       });
        });

    SimChannel client(clock, *root,
                      SimLink{/*requestLatencyNs=*/80'000,
                              /*responseLatencyNs=*/80'000},
                      "client.root");

    // --- drive: 24 staggered client calls ---------------------------
    ScenarioResult result;
    constexpr int kCalls = 24;
    auto completions = std::make_shared<std::atomic<int>>(0);
    for (int i = 0; i < kCalls; ++i) {
        clock.schedule(int64_t(i) * 6 * kMs, [&clock, &client, &result,
                                              completions, seed, i] {
            CallOptions options;
            options.totalDeadlineNs = 250 * kMs;
            options.deadlineNs = 120 * kMs;
            options.maxAttempts = 2;
            options.backoffBaseNs = 10 * kMs;
            options.backoffJitter = 0.2;
            options.backoffJitterSeed =
                seed * 977 + 100 + uint64_t(i);
            client.call(
                kRootMethod, "q" + std::to_string(i), options,
                [&clock, &result, completions,
                 i](const Status &status, std::string_view) {
                    clock.traceEvent(
                        "call " + std::to_string(i) + " done code=" +
                        std::to_string(int(status.code())));
                    if (status.isOk())
                        result.okCalls++;
                    else
                        result.failedCalls++;
                    completions->fetch_add(1);
                });
        });
    }

    clock.runUntilIdle();
    EXPECT_EQ(completions->load(), kCalls)
        << "lost completions at seed " << seed;
    result.leakedTimers = clock.pendingTimers();
    for (const auto &injector : injectors)
        result.leafRequests += injector->requestsSeen();
    result.trace = clock.takeTrace();
    return result;
}

TEST(SimReplayTest, DeterministicScenarioReplaysByteIdentically)
{
    const ScenarioResult first = runFanoutFaultScenario(42);
    const ScenarioResult second = runFanoutFaultScenario(42);
    ASSERT_FALSE(first.trace.empty());
    EXPECT_EQ(first.trace, second.trace)
        << "same seed must replay byte-identically";
    EXPECT_EQ(first.okCalls, second.okCalls);
    EXPECT_EQ(first.failedCalls, second.failedCalls);
    EXPECT_EQ(first.leafRequests, second.leafRequests);
}

TEST(SimReplayTest, SeedSweepHoldsInvariants)
{
    std::vector<uint64_t> seeds = {1, 2, 3, 4, 5, 6, 7, 8};
    if (const char *env = std::getenv("MUSUITE_SIM_SEED"))
        seeds.push_back(uint64_t(std::strtoull(env, nullptr, 10)));
    for (uint64_t seed : seeds) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const ScenarioResult result = runFanoutFaultScenario(seed);
        // Every call completes exactly once (checked inside), nothing
        // stays armed after the world drains, and the fault storm
        // still lets some traffic through while the resilience layer
        // caps amplification: at most client attempts x mid legs x
        // leaf attempts per leg.
        EXPECT_EQ(result.okCalls + result.failedCalls, 24u);
        EXPECT_EQ(result.leakedTimers, 0u);
        EXPECT_GT(result.okCalls, 0u);
        EXPECT_LE(result.leafRequests, 24u * 2 * 2 * 2 * 2);
    }
}

// ====================================================================
// Spec-defined deep request DAGs: the composable graph service on the
// topology builder (root -> 3 -> 9 -> 27 nodes), driven by the
// load-shape scenario library — all in virtual time. These are the
// depth-3 invariants for the three multi-hop fixes:
//  - budget decrement: remaining = inbound - elapsed at every hop, so
//    no request completes after its root deadline and an exhausted
//    budget stops forwarding mid-tree;
//  - degraded flag: a leaf-tier brownout surfaces as degraded=true in
//    the *root* reply, three hops up;
//  - retry-after: every RESOURCE_EXHAUSTED seen by the client carries
//    a pacing hint, and rpc.call.retry_amplified stays zero.
// ====================================================================

struct DagRun
{
    std::string trace;
    uint32_t ok = 0;
    uint32_t failed = 0;
    uint32_t degradedOk = 0;       //!< OK replies flagged degraded.
    uint32_t exhausted = 0;        //!< RESOURCE_EXHAUSTED at the root.
    uint32_t exhaustedWithHint = 0;
    int64_t maxRetryAfterNs = 0;
    uint32_t lateCompletions = 0;  //!< Completed past the root deadline.
    uint32_t maxNodesVisited = 0;
    size_t leakedTimers = 0;
    CounterSnapshot delta;

    uint64_t
    counterDelta(const char *name) const
    {
        auto it = delta.find(name);
        return it == delta.end() ? 0 : it->second;
    }
};

DagRun
runDagScenario(const graph::GraphScenario &scenario, double qps,
               int64_t duration_ns, int64_t root_deadline_ns)
{
    SimClock clock;
    ScopedClock ambient(clock);
    clock.enableTrace();
    sim::Topology topo = sim::buildTopology(clock, scenario);

    const std::vector<int64_t> arrivals = loadgen::arrivalSchedule(
        loadgen::LoadShape::constant(qps), duration_ns,
        scenario.seed * 131 + 7);

    const CounterSnapshot before = globalCounters().snapshot();
    DagRun run;
    auto completions = std::make_shared<std::atomic<size_t>>(0);
    const uint64_t seed = scenario.seed;
    for (size_t i = 0; i < arrivals.size(); ++i) {
        const int64_t start = arrivals[i];
        clock.schedule(start, [&clock, &topo, &run, completions, seed,
                               i, start, root_deadline_ns] {
            graph::GraphRequest request;
            request.workId = i + 1;
            CallOptions options;
            options.totalDeadlineNs = root_deadline_ns;
            options.deadlineNs = root_deadline_ns;
            options.maxAttempts = 2;
            options.backoffBaseNs = 2 * kMs;
            options.backoffJitter = 0.2;
            options.backoffJitterSeed = seed * 977 + 11 + uint64_t(i);
            topo.root->call(
                graph::kProcess, encodeMessage(request), options,
                [&clock, &run, completions, start, root_deadline_ns,
                 i](const Status &status, std::string_view payload) {
                    const int64_t elapsed = clock.nowNanos() - start;
                    if (elapsed > root_deadline_ns)
                        run.lateCompletions++;
                    clock.traceEvent(
                        "dag " + std::to_string(i) + " done code=" +
                        std::to_string(int(status.code())));
                    if (status.isOk()) {
                        run.ok++;
                        graph::GraphReply reply;
                        if (decodeMessage(payload, reply)) {
                            run.maxNodesVisited =
                                std::max(run.maxNodesVisited,
                                         reply.nodesVisited);
                            if (reply.degraded)
                                run.degradedOk++;
                        }
                    } else {
                        run.failed++;
                        if (status.code() ==
                            StatusCode::ResourceExhausted) {
                            run.exhausted++;
                            if (status.retryAfterNs() > 0) {
                                run.exhaustedWithHint++;
                                run.maxRetryAfterNs =
                                    std::max(run.maxRetryAfterNs,
                                             status.retryAfterNs());
                            }
                        }
                    }
                    completions->fetch_add(1);
                });
        });
    }

    clock.runUntilIdle();
    EXPECT_EQ(completions->load(), arrivals.size())
        << "lost DAG completions, scenario " << scenario.name
        << " seed " << scenario.seed;
    run.leakedTimers = clock.pendingTimers();
    run.delta = CounterSet::diff(before, globalCounters().snapshot());
    run.trace = clock.takeTrace();
    return run;
}

TEST(SimDagTest, BrownoutScenarioReplaysByteIdentically)
{
    uint64_t seed = 42;
    if (const char *env = std::getenv("MUSUITE_SIM_SEED"))
        seed = uint64_t(std::strtoull(env, nullptr, 10));
    const auto spec = graph::brownoutDag(seed);
    const DagRun first =
        runDagScenario(spec, 2'000.0, 50 * kMs, 100 * kMs);
    const DagRun second =
        runDagScenario(spec, 2'000.0, 50 * kMs, 100 * kMs);
    ASSERT_FALSE(first.trace.empty());
    EXPECT_EQ(first.trace, second.trace)
        << "same (spec, seed) must replay byte-identically";
    EXPECT_EQ(first.ok, second.ok);
    EXPECT_EQ(first.failed, second.failed);
    EXPECT_EQ(first.degradedOk, second.degradedOk);
    EXPECT_EQ(first.maxRetryAfterNs, second.maxRetryAfterNs);
}

TEST(SimDagTest, SteadyScenarioTraversesFullTree)
{
    std::vector<uint64_t> seeds = {1, 2, 3, 4, 5, 6, 7, 8};
    if (const char *env = std::getenv("MUSUITE_SIM_SEED"))
        seeds.push_back(uint64_t(std::strtoull(env, nullptr, 10)));
    for (uint64_t seed : seeds) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const auto spec = graph::steadyDag(seed);
        ASSERT_EQ(spec.nodeCount(), 40u); // 1 + 3 + 9 + 27.
        const DagRun run =
            runDagScenario(spec, 2'000.0, 50 * kMs, 100 * kMs);
        // Unloaded tree: everything succeeds, some reply reports the
        // full 40-node traversal, and nothing outlives its deadline.
        EXPECT_GT(run.ok, 0u);
        EXPECT_EQ(run.failed, 0u);
        EXPECT_EQ(run.maxNodesVisited, 40u);
        EXPECT_EQ(run.lateCompletions, 0u);
        EXPECT_EQ(run.leakedTimers, 0u);
        EXPECT_EQ(run.counterDelta("rpc.call.retry_amplified"), 0u);
    }
}

TEST(SimDagTest, BrownoutPropagatesDegradedThreeHopsUp)
{
    std::vector<uint64_t> seeds = {1, 2, 3, 4, 5, 6, 7, 8};
    if (const char *env = std::getenv("MUSUITE_SIM_SEED"))
        seeds.push_back(uint64_t(std::strtoull(env, nullptr, 10)));
    for (uint64_t seed : seeds) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const DagRun run = runDagScenario(graph::brownoutDag(seed),
                                          2'000.0, 50 * kMs, 100 * kMs);
        // The slow leaf loses its group's quorum race on most
        // requests; that partial merge must be visible at the *root*
        // (degraded OR-ed through two interior mid-tiers), and must
        // not cost deadline violations or timer leaks.
        EXPECT_GT(run.ok, 0u);
        EXPECT_GT(run.degradedOk, 0u);
        EXPECT_EQ(run.lateCompletions, 0u);
        EXPECT_EQ(run.leakedTimers, 0u);
        EXPECT_EQ(run.counterDelta("rpc.call.retry_amplified"), 0u);
    }
}

TEST(SimDagTest, RetryStormShedsWithHintsAndNoAmplification)
{
    std::vector<uint64_t> seeds = {1, 2, 3, 4, 5, 6, 7, 8};
    if (const char *env = std::getenv("MUSUITE_SIM_SEED"))
        seeds.push_back(uint64_t(std::strtoull(env, nullptr, 10)));
    for (uint64_t seed : seeds) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        // ~2x the leaf tier's service capacity (1 worker x 400us).
        const DagRun run = runDagScenario(graph::retryStormDag(seed),
                                          5'000.0, 40 * kMs, 50 * kMs);
        // The storm actually sheds and actually retries...
        EXPECT_GT(run.counterDelta("overload.queue_rejected"), 0u);
        EXPECT_GT(run.counterDelta("rpc.retry.scheduled"), 0u);
        // ...yet every root-visible RESOURCE_EXHAUSTED carries the
        // propagated pacing hint (retry-after fix), so not one retry
        // was scheduled blind against an exhausted server.
        EXPECT_EQ(run.exhaustedWithHint, run.exhausted);
        if (run.exhausted > 0) {
            EXPECT_GT(run.maxRetryAfterNs, 0);
        }
        EXPECT_EQ(run.counterDelta("rpc.call.retry_amplified"), 0u);
        // Overload degrades answers; it must not break timing.
        EXPECT_GT(run.ok + run.failed, 0u);
        EXPECT_EQ(run.lateCompletions, 0u);
        EXPECT_EQ(run.leakedTimers, 0u);
    }
}

TEST(SimDagTest, TightBudgetExpiresMidTreeNotAfterDeadline)
{
    SimClock clock;
    ScopedClock ambient(clock);
    auto spec = graph::steadyDag(7);
    sim::Topology topo = sim::buildTopology(clock, spec);

    const CounterSnapshot before = globalCounters().snapshot();
    graph::GraphRequest request;
    request.workId = 99;
    CallOptions options;
    // Far less than the ~600us end-to-end path: by the leaf tier the
    // decremented budget is under the 120us leaf compute, so the
    // request expires *inside* the tree, not just at the client.
    options.totalDeadlineNs = 200'000;
    options.deadlineNs = 200'000;
    const auto result = simCallSync(clock, *topo.root, graph::kProcess,
                                    encodeMessage(request), options);
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::DeadlineExceeded);
    // The client learned at exactly the deadline, not later.
    EXPECT_LE(clock.nowNanos(), 200'000);

    clock.runUntilIdle(); // Drain the abandoned in-tree work.
    const CounterSnapshot delta =
        CounterSet::diff(before, globalCounters().snapshot());
    const auto counted = [&delta](const char *name) {
        auto it = delta.find(name);
        return it == delta.end() ? uint64_t(0) : it->second;
    };
    // Some hop refused to forward (or answer) on an exhausted budget:
    // the decremented budget was visible deep in the tree.
    EXPECT_GT(counted("fanout.expired_before_fanout"), 0u);
    EXPECT_EQ(clock.pendingTimers(), 0u);
}

TEST(SimDagTest, CacheHitsShortCircuitTheTreeDeterministically)
{
    SimClock clock;
    ScopedClock ambient(clock);
    auto spec = graph::steadyDag(11);
    // Every tier-1 mid answers from cache: the request never reaches
    // the 36 nodes below them.
    spec.stages[0].cacheHitRatio = 1.0;
    sim::Topology topo = sim::buildTopology(clock, spec);

    const CounterSnapshot before = globalCounters().snapshot();
    graph::GraphRequest request;
    request.workId = 5;
    CallOptions options;
    options.totalDeadlineNs = 100 * kMs;
    const auto result = simCallSync(clock, *topo.root, graph::kProcess,
                                    encodeMessage(request), options);
    ASSERT_TRUE(result.isOk());
    graph::GraphReply reply;
    ASSERT_TRUE(decodeMessage(result.value(), reply));
    EXPECT_EQ(reply.nodesVisited, 4u); // Root + 3 cached mids.
    EXPECT_FALSE(reply.degraded);
    const CounterSnapshot delta =
        CounterSet::diff(before, globalCounters().snapshot());
    auto it = delta.find("graph.node.cache_hit");
    ASSERT_NE(it, delta.end());
    EXPECT_EQ(it->second, 3u);
    EXPECT_EQ(clock.pendingTimers(), 0u);
}

// ====================================================================
// Chaos campaign: gray faults injected and cleared as virtual-time
// events over the grayDag topology (1+3+9+27 nodes, leaf quorum 2/3,
// outlier ejection on every leaf group). The invariants the campaign
// must never break, under every sweep seed: every arrival completes
// exactly once, no timer leaks, ejection never starves a group's
// quorum (the cap holds), and the whole run replays byte-identically.
// ====================================================================

struct ChaosRun
{
    std::string trace;
    uint32_t ok = 0;
    uint32_t failed = 0;
    size_t leakedTimers = 0;
    uint64_t ejections = 0;
    uint64_t reinstatements = 0;
    size_t maxEjectedAtEnd = 0;
    uint64_t faultsInjected = 0;
    uint64_t faultsCleared = 0;
    CounterSnapshot delta;
};

ChaosRun
runChaosScenario(uint64_t seed, sim::ChaosEvent::Kind kind)
{
    SimClock clock;
    ScopedClock ambient(clock);
    clock.enableTrace();
    sim::Topology topo =
        sim::buildTopology(clock, graph::grayDag(seed));

    sim::ChaosCampaign campaign(clock, topo);
    sim::ChaosEvent event;
    event.kind = kind;
    event.tier = 2;      // Leaf links.
    event.onlyChild = 0; // First leaf of every group.
    event.injectAtNs = 40 * kMs;
    event.clearAtNs = 80 * kMs;
    event.delayNs = 5 * kMs;         // Slow-ramp baseline.
    event.rampPerCallNs = 500'000;   // Crosses the leg deadline fast.
    campaign.arm({event});

    const std::vector<int64_t> arrivals = loadgen::arrivalSchedule(
        loadgen::LoadShape::constant(2'000.0), 120 * kMs,
        seed * 131 + 7);
    const CounterSnapshot before = globalCounters().snapshot();
    ChaosRun run;
    auto completions = std::make_shared<std::atomic<size_t>>(0);
    for (size_t i = 0; i < arrivals.size(); ++i) {
        clock.schedule(arrivals[i], [&clock, &topo, &run, completions,
                                     seed, i] {
            graph::GraphRequest request;
            request.workId = i + 1;
            CallOptions options;
            options.totalDeadlineNs = 50 * kMs;
            options.deadlineNs = 50 * kMs;
            options.maxAttempts = 2;
            options.backoffBaseNs = 2 * kMs;
            options.backoffJitter = 0.2;
            options.backoffJitterSeed = seed * 977 + 11 + uint64_t(i);
            topo.root->call(
                graph::kProcess, encodeMessage(request), options,
                [&clock, &run, completions, i](const Status &status,
                                               std::string_view) {
                    clock.traceEvent(
                        "chaos " + std::to_string(i) + " done code=" +
                        std::to_string(int(status.code())));
                    if (status.isOk())
                        run.ok++;
                    else
                        run.failed++;
                    completions->fetch_add(1);
                });
        });
    }

    clock.runUntilIdle();
    EXPECT_EQ(completions->load(), arrivals.size())
        << "lost chaos completions at seed " << seed;
    run.leakedTimers = clock.pendingTimers();
    for (const auto &policy : topo.ejectionPolicies) {
        run.ejections += policy->ejections();
        run.reinstatements += policy->reinstatements();
        run.maxEjectedAtEnd =
            std::max(run.maxEjectedAtEnd, policy->ejectedCount());
    }
    run.faultsInjected = campaign.faultsInjected();
    run.faultsCleared = campaign.faultsCleared();
    run.delta = CounterSet::diff(before, globalCounters().snapshot());
    run.trace = clock.takeTrace();
    return run;
}

TEST(SimChaosTest, CampaignReplaysByteIdentically)
{
    uint64_t seed = 42;
    if (const char *env = std::getenv("MUSUITE_SIM_SEED"))
        seed = uint64_t(std::strtoull(env, nullptr, 10));
    const ChaosRun first =
        runChaosScenario(seed, sim::ChaosEvent::Kind::Zombie);
    const ChaosRun second =
        runChaosScenario(seed, sim::ChaosEvent::Kind::Zombie);
    ASSERT_FALSE(first.trace.empty());
    EXPECT_EQ(first.trace, second.trace)
        << "same (topology, campaign, seed) must replay "
           "byte-identically";
    EXPECT_EQ(first.ok, second.ok);
    EXPECT_EQ(first.failed, second.failed);
    EXPECT_EQ(first.ejections, second.ejections);
    EXPECT_EQ(first.reinstatements, second.reinstatements);
}

TEST(SimChaosTest, SeedSweepHoldsInvariants)
{
    std::vector<uint64_t> seeds = {1, 2, 3, 4, 5, 6, 7, 8};
    if (const char *env = std::getenv("MUSUITE_SIM_SEED"))
        seeds.push_back(uint64_t(std::strtoull(env, nullptr, 10)));
    for (uint64_t seed : seeds) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const ChaosRun run =
            runChaosScenario(seed, sim::ChaosEvent::Kind::SlowRamp);
        // Exactly one inject and one clear fired, the faulted leaf
        // was detected (ejected at least once), and the ejection cap
        // — floor((1 - quorumFraction) * 3) = 1 of each 3-leaf group
        // — never starved a quorum: the run keeps answering.
        EXPECT_EQ(run.faultsInjected, 1u);
        EXPECT_EQ(run.faultsCleared, 1u);
        EXPECT_GT(run.ejections, 0u);
        EXPECT_LE(run.maxEjectedAtEnd, 1u);
        EXPECT_GT(run.ok, 0u);
        EXPECT_EQ(run.leakedTimers, 0u);
        const auto injected = run.delta.find("chaos.fault_injected");
        ASSERT_NE(injected, run.delta.end());
        EXPECT_EQ(injected->second, 1u);
        const auto cleared = run.delta.find("chaos.fault_cleared");
        ASSERT_NE(cleared, run.delta.end());
        EXPECT_EQ(cleared->second, 1u);
    }
}

/** FNV-1a over a trace: a short stable fingerprint to pin. */
uint64_t
traceDigest(const std::string &trace)
{
    uint64_t hash = 1469598103934665603ull;
    for (unsigned char byte : trace) {
        hash ^= byte;
        hash *= 1099511628211ull;
    }
    return hash;
}

/** runChaosScenario(42, Zombie)'s trace, as recorded before SimClock
 *  moved onto TimerHeap. */
constexpr size_t kPinnedTraceBytes = 3'681'781;
constexpr uint64_t kPinnedTraceDigest = 0x35bec71d709fcf15ull;

TEST(SimChaosTest, SeededTraceDigestIsPinned)
{
    // Fixed seed, not MUSUITE_SIM_SEED. Any change to which events are
    // armed, their sequence numbers or their firing order changes the
    // digest; update it only for an intended behaviour change.
    const ChaosRun run =
        runChaosScenario(42, sim::ChaosEvent::Kind::Zombie);
    EXPECT_EQ(run.trace.size(), kPinnedTraceBytes);
    EXPECT_EQ(traceDigest(run.trace), kPinnedTraceDigest);
}

// ====================================================================
// The shared timer heap (base/timer_heap.h), through both clocks. The
// RealClock runs fire on its timer thread, so every observation the
// test thread makes goes through atomics, and waits are bounded.
// ====================================================================

constexpr int64_t kHourNs = 3'600'000'000'000;
/** The slot half of a TimerId (see base/timer_heap.h). */
constexpr Clock::TimerId kSlotMask =
    (Clock::TimerId(1) << TimerHeap::kSlotBits) - 1;

template <typename ClockT>
class TimerHeapContractTest : public ::testing::Test
{
  protected:
    /** Fire timers until `done()` holds; false if it never does. */
    bool
    runUntil(const std::function<bool()> &done)
    {
        if constexpr (std::is_same_v<ClockT, SimClock>) {
            return clock.runUntil(done);
        } else {
            for (int i = 0; i < 10'000 && !done(); ++i)
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            return done();
        }
    }

    ClockT clock;
};

struct ClockName
{
    template <typename ClockT>
    static std::string
    GetName(int)
    {
        return std::is_same_v<ClockT, SimClock> ? "SimClock" : "RealClock";
    }
};

using BothClocks = ::testing::Types<SimClock, RealClock>;
TYPED_TEST_SUITE(TimerHeapContractTest, BothClocks, ClockName);

TYPED_TEST(TimerHeapContractTest, EqualDeadlinesFireInArmOrder)
{
    // Same delay: equal deadlines on the SimClock, non-decreasing ones
    // on the RealClock; either way the arm order breaks the tie.
    std::string order;
    std::atomic<int> fired{0};
    for (char tag : std::string("abcdefgh")) {
        this->clock.schedule(kMs, [&order, &fired, tag] {
            order += tag;
            fired.fetch_add(1);
        });
    }
    ASSERT_TRUE(this->runUntil([&] { return fired.load() == 8; }));
    EXPECT_EQ(order, "abcdefgh");
    EXPECT_EQ(this->clock.pendingTimers(), 0u);
}

TYPED_TEST(TimerHeapContractTest, StaleHandleDoesNotCancelRecycledSlot)
{
    const Clock::TimerId stale = this->clock.schedule(kHourNs, [] {});
    EXPECT_TRUE(this->clock.cancel(stale));

    std::atomic<int> fired{0};
    const Clock::TimerId fresh =
        this->clock.schedule(kMs, [&fired] { fired.fetch_add(1); });
    // The freed slot was reused; only the sequence number differs.
    EXPECT_EQ(fresh & kSlotMask, stale & kSlotMask);
    EXPECT_NE(fresh, stale);
    EXPECT_FALSE(this->clock.cancel(stale));
    EXPECT_EQ(this->clock.pendingTimers(), 1u);

    ASSERT_TRUE(this->runUntil([&] { return fired.load() == 1; }));
    // A fired handle is stale too, even once its slot is taken again.
    const Clock::TimerId next = this->clock.schedule(kHourNs, [] {});
    EXPECT_EQ(next & kSlotMask, fresh & kSlotMask);
    EXPECT_FALSE(this->clock.cancel(fresh));
    EXPECT_EQ(this->clock.pendingTimers(), 1u);
    EXPECT_TRUE(this->clock.cancel(next));
    EXPECT_EQ(fired.load(), 1);
}

TYPED_TEST(TimerHeapContractTest, ZeroAndForeignIdsCancelNothing)
{
    // A foreign id whose slot exists here but holds another sequence
    // number: four armed and cancelled, then one more, which takes
    // slot 3 with sequence 5 (this clock's slot 3 holds sequence 4).
    TypeParam other;
    std::vector<Clock::TimerId> others;
    for (int i = 0; i < 4; ++i)
        others.push_back(other.schedule(kHourNs, [] {}));
    for (Clock::TimerId id : others)
        EXPECT_TRUE(other.cancel(id));
    const Clock::TimerId foreign = other.schedule(kHourNs, [] {});

    std::vector<Clock::TimerId> mine;
    for (int i = 0; i < 4; ++i)
        mine.push_back(this->clock.schedule(kHourNs, [] {}));
    EXPECT_EQ(foreign & kSlotMask, mine[3] & kSlotMask);

    EXPECT_FALSE(this->clock.cancel(0));
    EXPECT_FALSE(this->clock.cancel(foreign));
    EXPECT_FALSE(this->clock.cancel(~Clock::TimerId(0)));
    EXPECT_FALSE(this->clock.cancel(Clock::TimerId(1) << 40 | 2));
    EXPECT_EQ(this->clock.pendingTimers(), 4u);
    for (Clock::TimerId id : mine)
        EXPECT_TRUE(this->clock.cancel(id));
    EXPECT_TRUE(other.cancel(foreign));
}

TYPED_TEST(TimerHeapContractTest, CallbackMayArmAndCancelWhileItFires)
{
    std::atomic<bool> victim_ran{false};
    const Clock::TimerId victim = this->clock.schedule(
        kHourNs, [&victim_ran] { victim_ran = true; });
    std::atomic<Clock::TimerId> self{0};
    std::atomic<int> self_cancelled{-1};
    std::atomic<int> victim_cancelled{-1};
    std::atomic<bool> chained{false};
    self = this->clock.schedule(20 * kMs, [&] {
        // The firing timer is already gone; the pending one is not.
        self_cancelled = this->clock.cancel(self.load()) ? 1 : 0;
        victim_cancelled = this->clock.cancel(victim) ? 1 : 0;
        this->clock.schedule(0, [&chained] { chained = true; });
    });
    ASSERT_TRUE(this->runUntil([&] { return chained.load(); }));
    EXPECT_EQ(self_cancelled.load(), 0);
    EXPECT_EQ(victim_cancelled.load(), 1);
    EXPECT_FALSE(victim_ran.load());
    EXPECT_EQ(this->clock.pendingTimers(), 0u);
}

TYPED_TEST(TimerHeapContractTest, CancelHeavyChurnStaysExactAndBounded)
{
    // Far-future timers, so nothing fires on either clock: each round
    // arms three and cancels two, the oldest live one first, like a
    // deadline-heavy client that cancels on fast success.
    std::deque<Clock::TimerId> live;
    for (int round = 0; round < 2000; ++round) {
        for (int i = 0; i < 3; ++i)
            live.push_back(this->clock.schedule(kHourNs + round, [] {}));
        for (int i = 0; i < 2; ++i) {
            ASSERT_TRUE(this->clock.cancel(live.front()));
            live.pop_front();
        }
        ASSERT_EQ(this->clock.pendingTimers(), live.size());
        ASSERT_LT(this->clock.timerHeapSize(), 2 * live.size() + 64);
    }
    while (!live.empty()) {
        ASSERT_TRUE(this->clock.cancel(live.back()));
        live.pop_back();
        ASSERT_EQ(this->clock.pendingTimers(), live.size());
        ASSERT_LT(this->clock.timerHeapSize(), 2 * live.size() + 64);
    }
    EXPECT_LT(this->clock.timerHeapSize(), 64u);
}

TEST(SimClockTest, FiringKeepsTheHeapBounded)
{
    // Cancelled entries that do not outnumber the live ones stay in
    // the heap; the bound must then hold as the live timers fire out
    // from under them, not only on cancel.
    SimClock clock;
    std::vector<Clock::TimerId> doomed;
    for (int i = 0; i < 500; ++i) {
        clock.schedule(i, [] {});
        doomed.push_back(clock.schedule(kHourNs, [] {}));
    }
    for (Clock::TimerId id : doomed)
        ASSERT_TRUE(clock.cancel(id));
    for (size_t left = 500; left > 0; --left) {
        ASSERT_EQ(clock.pendingTimers(), left);
        ASSERT_TRUE(clock.runOne());
        ASSERT_LT(clock.timerHeapSize(), 2 * clock.pendingTimers() + 64);
    }
    EXPECT_FALSE(clock.runOne());
    EXPECT_EQ(clock.pendingTimers(), 0u);
}

// ====================================================================
// RealClock: teardown (wall-clock but time-bounded).
// ====================================================================

TEST(RealClockTest, CallbackScheduledDuringTeardownStillRuns)
{
    // A callback that arms another timer while the clock is being
    // destroyed: pre-fix the second callback was armed on a timer
    // thread that had already been told to exit and silently never
    // ran. Post-fix a stopping clock runs it inline.
    std::atomic<bool> chained{false};
    {
        RealClock clock;
        clock.schedule(1'000'000, [&clock, &chained] {
            // Give the destructor time to begin (it joins us, so it
            // cannot finish first); generous margin, not a race.
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            clock.schedule(0, [&chained] { chained = true; });
        });
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        // Destructor runs here while the callback above is sleeping.
    }
    EXPECT_TRUE(chained.load());
}

} // namespace
} // namespace musuite
