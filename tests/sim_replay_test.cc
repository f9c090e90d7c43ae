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
#include "base/threading.h"
#include "base/time_util.h"
#include "base/timer_heap.h"
#include "loadgen/loadgen.h"
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

TEST(SimClockTest, SleepUntilFiresOnlyWhatIsDueStrictlyBefore)
{
    SimClock clock;
    std::string order;
    clock.schedule(30, [&] { order += 'd'; }); // Due exactly at t.
    clock.schedule(10, [&] {
        order += 'a';
        // Armed while sleeping, due before t: fires in this sleep too.
        clock.schedule(5, [&] { order += 'x'; });
    });
    clock.schedule(20, [&] { order += 'c'; });
    clock.schedule(10, [&] { order += 'b'; });

    clock.sleepUntil(30);
    EXPECT_EQ(order, "abxc");
    EXPECT_EQ(clock.nowNanos(), 30);
    EXPECT_EQ(clock.pendingTimers(), 1u);

    // The event at t is still pending: what the caller does now comes
    // first, as if it were a timer armed ahead of that event.
    order += '!';
    clock.sleepUntil(30);
    EXPECT_EQ(clock.pendingTimers(), 1u);
    EXPECT_TRUE(clock.runOne());
    EXPECT_EQ(order, "abxc!d");
    EXPECT_EQ(clock.nowNanos(), 30);

    clock.sleepUntil(5 * kMs); // Idle: time still moves.
    EXPECT_EQ(clock.nowNanos(), 5 * kMs);
}

TEST(SimClockDeathTest, SleepUntilRefusesThePastAndCallbacks)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    SimClock clock;
    clock.sleepUntil(10);
    EXPECT_DEATH(clock.sleepUntil(9), "into the past");
    clock.schedule(5, [&clock] { clock.sleepUntil(20); });
    EXPECT_DEATH(clock.runOne(), "inside a sim callback");
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
    LoadResult load;
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

    // --- drive: Poisson client calls, one per 6 ms on average -------
    OpenLoopLoadGen::Options load_options;
    load_options.shape = loadgen::LoadShape::constant(1e9 / double(6 * kMs));
    load_options.durationNs = 144 * kMs;
    load_options.seed = seed;
    OpenLoopLoadGen generator(load_options);
    CallOptions options;
    options.totalDeadlineNs = 250 * kMs;
    options.deadlineNs = 120 * kMs;
    options.maxAttempts = 2;
    options.backoffBaseNs = 10 * kMs;
    options.backoffJitter = 0.2;
    ScenarioResult result;
    result.load =
        generator
            .run([&](uint64_t seq,
                     std::function<void(RequestOutcome)> done) {
                CallOptions call_options = options;
                call_options.backoffJitterSeed = seed * 977 + 100 + seq;
                client.call(
                    kRootMethod, "q" + std::to_string(seq), call_options,
                    [&clock, seq, done = std::move(done)](
                        const Status &status, std::string_view) {
                        clock.traceEvent(
                            "call " + std::to_string(seq) + " done code=" +
                            std::to_string(int(status.code())));
                        done(status.isOk());
                    });
            })
            .front();

    clock.runUntilIdle();
    EXPECT_EQ(result.load.completed + result.load.errors, result.load.issued)
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
    // The replayer's Poisson schedule for seed 42 (24 calls expected:
    // one per 6 ms over 144 ms).
    EXPECT_EQ(first.load.issued, 37u);
    EXPECT_EQ(first.load.completed, second.load.completed);
    EXPECT_EQ(first.load.errors, second.load.errors);
    EXPECT_EQ(first.leafRequests, second.leafRequests);
}

TEST(SimReplayTest, SeedSweepHoldsInvariants)
{
    // Calls each swept seed's schedule drives, pinned so that no seed
    // thins the storm unnoticed.
    const uint64_t issued_by_seed[] = {25, 26, 28, 21, 33, 22, 25, 32};
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
        if (seed >= 1 && seed <= 8) {
            EXPECT_EQ(result.load.issued, issued_by_seed[seed - 1]);
        }
        EXPECT_GT(result.load.issued, 0u);
        EXPECT_EQ(result.leakedTimers, 0u);
        EXPECT_GT(result.load.completed, 0u);
        EXPECT_LE(result.leafRequests, result.load.issued * 2 * 2 * 2 * 2);
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

/** What a root replay left behind: see replayRoot. */
struct RootReplay
{
    LoadResult load;
    std::vector<RequestSpan> spans;
    size_t leakedTimers = 0;
    CounterSnapshot delta;
    std::string trace;
};

/**
 * Replay constant `qps` for `duration_ns` into `topo`'s root through
 * sim::rootIssue, marking each completion "<label> <seq> done
 * code=<code>" in the trace before `observe` sees it, then drain the
 * clock. Every arrival must complete exactly once.
 */
RootReplay
replayRoot(SimClock &clock, sim::Topology &topo, uint64_t seed, double qps,
           int64_t duration_ns, int64_t deadline_ns,
           const std::string &label, const sim::RootObserver &observe = {})
{
    OpenLoopLoadGen::Options options;
    options.shape = loadgen::LoadShape::constant(qps);
    options.durationNs = duration_ns;
    options.seed = seed * 131 + 7;
    OpenLoopLoadGen generator(options);
    const CounterSnapshot before = globalCounters().snapshot();
    RootReplay replay;
    replay.load =
        generator
            .run(sim::rootIssue(
                topo, seed, deadline_ns,
                [&](uint64_t seq, const Status &status,
                    const graph::GraphReply &reply) {
                    clock.traceEvent(
                        label + " " + std::to_string(seq) +
                        " done code=" + std::to_string(int(status.code())));
                    if (observe)
                        observe(seq, status, reply);
                }))
            .front();
    clock.runUntilIdle();
    EXPECT_EQ(replay.load.completed + replay.load.errors, replay.load.issued)
        << "lost " << label << " completions at seed " << seed;
    replay.spans = generator.spans();
    replay.leakedTimers = clock.pendingTimers();
    replay.delta = CounterSet::diff(before, globalCounters().snapshot());
    replay.trace = clock.takeTrace();
    return replay;
}

struct DagRun : RootReplay
{
    uint32_t exhaustedWithHint = 0;
    int64_t maxRetryAfterNs = 0;
    uint32_t lateCompletions = 0;  //!< Completed past the root deadline.
    uint32_t maxNodesVisited = 0;
};

DagRun
runDagScenario(const graph::GraphScenario &scenario, double qps,
               int64_t duration_ns, int64_t root_deadline_ns)
{
    SimClock clock;
    ScopedClock ambient(clock);
    clock.enableTrace();
    sim::Topology topo = sim::buildTopology(clock, scenario);
    DagRun run;
    static_cast<RootReplay &>(run) = replayRoot(
        clock, topo, scenario.seed, qps, duration_ns, root_deadline_ns,
        "dag",
        [&run](uint64_t, const Status &status,
               const graph::GraphReply &reply) {
            run.maxNodesVisited =
                std::max(run.maxNodesVisited, reply.nodesVisited);
            if (status.code() == StatusCode::ResourceExhausted &&
                status.retryAfterNs() > 0) {
                run.exhaustedWithHint++;
                run.maxRetryAfterNs =
                    std::max(run.maxRetryAfterNs, status.retryAfterNs());
            }
        });
    for (const RequestSpan &span : run.spans) {
        if (span.completed() && span.latencyNs() > root_deadline_ns)
            run.lateCompletions++;
    }
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
    EXPECT_EQ(first.load.completed, second.load.completed);
    EXPECT_EQ(first.load.errors, second.load.errors);
    EXPECT_EQ(first.load.degraded, second.load.degraded);
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
        EXPECT_GT(run.load.completed, 0u);
        EXPECT_EQ(run.load.errors, 0u);
        EXPECT_EQ(run.maxNodesVisited, 40u);
        EXPECT_EQ(run.lateCompletions, 0u);
        EXPECT_EQ(run.leakedTimers, 0u);
        EXPECT_EQ(CounterSet::valueOf(run.delta, "rpc.call.retry_amplified"),
                  0u);
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
        EXPECT_GT(run.load.completed, 0u);
        EXPECT_GT(run.load.degraded, 0u);
        EXPECT_EQ(run.lateCompletions, 0u);
        EXPECT_EQ(run.leakedTimers, 0u);
        EXPECT_EQ(CounterSet::valueOf(run.delta, "rpc.call.retry_amplified"),
                  0u);
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
        EXPECT_GT(CounterSet::valueOf(run.delta, "overload.queue_rejected"),
                  0u);
        EXPECT_GT(CounterSet::valueOf(run.delta, "rpc.retry.scheduled"),
                  0u);
        // ...yet every root-visible RESOURCE_EXHAUSTED carries the
        // propagated pacing hint (retry-after fix), so not one retry
        // was scheduled blind against an exhausted server.
        EXPECT_EQ(run.exhaustedWithHint, run.load.shed);
        if (run.load.shed > 0) {
            EXPECT_GT(run.maxRetryAfterNs, 0);
        }
        EXPECT_EQ(CounterSet::valueOf(run.delta, "rpc.call.retry_amplified"),
                  0u);
        // Overload degrades answers; it must not break timing.
        EXPECT_GT(run.load.completed + run.load.errors, 0u);
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
    // Some hop refused to forward (or answer) on an exhausted budget:
    // the decremented budget was visible deep in the tree.
    EXPECT_GT(CounterSet::valueOf(delta, "fanout.expired_before_fanout"),
              0u);
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
    ASSERT_TRUE(decodeMessage(result.payload(), reply));
    EXPECT_EQ(reply.nodesVisited, 4u); // Root + 3 cached mids.
    EXPECT_FALSE(reply.degraded);
    const CounterSnapshot delta =
        CounterSet::diff(before, globalCounters().snapshot());
    EXPECT_EQ(CounterSet::valueOf(delta, "graph.node.cache_hit"), 3u);
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

struct ChaosRun : RootReplay
{
    uint64_t ejections = 0;
    uint64_t reinstatements = 0;
    size_t maxEjectedAtEnd = 0;
    uint64_t faultsInjected = 0;
    uint64_t faultsCleared = 0;
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

    ChaosRun run{replayRoot(clock, topo, seed, 2'000.0, 120 * kMs,
                            50 * kMs, "chaos")};
    for (const auto &policy : topo.ejectionPolicies) {
        run.ejections += policy->ejections();
        run.reinstatements += policy->reinstatements();
        run.maxEjectedAtEnd =
            std::max(run.maxEjectedAtEnd, policy->ejectedCount());
    }
    run.faultsInjected = campaign.faultsInjected();
    run.faultsCleared = campaign.faultsCleared();
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
    EXPECT_EQ(first.load.completed, second.load.completed);
    EXPECT_EQ(first.load.errors, second.load.errors);
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
        EXPECT_GT(run.load.completed, 0u);
        EXPECT_EQ(run.leakedTimers, 0u);
        EXPECT_EQ(CounterSet::valueOf(run.delta, "chaos.fault_injected"),
                  1u);
        EXPECT_EQ(CounterSet::valueOf(run.delta, "chaos.fault_cleared"),
                  1u);
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

/** runChaosScenario(42, Zombie)'s trace. OpenLoopLoadGen issues its
 *  248 arrivals inline after SimClock::sleepUntil, so they arm no
 *  timers of their own. */
constexpr size_t kPinnedTraceBytes = 3'665'338;
constexpr uint64_t kPinnedTraceDigest = 0x0bfc34dd4cc384a3ull;

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

TEST(RealClockTest, EarlierTimerArmedAfterALaterOneFiresFirstAndOnTime)
{
    // The timer thread sleeps toward the earliest deadline. A timer
    // armed later but due sooner must wake it, or it would fire only
    // when the later one does, seconds late.
    RealClock clock;
    std::atomic<int64_t> late_fired{0};
    const Clock::TimerId late = clock.schedule(
        5'000'000'000, [&late_fired] { late_fired = nowNanos(); });
    // Let the timer thread settle into its sleep toward `late`.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    std::atomic<int64_t> early_fired{0};
    std::atomic<int64_t> second_fired{0};
    CountdownLatch fired(2);
    const int64_t armed = nowNanos();
    clock.schedule(30'000'000, [&early_fired, &fired] {
        early_fired = nowNanos();
        fired.countDown();
    });
    // Due after `early`: armed without waking the thread, it must
    // still fire, after `early` and on time.
    clock.schedule(60'000'000, [&second_fired, &fired] {
        second_fired = nowNanos();
        fired.countDown();
    });
    fired.wait();

    EXPECT_GE(early_fired.load() - armed, 30'000'000);
    EXPECT_LT(early_fired.load() - armed, 1'000'000'000);
    EXPECT_GE(second_fired.load() - armed, 60'000'000);
    EXPECT_LT(second_fired.load() - armed, 1'000'000'000);
    EXPECT_LE(early_fired.load(), second_fired.load());
    EXPECT_EQ(late_fired.load(), 0);
    EXPECT_TRUE(clock.cancel(late));
}

} // namespace
} // namespace musuite
