/**
 * @file
 * End-to-end tests for the hardened fan-out path: deterministic fault
 * injection, per-call retry/deadline, quorum degradation when
 * a leaf dies mid-fan-out, reconnect backoff, and late-response
 * accounting.
 */

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "base/clock.h"
#include "base/threading.h"
#include "base/time_util.h"
#include "harness/deployment.h"
#include "rpc/client.h"
#include "rpc/fault.h"
#include "rpc/server.h"
#include "services/common/fanout.h"
#include "services/hdsearch/proto.h"
#include "simkernel/sim_transport.h"
#include "simkernel/simclock.h"
#include "stats/counters.h"

namespace musuite {
namespace {

using rpc::CallOptions;
using rpc::ClientOptions;
using rpc::FaultInjector;
using rpc::FaultSpec;
using rpc::RpcClient;
using rpc::Server;
using rpc::ServerCallPtr;
using rpc::ServerOptions;

constexpr uint32_t kEcho = 1;
constexpr uint32_t kBlackHole = 2;

std::unique_ptr<Server>
makeEchoServer()
{
    auto server = std::make_unique<Server>(ServerOptions{});
    server->registerHandler(kEcho, [](ServerCallPtr call) {
        call->respondOk(call->body());
    });
    server->registerHandler(kBlackHole, [](ServerCallPtr) {
        // Never responds; the call object is dropped.
    });
    server->start();
    return server;
}

// --------------------------------------------------------------------
// Retry: injected transient errors, then success.
// --------------------------------------------------------------------

TEST(FaultInjectionTest, RetryRecoversFromTransientErrors)
{
    auto server = makeEchoServer();
    RpcClient client(server->port());

    FaultSpec spec;
    spec.errorFirstN = 2; // Attempts 1 and 2 fail, attempt 3 is clean.
    auto injector = std::make_shared<FaultInjector>(spec);
    client.setFaultInjector(injector);

    CallOptions options;
    options.maxAttempts = 4;
    options.backoffBaseNs = 1'000'000; // Keep the test fast.

    auto result = client.callSync(kEcho, "persist", options);
    ASSERT_TRUE(result.isOk()) << result.status().message();
    EXPECT_EQ(result.payload(), "persist");
    EXPECT_EQ(injector->requestsSeen(), 3u);
    EXPECT_EQ(injector->faultsInjected(), 2u);
}

TEST(FaultInjectionTest, RetryBudgetExhaustedReportsLastError)
{
    auto server = makeEchoServer();
    RpcClient client(server->port());

    FaultSpec spec;
    spec.errorFirstN = 100; // More than the budget.
    client.setFaultInjector(std::make_shared<FaultInjector>(spec));

    CallOptions options;
    options.maxAttempts = 3;
    options.backoffBaseNs = 1'000'000;

    auto result = client.callSync(kEcho, "doomed", options);
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::Unavailable);
}

// --------------------------------------------------------------------
// Per-call deadline: a blackholed request fails promptly, and a
// partial fan-out still completes the parent.
// --------------------------------------------------------------------

TEST(FaultInjectionTest, PerCallDeadlineExpiresBlackholedRequest)
{
    // Sim-mode exact replay (was wall-clock with a [40ms, 5s] slack
    // window): the blackholed attempt settles via its deadline timer
    // at exactly t = 50ms of virtual time, and nothing stays armed.
    sim::SimClock clock;
    ScopedClock ambient(clock);
    auto server = std::make_unique<Server>(ServerOptions{});
    server->registerHandler(kBlackHole, [](ServerCallPtr) {
        // Never responds; the call object is dropped.
    });
    sim::SimChannel channel(clock, *server, sim::SimLink{}, "leaf");

    CallOptions options;
    options.deadlineNs = 50'000'000; // 50 ms.

    auto result =
        sim::simCallSync(clock, channel, kBlackHole, "void", options);
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::DeadlineExceeded);
    EXPECT_EQ(clock.nowNanos(), 50'000'000);
    clock.runUntilIdle();
    EXPECT_EQ(clock.pendingTimers(), 0u);
}

TEST(FaultInjectionTest, FanoutMergesPartialResultsAtLegDeadline)
{
    auto server = makeEchoServer();
    RpcClient good_a(server->port());
    RpcClient good_b(server->port());
    RpcClient lossy(server->port());

    FaultSpec spec;
    spec.dropEveryNth = 1; // Blackhole every request on this channel.
    lossy.setFaultInjector(std::make_shared<FaultInjector>(spec));

    std::vector<FanoutRequest> requests;
    requests.push_back({&good_a, "a", 0});
    requests.push_back({&good_b, "b", 1});
    requests.push_back({&lossy, "c", 2});

    FanoutOptions options;
    options.leg.deadlineNs = 60'000'000; // 60 ms per leg.

    FanoutOutcome got;
    CountdownLatch latch(1);
    fanoutCall(kEcho, std::move(requests), options,
               [&](FanoutOutcome outcome) {
                   got = std::move(outcome);
                   latch.countDown();
               });
    latch.wait();

    ASSERT_EQ(got.results.size(), 3u);
    EXPECT_TRUE(got.results[0].status.isOk());
    EXPECT_EQ(got.results[0].payload, "a");
    EXPECT_TRUE(got.results[1].status.isOk());
    EXPECT_EQ(got.results[2].status.code(),
              StatusCode::DeadlineExceeded);
    EXPECT_EQ(got.okLegs, 2u);
    EXPECT_TRUE(got.degraded);
}

// --------------------------------------------------------------------
// Attempt deadline + retry: a delayed first attempt loses to the retry.
// --------------------------------------------------------------------

TEST(FaultInjectionTest, RetryAfterAttemptDeadlineBeatsDelayedFirstAttempt)
{
    // Sim-mode exact replay: attempt 1 is delayed 1.5 s, its 20 ms
    // deadline settles it at t = 20 ms, the retry fires after the
    // 1 ms base backoff (no jitter), and its round trip is one request
    // plus one response link latency — so the call completes at
    // exactly t = 21.1 ms.
    sim::SimClock clock;
    ScopedClock ambient(clock);
    auto server = std::make_unique<Server>(ServerOptions{});
    server->registerHandler(kEcho, [](ServerCallPtr call) {
        call->respondOk(call->body());
    });
    sim::SimChannel channel(clock, *server, sim::SimLink{}, "leaf");

    FaultSpec spec;
    spec.delayFirstN = 1;         // Only the first attempt is slow...
    spec.delayNs = 1'500'000'000; // ...by 1.5 s.
    channel.setFaultInjector(std::make_shared<FaultInjector>(spec));

    CallOptions options;
    options.deadlineNs = 20'000'000; // Give up on an attempt at 20 ms.
    options.maxAttempts = 2;
    options.backoffBaseNs = 1'000'000;
    options.backoffJitter = 0.0;

    const CounterSnapshot before = globalCounters().snapshot();
    auto result =
        sim::simCallSync(clock, channel, kEcho, "tail", options);
    ASSERT_TRUE(result.isOk()) << result.status().message();
    EXPECT_EQ(result.payload(), "tail");
    EXPECT_EQ(clock.nowNanos(), 21'100'000);

    // The delayed original surfaces at t = 1.5s+ as one counted late
    // response; the world must then drain completely.
    clock.runUntilIdle();
    EXPECT_GE(clock.nowNanos(), 1'500'000'000);
    const CounterSnapshot delta =
        CounterSet::diff(before, globalCounters().snapshot());
    EXPECT_EQ(CounterSet::valueOf(delta, "rpc.call.late_response"), 1u);
    EXPECT_EQ(clock.pendingTimers(), 0u);
}

// --------------------------------------------------------------------
// Reconnect backoff (regression: the client used to redial on every
// failed call with no backoff).
// --------------------------------------------------------------------

TEST(FaultInjectionTest, ReconnectBackoffLimitsDialStorm)
{
    // Reserve a port that nothing listens on.
    uint16_t dead_port;
    {
        auto server = makeEchoServer();
        dead_port = server->port();
        server->stop();
    }

    ClientOptions options;
    options.reconnectBackoffNs = 50'000'000;     // 50 ms.
    options.reconnectBackoffMaxNs = 500'000'000; // 0.5 s.
    RpcClient client(dead_port, options);

    const int kCalls = 200;
    int failures = 0;
    const int64_t start = nowNanos();
    for (int i = 0; i < kCalls; ++i) {
        if (!client.callSync(kEcho, "x").isOk())
            ++failures;
    }
    const int64_t elapsed = nowNanos() - start;
    EXPECT_EQ(failures, kCalls);
    // Without backoff this would be ~kCalls dials; with it, at most
    // one dial per backoff window can happen regardless of how slowly
    // the loop runs (sanitizer builds stretch wall-clock, so the bound
    // is derived from elapsed time, not the call count).
    const uint64_t max_dials =
        uint64_t(elapsed / options.reconnectBackoffNs) + 2;
    EXPECT_LE(client.connectAttempts(), max_dials);
    EXPECT_GE(client.connectAttempts(), 1u);
}

/** Dial-suppression count since `before`. */
uint64_t
dialsSuppressedSince(const CounterSnapshot &before)
{
    return CounterSet::valueOf(
        CounterSet::diff(before, globalCounters().snapshot()),
        "rpc.client.dial_suppressed");
}

TEST(FaultInjectionTest, CallDuringReconnectHoldOffFailsFastWithoutDialing)
{
    uint16_t dead_port;
    {
        auto server = makeEchoServer();
        dead_port = server->port();
        server->stop();
    }
    ClientOptions options;
    options.reconnectBackoffNs = 60'000'000'000; // Outlasts the test.
    RpcClient client(dead_port, options);
    ASSERT_EQ(client.connectAttempts(), 1u); // The refused first dial.

    const CounterSnapshot before = globalCounters().snapshot();
    const Reply reply = client.callSync(kEcho, "x");
    EXPECT_EQ(reply.status().code(), StatusCode::Unavailable);
    EXPECT_EQ(client.connectAttempts(), 1u) << "dialed during hold-off";
    EXPECT_EQ(dialsSuppressedSince(before), 1u);
}

TEST(FaultInjectionTest, CallDuringAnotherCallersDialFailsFastWithoutDialing)
{
    // A listener with a zero backlog and a full accept queue drops
    // new SYNs, so a dial to it blocks in connect(2) until the SYN is
    // retransmitted (about a second later).
    const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listen_fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(listen_fd, 0), 0);
    socklen_t addr_len = sizeof(addr);
    ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr *>(&addr),
                            &addr_len),
              0);
    const uint16_t port = ntohs(addr.sin_port);

    RpcClient client(port);
    ASSERT_TRUE(client.isHealthy());
    ASSERT_EQ(client.connectAttempts(), 1u);
    // Take the client's connection off the queue, fill the queue with
    // another, then drop the client's: its next call must redial.
    const int accepted = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(accepted, 0);
    TcpSocket filler = TcpSocket::connectLoopback(port);
    ASSERT_TRUE(filler.valid());
    ::close(accepted);
    const int64_t cap = nowNanos() + 10'000'000'000;
    while (client.isHealthy() && nowNanos() < cap)
        sleepForNanos(1'000'000);
    ASSERT_FALSE(client.isHealthy());

    std::atomic<int> dialer_code{-1};
    ScopedThread dialer("dialer", [&client, &dialer_code] {
        client.call(kEcho, "x", [&dialer_code](const Status &status,
                                               std::string_view) {
            dialer_code = int(status.code());
        });
    });
    while (client.connectAttempts() < 2 && nowNanos() < cap)
        sleepForNanos(1'000'000);
    ASSERT_EQ(client.connectAttempts(), 2u);

    const CounterSnapshot before = globalCounters().snapshot();
    const Reply reply = client.callSync(kEcho, "y");
    EXPECT_EQ(reply.status().code(), StatusCode::Unavailable);
    EXPECT_EQ(client.connectAttempts(), 2u) << "dialed during a dial";
    EXPECT_EQ(dialsSuppressedSince(before), 1u);

    // Closing the listener refuses the retransmitted SYN: the blocked
    // dial fails and its call with it.
    ::close(listen_fd);
    dialer.join();
    EXPECT_EQ(dialer_code.load(), int(StatusCode::Unavailable));
}

// --------------------------------------------------------------------
// A TCP response that arrives after its attempt's deadline is dropped
// and counted by the Channel layer, as on every other transport.
// --------------------------------------------------------------------

TEST(FaultInjectionTest, LateTcpResponseAfterDeadlineIsCounted)
{
    auto server = std::make_unique<Server>(ServerOptions{});
    constexpr uint32_t kSlow = 7;
    server->registerHandler(kSlow, [](ServerCallPtr call) {
        sleepForNanos(120'000'000); // 120 ms, past the deadline.
        call->respondOk(call->body());
    });
    server->start();

    RpcClient client(server->port());
    CallOptions options;
    options.deadlineNs = 30'000'000; // 30 ms.

    const CounterSnapshot before = globalCounters().snapshot();
    auto result = client.callSync(kSlow, "tardy", options);
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::DeadlineExceeded);

    // Wait for the server's (now useless) response to arrive. The cap
    // only bounds a genuinely lost response; sanitizer builds may need
    // several seconds.
    const auto late_responses = [&before] {
        return CounterSet::valueOf(
            CounterSet::diff(before, globalCounters().snapshot()),
            "rpc.call.late_response");
    };
    const int64_t deadline = nowNanos() + 10'000'000'000;
    while (late_responses() == 0 && nowNanos() < deadline)
        sleepForNanos(5'000'000);
    EXPECT_EQ(late_responses(), 1u);
}

// --------------------------------------------------------------------
// Leaf death mid-fan-out: HDSearch completes degraded, never hangs.
// --------------------------------------------------------------------

TEST(FaultInjectionTest, HdSearchSurvivesLeafDeathWithQuorum)
{
    DeploymentOptions options;
    options.gmm.numVectors = 600; // Small data set: fast bring-up.
    options.gmm.dimension = 32;
    // Leg deadline must comfortably exceed a sanitized leaf's service
    // time, or healthy legs time out and the quorum math changes.
    options.midTierFanout.leg.deadlineNs = 1'000'000'000;
    options.midTierFanout.quorumFraction = 0.75; // 3 of 4 leaves.
    auto deployment =
        ServiceDeployment::create(ServiceKind::HdSearch, options);

    RpcClient client(deployment->midTierPort());
    Rng rng(99);

    // Warm up, then kill one of the four leaves mid-run.
    const uint32_t method = deployment->frontEndMethod();
    const int kRequests = 60;
    int ok = 0, degraded = 0;
    for (int i = 0; i < kRequests; ++i) {
        if (i == 5)
            deployment->killLeaf(0);
        auto result = client.callSync(
            method, deployment->sampleRequestBody(rng));
        if (!result.isOk())
            continue;
        hdsearch::NNResponse response;
        ASSERT_TRUE(decodeMessage(result.payload(), response));
        ++ok;
        if (response.degraded)
            ++degraded;
    }
    // Every request must complete (no hangs, no parent failures) and
    // post-kill requests must carry the degraded flag.
    EXPECT_EQ(ok, kRequests);
    EXPECT_GE(degraded, kRequests - 10);
}

// --------------------------------------------------------------------
// Gray fault shapes: counter-rule specs replayed in virtual time with
// pinned instants. The default SimLink is 50us each way, so a clean
// round trip is exactly 100us of virtual time.
// --------------------------------------------------------------------

constexpr int64_t kCleanRtt = 100'000;

struct GrayRig
{
    sim::SimClock clock;
    ScopedClock ambient{clock};
    std::unique_ptr<Server> server;
    std::unique_ptr<sim::SimChannel> channel;
    std::atomic<int> served{0};

    GrayRig()
    {
        server = std::make_unique<Server>(ServerOptions{});
        server->registerHandler(kEcho, [this](ServerCallPtr call) {
            served.fetch_add(1);
            call->respondOk(call->body());
        });
        server->start();
        channel = std::make_unique<sim::SimChannel>(
            clock, *server, sim::SimLink{}, "leaf");
    }

    /** One synchronous call; returns {status code, virtual elapsed}. */
    std::pair<StatusCode, int64_t>
    callOnce(const CallOptions &options = {})
    {
        const int64_t start = clock.nowNanos();
        auto result = sim::simCallSync(clock, *channel, kEcho, "g",
                                       options);
        return {result.status().code(), clock.nowNanos() - start};
    }
};

TEST(GrayFaultTest, RequestAndResponseDelayRulesAreIndependent)
{
    // Request delays every 2nd request by 5ms; response delays every
    // 3rd response by 7ms — each side on its own ordinal, so call 6
    // pays both. Pinned per call.
    GrayRig rig;
    FaultSpec spec;
    spec.delayEveryNth = 2;
    spec.delayNs = 5'000'000;
    spec.delayResponseEveryNth = 3;
    spec.responseDelayNs = 7'000'000;
    rig.channel->setFaultInjector(std::make_shared<FaultInjector>(spec));

    const int64_t expected[] = {
        kCleanRtt,                           // 1: neither.
        kCleanRtt + 5'000'000,               // 2: request only.
        kCleanRtt + 7'000'000,               // 3: response only.
        kCleanRtt + 5'000'000,               // 4: request only.
        kCleanRtt,                           // 5: neither.
        kCleanRtt + 5'000'000 + 7'000'000,   // 6: both.
    };
    for (int64_t want : expected) {
        const auto [code, elapsed] = rig.callOnce();
        EXPECT_EQ(code, StatusCode::Ok);
        EXPECT_EQ(elapsed, want);
    }
}

TEST(GrayFaultTest, ZombieDoesTheWorkButNeverAnswers)
{
    // dropResponseEveryNth = 1: the server serves every request, the
    // answer never comes back — only the attempt deadline recovers,
    // at exactly the deadline instant.
    GrayRig rig;
    FaultSpec spec;
    spec.dropResponseEveryNth = 1;
    auto injector = std::make_shared<FaultInjector>(spec);
    rig.channel->setFaultInjector(injector);

    CallOptions options;
    options.deadlineNs = 10'000'000;
    const auto [code, elapsed] = rig.callOnce(options);
    EXPECT_EQ(code, StatusCode::DeadlineExceeded);
    EXPECT_EQ(elapsed, 10'000'000);
    EXPECT_EQ(rig.served.load(), 1);          // The work WAS done.
    EXPECT_EQ(injector->responsesSeen(), 1u); // And answered...
    EXPECT_GE(injector->faultsInjected(), 1u); // ...into the void.
    rig.clock.runUntilIdle();
    EXPECT_EQ(rig.clock.pendingTimers(), 0u);
}

TEST(GrayFaultTest, SlowRampDelaysGrowLinearly)
{
    // delayRampPerCallNs: the k-th delayed request pays an extra
    // (k-1) * ramp — successful but ever slower, the shape no
    // per-call failure check ever sees. Byte-identical across runs
    // (no RNG in the rule).
    const auto run = [] {
        GrayRig rig;
        FaultSpec spec;
        spec.delayEveryNth = 1;
        spec.delayRampPerCallNs = 1'000'000;
        rig.channel->setFaultInjector(
            std::make_shared<FaultInjector>(spec));
        std::vector<int64_t> elapsed;
        for (int i = 0; i < 4; ++i)
            elapsed.push_back(rig.callOnce().second);
        return elapsed;
    };
    const std::vector<int64_t> first = run();
    const std::vector<int64_t> expected = {
        kCleanRtt,
        kCleanRtt + 1'000'000,
        kCleanRtt + 2'000'000,
        kCleanRtt + 3'000'000,
    };
    EXPECT_EQ(first, expected);
    EXPECT_EQ(first, run()) << "counter rules must replay identically";
}

TEST(GrayFaultTest, FlappingAlternatesFaultyAndHealthyWindows)
{
    // flapPeriod = 2, starting faulty: requests 1-2 hit the error
    // rule, 3-4 pass clean, and so on — pinned per ordinal.
    GrayRig rig;
    FaultSpec spec;
    spec.flapPeriod = 2;
    spec.errorFirstN = UINT64_MAX;
    rig.channel->setFaultInjector(std::make_shared<FaultInjector>(spec));

    const StatusCode expected[] = {
        StatusCode::Unavailable, StatusCode::Unavailable,
        StatusCode::Ok,          StatusCode::Ok,
        StatusCode::Unavailable, StatusCode::Unavailable,
        StatusCode::Ok,          StatusCode::Ok,
    };
    for (StatusCode want : expected)
        EXPECT_EQ(rig.callOnce().first, want);
}

} // namespace
} // namespace musuite
